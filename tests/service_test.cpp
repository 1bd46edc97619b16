// Tests for the interop service: the standalone wire codec (including
// the robustness contract — truncated frames, oversized length prefixes,
// garbage bytes, and arbitrary partial reads must produce clean
// per-session errors, never crashes or desynced parses), the InteropService
// request pipeline driven through the in-process LoopbackClient (resident
// tool models, shared-cache flow runs, admission control, per-tenant
// fairness, watchdog cancellation, graceful drain), and the sharded
// ResultCache hammered from 8 threads (run under TSan in CI: the service
// shares one cache across concurrent requests, so it must hold without
// the executor's single guard).

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "base/diagnostics.hpp"
#include "base/rng.hpp"
#include "runtime/cache.hpp"
#include "schematic/generator.hpp"
#include "schematic/netlist.hpp"
#include "schematic/textio.hpp"
#include "service/service.hpp"
#include "service/wire.hpp"

using namespace interop;
using service::FrameReader;
using service::InteropService;
using service::LoopbackClient;
using service::MsgType;
using service::Request;
using service::Response;
using service::ServiceOptions;
using service::Status;

namespace {

Request sample_request() {
  Request req;
  req.id = 42;
  req.type = MsgType::Netlist;
  req.tenant = "acme";
  req.design = "(design)";
  req.cell = "top";
  req.dialect = "composer";
  req.flow = "";
  req.width = 3;
  req.latency_us = 17;
  req.seed = 0xdeadbeefcafe;
  return req;
}

Response sample_response() {
  Response resp;
  resp.id = 42;
  resp.status = Status::Rejected;
  resp.retry_after_us = 1500;
  resp.error = "queue full";
  resp.body = "hello\nworld";
  resp.counters = {{"nets", 12}, {"connections", 30}};
  return resp;
}

/// Feed `bytes` to a FrameReader in chunks of `chunk` and collect every
/// complete payload.
std::vector<std::string> scan(const std::string& bytes, std::size_t chunk,
                              FrameReader::Result* final_result,
                              std::string* final_error) {
  FrameReader reader;
  std::vector<std::string> payloads;
  std::size_t pos = 0;
  *final_result = FrameReader::Result::NeedMore;
  while (true) {
    std::string payload, error;
    FrameReader::Result r = reader.next(&payload, &error);
    if (r == FrameReader::Result::Frame) {
      payloads.push_back(payload);
      continue;
    }
    *final_result = r;
    if (r == FrameReader::Result::Bad) {
      *final_error = error;
      break;
    }
    if (pos >= bytes.size()) break;
    std::size_t n = std::min(chunk, bytes.size() - pos);
    reader.feed(std::string_view(bytes).substr(pos, n));
    pos += n;
  }
  return payloads;
}

}  // namespace

// ------------------------------------------------------------ wire codec

TEST(ServiceWire, RequestRoundTrip) {
  Request req = sample_request();
  std::string frame = service::encode_request(req);

  FrameReader reader;
  reader.feed(frame);
  std::string payload, error;
  ASSERT_EQ(reader.next(&payload, &error), FrameReader::Result::Frame);
  Request out;
  ASSERT_TRUE(service::decode_request(payload, &out, &error)) << error;
  EXPECT_EQ(out, req);
  EXPECT_EQ(reader.next(&payload, &error), FrameReader::Result::NeedMore);
}

TEST(ServiceWire, ResponseRoundTrip) {
  Response resp = sample_response();
  std::string frame = service::encode_response(resp);
  FrameReader reader;
  reader.feed(frame);
  std::string payload, error;
  ASSERT_EQ(reader.next(&payload, &error), FrameReader::Result::Frame);
  Response out;
  ASSERT_TRUE(service::decode_response(payload, &out, &error)) << error;
  EXPECT_EQ(out, resp);
  EXPECT_EQ(out.counter("nets"), 12u);
  EXPECT_EQ(out.counter("absent", 7), 7u);
}

TEST(ServiceWire, PartialReadsAnyFragmentation) {
  std::string bytes = service::encode_request(sample_request()) +
                      service::encode_response(sample_response()) +
                      service::encode_request(Request{});
  for (std::size_t chunk : {1u, 2u, 3u, 5u, 7u, 11u, 64u, 4096u}) {
    FrameReader::Result result;
    std::string error;
    std::vector<std::string> payloads = scan(bytes, chunk, &result, &error);
    ASSERT_EQ(payloads.size(), 3u) << "chunk=" << chunk;
    EXPECT_EQ(result, FrameReader::Result::NeedMore);
    Request first, third;
    Response second;
    EXPECT_TRUE(service::decode_request(payloads[0], &first, &error));
    EXPECT_TRUE(service::decode_response(payloads[1], &second, &error));
    EXPECT_TRUE(service::decode_request(payloads[2], &third, &error));
    EXPECT_EQ(first, sample_request());
    EXPECT_EQ(second, sample_response());
    EXPECT_EQ(third, Request{});
  }
}

TEST(ServiceWire, TruncatedFrameNeverCompletes) {
  std::string frame = service::encode_request(sample_request());
  for (std::size_t keep = 0; keep < frame.size(); keep += 9) {
    FrameReader reader;
    reader.feed(std::string_view(frame).substr(0, keep));
    std::string payload, error;
    EXPECT_EQ(reader.next(&payload, &error), FrameReader::Result::NeedMore)
        << "keep=" << keep;
  }
}

TEST(ServiceWire, GarbageMagicFailsFast) {
  FrameReader reader;
  reader.feed("XXXXGARBAGEGARBAGE");
  std::string payload, error;
  EXPECT_EQ(reader.next(&payload, &error), FrameReader::Result::Bad);
  EXPECT_NE(error.find("magic"), std::string::npos);
  // Sticky: the session stays dead even if valid bytes arrive later.
  reader.feed(service::encode_request(sample_request()));
  EXPECT_EQ(reader.next(&payload, &error), FrameReader::Result::Bad);
}

TEST(ServiceWire, OversizedLengthPrefixRejected) {
  // Hand-build a header claiming a payload far beyond kMaxFrameBytes.
  std::string frame(service::kWireMagic, 4);
  auto put_u32 = [&frame](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) frame.push_back(char((v >> (8 * i)) & 0xff));
  };
  put_u32(service::kWireVersion);
  put_u32(0xffffffffu);
  FrameReader reader;
  reader.feed(frame);
  std::string payload, error;
  EXPECT_EQ(reader.next(&payload, &error), FrameReader::Result::Bad);
  EXPECT_NE(error.find("oversized"), std::string::npos);
}

TEST(ServiceWire, WrongVersionRejected) {
  std::string frame(service::kWireMagic, 4);
  auto put_u32 = [&frame](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) frame.push_back(char((v >> (8 * i)) & 0xff));
  };
  put_u32(service::kWireVersion + 1);
  put_u32(0);
  FrameReader reader;
  reader.feed(frame);
  std::string payload, error;
  EXPECT_EQ(reader.next(&payload, &error), FrameReader::Result::Bad);
  EXPECT_NE(error.find("version"), std::string::npos);
}

TEST(ServiceWire, GarbageAfterValidFrameKillsSessionNotFrame) {
  std::string bytes = service::encode_request(sample_request()) + "JUNKJUNK";
  FrameReader reader;
  reader.feed(bytes);
  std::string payload, error;
  ASSERT_EQ(reader.next(&payload, &error), FrameReader::Result::Frame);
  Request out;
  EXPECT_TRUE(service::decode_request(payload, &out, &error));
  EXPECT_EQ(out, sample_request());
  EXPECT_EQ(reader.next(&payload, &error), FrameReader::Result::Bad);
}

TEST(ServiceWire, TruncatedPayloadsDecodeCleanly) {
  // Every prefix of a valid payload must fail decode with an error, not
  // crash or read out of bounds.
  std::string frame = service::encode_request(sample_request());
  std::string payload = frame.substr(12);
  for (std::size_t keep = 0; keep < payload.size(); ++keep) {
    Request out;
    std::string error;
    EXPECT_FALSE(service::decode_request(
        std::string_view(payload).substr(0, keep), &out, &error));
    EXPECT_FALSE(error.empty());
  }
}

TEST(ServiceWire, FuzzedPayloadsNeverCrash) {
  // Seeded garbage payloads: decode must return false or a valid struct,
  // never crash. Embedded length prefixes are attacker-controlled, so
  // this exercises the bounds checks hard.
  base::Rng rng(20260808);
  int decoded_ok = 0;
  for (int i = 0; i < 2000; ++i) {
    std::size_t len = std::size_t(rng.next() % 96);
    std::string payload(len, '\0');
    for (char& c : payload) c = char(rng.next() & 0xff);
    Request req;
    Response resp;
    std::string error;
    if (service::decode_request(payload, &req, &error)) ++decoded_ok;
    service::decode_response(payload, &resp, &error);
  }
  // Nearly all garbage must be rejected (type/status range checks).
  EXPECT_LT(decoded_ok, 20);
}

TEST(ServiceWire, FuzzedStreamsNeverDesyncTheReader) {
  // Random byte streams with valid frames spliced in: the reader either
  // yields exactly the spliced frames (when garbage lands after them) or
  // goes Bad — it must never yield a corrupted frame.
  base::Rng rng(7);
  for (int round = 0; round < 200; ++round) {
    std::string good = service::encode_request(sample_request());
    std::string stream;
    int expected_before_garbage = 0;
    bool garbage_seen = false;
    for (int part = 0; part < 4; ++part) {
      if (rng.next() % 2 == 0) {
        if (!garbage_seen) ++expected_before_garbage;
        stream += good;
      } else {
        garbage_seen = true;
        std::size_t len = 1 + std::size_t(rng.next() % 24);
        for (std::size_t i = 0; i < len; ++i)
          stream.push_back(char(rng.next() & 0xff));
      }
    }
    FrameReader::Result result;
    std::string error;
    std::size_t chunk = 1 + std::size_t(rng.next() % 32);
    std::vector<std::string> payloads =
        scan(stream, chunk, &result, &error);
    // Frames before the first garbage byte must all decode exactly.
    ASSERT_GE(int(payloads.size()), expected_before_garbage);
    for (int i = 0; i < expected_before_garbage; ++i) {
      Request out;
      ASSERT_TRUE(service::decode_request(payloads[std::size_t(i)], &out,
                                          &error));
      EXPECT_EQ(out, sample_request());
    }
  }
}

// ------------------------------------------------------------ service core

namespace {

ServiceOptions quiet_options() {
  ServiceOptions opt;
  opt.workers = 2;
  opt.flow_workers = 2;
  opt.queue_limit = 64;
  return opt;
}

std::string scenario_design(std::uint64_t seed) {
  sch::GeneratorOptions gopt;
  gopt.seed = seed;
  return sch::write_design(sch::make_exar_scenario(gopt).source);
}

}  // namespace

TEST(ServiceCore, PingRoundTripThroughLoopback) {
  InteropService svc(quiet_options());
  LoopbackClient client(svc);
  Request req;
  req.id = 9;
  req.type = MsgType::Ping;
  req.tenant = "t0";
  Response resp = client.call(req);
  EXPECT_EQ(resp.status, Status::Ok);
  EXPECT_EQ(resp.id, 9u);
  EXPECT_EQ(resp.body, "pong");
}

TEST(ServiceCore, MigrateEndpointVerifiesClean) {
  InteropService svc(quiet_options());
  LoopbackClient client(svc);
  Request req;
  req.id = 1;
  req.type = MsgType::Migrate;
  req.tenant = "exar";
  req.design = scenario_design(3);
  Response resp = client.call(req);
  ASSERT_EQ(resp.status, Status::Ok) << resp.error;
  // The resident tool models must migrate the standard scenario with zero
  // verification diffs, and the migrated design must parse.
  EXPECT_EQ(resp.counter("diffs", 999), 0u);
  EXPECT_GT(resp.counter("sheets"), 0u);
  EXPECT_GT(resp.counter("props_applied"), 0u);
  base::DiagnosticEngine diags;
  sch::Design migrated = sch::read_design(resp.body, diags);
  EXPECT_NE(migrated.find_schematic("top"), nullptr);
}

TEST(ServiceCore, NetlistEndpointMatchesDirectExtraction) {
  InteropService svc(quiet_options());
  LoopbackClient client(svc);
  sch::GeneratorOptions gopt;
  gopt.seed = 5;
  sch::Scenario scenario = sch::make_exar_scenario(gopt);

  Request req;
  req.id = 2;
  req.type = MsgType::Netlist;
  req.tenant = "exar";
  req.design = sch::write_design(scenario.source);
  req.cell = "top";
  req.dialect = "viewlogic";
  Response resp = client.call(req);
  ASSERT_EQ(resp.status, Status::Ok) << resp.error;

  base::DiagnosticEngine diags;
  sch::Netlist direct = sch::extract_netlist(
      scenario.source, *scenario.source.find_schematic("top"),
      sch::viewlogic_dialect(), diags);
  EXPECT_EQ(resp.counter("nets", 0), direct.nets.size());
  EXPECT_GT(resp.counter("connections"), 0u);
}

TEST(ServiceCore, ErrorsAreCleanPerRequest) {
  InteropService svc(quiet_options());
  LoopbackClient client(svc);

  Request bad_design;
  bad_design.id = 3;
  bad_design.type = MsgType::Migrate;
  bad_design.design = "(this is not ( a design";
  Response resp = client.call(bad_design);
  EXPECT_EQ(resp.status, Status::Error);
  EXPECT_NE(resp.error.find("bad design"), std::string::npos);

  Request bad_cell;
  bad_cell.id = 4;
  bad_cell.type = MsgType::Netlist;
  bad_cell.design = scenario_design(1);
  bad_cell.cell = "nonexistent";
  resp = client.call(bad_cell);
  EXPECT_EQ(resp.status, Status::Error);
  EXPECT_NE(resp.error.find("unknown cell"), std::string::npos);

  Request bad_dialect = bad_cell;
  bad_dialect.id = 5;
  bad_dialect.cell = "top";
  bad_dialect.dialect = "martian";
  resp = client.call(bad_dialect);
  EXPECT_EQ(resp.status, Status::Error);
  EXPECT_NE(resp.error.find("unknown dialect"), std::string::npos);

  Request bad_flow;
  bad_flow.id = 6;
  bad_flow.type = MsgType::FlowRun;
  bad_flow.flow = "not_a_spec";
  resp = client.call(bad_flow);
  EXPECT_EQ(resp.status, Status::Error);

  // The service survives all of it.
  Request ping;
  ping.id = 7;
  ping.type = MsgType::Ping;
  EXPECT_EQ(client.call(ping).status, Status::Ok);
}

// A design nested far past the reader's cap (it used to overflow the
// stack and kill the daemon) is one bad request among others.
TEST(ServiceCore, DeeplyNestedDesignIsACleanError) {
  InteropService svc(quiet_options());
  LoopbackClient client(svc);
  const std::string deep = std::string(100000, '(');
  for (MsgType type : {MsgType::Migrate, MsgType::Netlist}) {
    Request req;
    req.id = 8;
    req.type = type;
    req.cell = "top";
    req.design = deep;
    Response resp = client.call(req);
    EXPECT_EQ(resp.status, Status::Error) << service::to_string(type);
    EXPECT_NE(resp.error.find("nesting deeper than"), std::string::npos)
        << resp.error;

    req.id = 9;
    req.design = scenario_design(1);
    resp = client.call(req);
    EXPECT_EQ(resp.status, Status::Ok) << resp.error;
  }
}

TEST(ServiceCore, FlowRunsShareTheResidentCacheAcrossTenants) {
  InteropService svc(quiet_options());
  LoopbackClient client(svc);

  Request req;
  req.id = 1;
  req.type = MsgType::FlowRun;
  req.tenant = "tenant-a";
  req.flow = "fanout";
  req.width = 6;
  req.latency_us = 0;
  req.seed = 77;
  Response cold = client.call(req);
  ASSERT_EQ(cold.status, Status::Ok) << cold.error;
  EXPECT_EQ(cold.counter("executed"), 8u);  // src + 6 + sink
  EXPECT_EQ(cold.counter("cache_hits"), 0u);

  // A DIFFERENT tenant submits the identical flow: every step must replay
  // from the shared cache, zero actions executed.
  req.id = 2;
  req.tenant = "tenant-b";
  Response warm = client.call(req);
  ASSERT_EQ(warm.status, Status::Ok) << warm.error;
  EXPECT_EQ(warm.counter("executed", 999), 0u);
  EXPECT_EQ(warm.counter("cache_hits"), 8u);

  // A different seed is a different lineage: cold again.
  req.id = 3;
  req.seed = 78;
  Response other = client.call(req);
  ASSERT_EQ(other.status, Status::Ok) << other.error;
  EXPECT_EQ(other.counter("executed"), 8u);
}

TEST(ServiceCore, AdmissionControlRejectsWithRetryAfter) {
  ServiceOptions opt;
  opt.workers = 1;
  opt.flow_workers = 1;
  opt.queue_limit = 2;
  opt.retry_after_us = 12345;
  InteropService svc(opt);

  // Occupy the worker and fill the queue with slow flow runs.
  std::atomic<int> done_count{0};
  Request slow;
  slow.type = MsgType::FlowRun;
  slow.flow = "fanout";
  slow.width = 2;
  slow.latency_us = 30000;
  slow.tenant = "flooder";
  for (int i = 0; i < 3; ++i) {
    slow.id = std::uint64_t(i + 1);
    slow.seed = std::uint64_t(1000 + i);  // distinct: no cache shortcuts
    svc.submit(slow, [&done_count](Response) { ++done_count; });
    // Let the single worker claim request 1 before the queue is filled;
    // otherwise request 3 can itself be shed on a slow scheduler.
    if (i == 0)
      while (svc.queued() != 0) std::this_thread::yield();
  }
  // Worker has one, queue holds two: the next submit must be shed.
  Request extra = slow;
  extra.id = 99;
  extra.seed = 2000;
  Response rejected;
  bool admitted = svc.submit(
      extra, [&rejected](Response resp) { rejected = std::move(resp); });
  EXPECT_FALSE(admitted);
  EXPECT_EQ(rejected.status, Status::Rejected);
  EXPECT_EQ(rejected.retry_after_us, 12345u);
  EXPECT_EQ(rejected.id, 99u);

  svc.drain();
  EXPECT_EQ(done_count.load(), 3);
  EXPECT_GE(svc.metrics().counter("service.rejected").value(), 1);
}

TEST(ServiceCore, FairSchedulingDoesNotStarveQuietTenants) {
  ServiceOptions opt;
  opt.workers = 1;
  opt.flow_workers = 1;
  opt.queue_limit = 64;
  InteropService svc(opt);

  // A slow request occupies the single worker while we enqueue: 4 from a
  // flooding tenant, then 1 from a quiet tenant.
  std::mutex order_mu;
  std::vector<std::string> completion_order;
  auto record = [&](std::string tag) {
    return [&order_mu, &completion_order, tag](Response) {
      std::lock_guard<std::mutex> lock(order_mu);
      completion_order.push_back(tag);
    };
  };

  Request gate;
  gate.type = MsgType::FlowRun;
  gate.flow = "fanout";
  gate.width = 1;
  gate.latency_us = 50000;
  gate.tenant = "gate";
  gate.seed = 1;
  svc.submit(gate, record("gate"));

  Request flood;
  flood.type = MsgType::Ping;
  flood.tenant = "flooder";
  for (int i = 0; i < 4; ++i) {
    flood.id = std::uint64_t(i);
    svc.submit(flood, record("flood" + std::to_string(i)));
  }
  Request quiet;
  quiet.type = MsgType::Ping;
  quiet.tenant = "quiet";
  svc.submit(quiet, record("quiet"));

  svc.drain();
  ASSERT_EQ(completion_order.size(), 6u);
  // Round-robin: the quiet tenant's single request must complete within
  // two claims of the gate finishing, never behind the whole flood.
  std::size_t quiet_pos = 0, last_flood_pos = 0;
  for (std::size_t i = 0; i < completion_order.size(); ++i) {
    if (completion_order[i] == "quiet") quiet_pos = i;
    if (completion_order[i].rfind("flood", 0) == 0) last_flood_pos = i;
  }
  EXPECT_LT(quiet_pos, last_flood_pos);
  EXPECT_LE(quiet_pos, 3u);
}

TEST(ServiceCore, WatchdogCancelsOverdueFlowRuns) {
  ServiceOptions opt;
  opt.workers = 1;
  opt.flow_workers = 1;
  opt.queue_limit = 8;
  opt.request_timeout_us = 20000;  // 20ms budget...
  InteropService svc(opt);
  LoopbackClient client(svc);

  Request req;
  req.id = 1;
  req.type = MsgType::FlowRun;
  req.flow = "fanout";
  req.width = 16;           // ...against ~16 sequential 20ms steps
  req.latency_us = 20000;
  req.seed = 31337;
  Response resp = client.call(req);
  EXPECT_EQ(resp.status, Status::Error);
  EXPECT_NE(resp.error.find("cancel"), std::string::npos);
  EXPECT_GE(svc.metrics().counter("service.timeouts").value(), 1);

  // The daemon is healthy afterwards.
  Request ping;
  ping.id = 2;
  ping.type = MsgType::Ping;
  EXPECT_EQ(client.call(ping).status, Status::Ok);
}

TEST(ServiceCore, DrainCompletesEverythingAdmitted) {
  ServiceOptions opt;
  opt.workers = 2;
  opt.flow_workers = 1;
  opt.queue_limit = 32;
  InteropService svc(opt);

  std::atomic<int> completed{0}, rejected{0};
  Request req;
  req.type = MsgType::FlowRun;
  req.flow = "fanout";
  req.width = 2;
  req.latency_us = 2000;
  constexpr int kSubmitted = 12;
  for (int i = 0; i < kSubmitted; ++i) {
    req.id = std::uint64_t(i);
    req.tenant = "t" + std::to_string(i % 3);
    req.seed = std::uint64_t(i);
    svc.submit(req, [&](Response resp) {
      (resp.status == Status::Ok ? completed : rejected)++;
    });
  }
  svc.drain();
  EXPECT_EQ(completed.load() + rejected.load(), kSubmitted);
  EXPECT_EQ(rejected.load(), 0);  // queue_limit was never exceeded
  EXPECT_EQ(svc.queued(), 0u);
  EXPECT_EQ(svc.in_flight(), 0);

  // Post-drain submissions are refused as "draining", not queued forever.
  Response late;
  req.id = 999;
  bool admitted = svc.submit(req, [&late](Response resp) {
    late = std::move(resp);
  });
  EXPECT_FALSE(admitted);
  EXPECT_EQ(late.status, Status::Error);
  EXPECT_NE(late.error.find("draining"), std::string::npos);
}

TEST(ServiceCore, MetricsEndpointExposesThePipeline) {
  InteropService svc(quiet_options());
  LoopbackClient client(svc);
  Request ping;
  ping.id = 1;
  ping.type = MsgType::Ping;
  ping.tenant = "m";
  client.call(ping);

  Request metrics;
  metrics.id = 2;
  metrics.type = MsgType::Metrics;
  Response resp = client.call(metrics);
  ASSERT_EQ(resp.status, Status::Ok);
  EXPECT_NE(resp.body.find("counter service.admitted"), std::string::npos);
  EXPECT_NE(resp.body.find("gauge service.queue.depth"), std::string::npos);
  EXPECT_NE(resp.body.find("histogram service.latency_us.ping"),
            std::string::npos);
}

// ------------------------------------------------------- sharded cache

TEST(ServiceCacheConcurrency, EightThreadHammer) {
  // The service shares one ResultCache across every in-flight request,
  // outside the executor's single guard — so the cache must survive raw
  // concurrent find/store/stats/size/clear. Run under TSan in CI.
  runtime::ResultCache cache(256, 16);
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 4000;
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &go, t] {
      while (!go.load()) std::this_thread::yield();
      base::Rng rng(std::uint64_t(1000 + t));
      for (int i = 0; i < kOpsPerThread; ++i) {
        std::uint64_t key = rng.next() % 512;
        switch (rng.next() % 8) {
          case 0: {
            runtime::CacheEntry entry;
            entry.outputs.emplace_back("out" + std::to_string(key),
                                       std::to_string(t));
            entry.log = "thread" + std::to_string(t);
            cache.store(key, std::move(entry));
            break;
          }
          case 1:
            (void)cache.stats();
            break;
          case 2:
            (void)cache.size();
            break;
          case 3:
            if (i % 1024 == 0) cache.clear();
            break;
          default: {
            auto entry = cache.find(key);
            // Entries must stay valid after eviction/clear races.
            if (entry) EXPECT_FALSE(entry->log.empty());
            break;
          }
        }
      }
    });
  }
  go.store(true);
  for (std::thread& t : threads) t.join();

  runtime::ResultCache::Stats stats = cache.stats();
  EXPECT_GT(stats.hits + stats.misses, 0u);
  EXPECT_LE(cache.size(), 256u + 16u);  // per-shard rounding slack
}

TEST(ServiceCacheConcurrency, ShardedSemanticsMatchSingleShard) {
  // Same operation sequence, 1 shard vs 16: identical lookup results and
  // aggregate hit/miss accounting when capacity is never exceeded.
  runtime::ResultCache one(0, 1), many(0, 16);
  base::Rng rng(99);
  for (int i = 0; i < 2000; ++i) {
    std::uint64_t key = rng.next() % 128;
    if (rng.next() % 2 == 0) {
      runtime::CacheEntry entry;
      entry.log = std::to_string(key);
      one.store(key, entry);
      many.store(key, std::move(entry));
    } else {
      auto a = one.find(key);
      auto b = many.find(key);
      ASSERT_EQ(a == nullptr, b == nullptr);
      if (a) EXPECT_EQ(a->log, b->log);
    }
  }
  EXPECT_EQ(one.size(), many.size());
  runtime::ResultCache::Stats sa = one.stats(), sb = many.stats();
  EXPECT_EQ(sa.hits, sb.hits);
  EXPECT_EQ(sa.misses, sb.misses);
  EXPECT_EQ(sa.stores, sb.stores);
}

TEST(ServiceCacheConcurrency, PerShardFifoEvictionIsBounded) {
  runtime::ResultCache cache(64, 8);
  for (std::uint64_t key = 0; key < 1000; ++key) {
    runtime::CacheEntry entry;
    entry.log = std::to_string(key);
    cache.store(key, std::move(entry));
  }
  // ceil(64/8) = 8 per shard, 8 shards: total stays at the budget.
  EXPECT_LE(cache.size(), 64u);
  EXPECT_GT(cache.stats().evictions, 0u);
}

// --------------------------------------- persistent store warm restart

namespace {

/// mkdtemp-backed scratch directory, removed on scope exit.
struct TempDir {
  explicit TempDir(const std::string& tag) {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / (tag + ".XXXXXX")).string();
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    char* p = ::mkdtemp(buf.data());
    EXPECT_NE(p, nullptr);
    if (p) path = p;
  }
  ~TempDir() {
    std::error_code ec;
    if (!path.empty()) std::filesystem::remove_all(path, ec);
  }
  std::string path;
};

}  // namespace

TEST(ServiceStore, WarmRestartServesSameFlowWithZeroExecutions) {
  TempDir dir("service_store");
  ServiceOptions opt = quiet_options();
  opt.store_dir = dir.path;

  Request req;
  req.id = 1;
  req.type = MsgType::FlowRun;
  req.tenant = "acme";
  req.flow = "fanout";
  req.width = 6;
  req.latency_us = 0;
  req.seed = 1234;

  // Incarnation 1: cold run executes everything; every cached effect is
  // WAL-durable before the response (fsync-per-append), so even a kill -9
  // right after the response loses nothing.
  {
    InteropService svc(opt);
    ASSERT_NE(svc.persistent_cache(), nullptr) << svc.store_error();
    EXPECT_EQ(svc.persistent_cache()->recovered(), 0u);
    LoopbackClient client(svc);
    Response cold = client.call(req);
    ASSERT_EQ(cold.status, Status::Ok) << cold.error;
    EXPECT_EQ(cold.counter("executed"), 8u);  // src + 6 + sink
  }

  // Incarnation 2: a fresh service on the same directory — the restarted
  // daemon after the old one died. The identical request replays from the
  // rebuilt cache with zero actions executed.
  {
    InteropService svc(opt);
    ASSERT_NE(svc.persistent_cache(), nullptr) << svc.store_error();
    EXPECT_EQ(svc.persistent_cache()->recovered(), 8u);
    LoopbackClient client(svc);
    req.id = 2;
    Response warm = client.call(req);
    ASSERT_EQ(warm.status, Status::Ok) << warm.error;
    EXPECT_EQ(warm.counter("executed", 999), 0u)
        << "a warm restart re-executes nothing";
    EXPECT_EQ(warm.counter("cache_hits"), 8u);
  }
}

TEST(ServiceStore, UnusableStoreDirDegradesToMemoryOnly) {
  TempDir dir("service_store_bad");
  // Point store_dir at a plain file: open must fail, the service must
  // still serve (memory-only), and the failure must be observable.
  std::string file = dir.path + "/occupied";
  { std::ofstream(file) << "not a directory"; }
  ServiceOptions opt = quiet_options();
  opt.store_dir = file;
  InteropService svc(opt);
  EXPECT_EQ(svc.persistent_cache(), nullptr);
  EXPECT_FALSE(svc.store_error().empty());
  LoopbackClient client(svc);
  Request req;
  req.id = 1;
  req.type = MsgType::FlowRun;
  req.tenant = "acme";
  req.flow = "fanout";
  req.width = 4;
  req.latency_us = 0;
  req.seed = 9;
  Response resp = client.call(req);
  ASSERT_EQ(resp.status, Status::Ok) << resp.error;
  EXPECT_EQ(resp.counter("executed"), 6u);
  EXPECT_EQ(svc.metrics().expose().find("service.store.recovered"),
            std::string::npos);
}

TEST(ServiceStore, DrainFlushesTheStore) {
  TempDir dir("service_store_drain");
  ServiceOptions opt = quiet_options();
  opt.store_dir = dir.path;
  InteropService svc(opt);
  ASSERT_NE(svc.persistent_cache(), nullptr) << svc.store_error();
  LoopbackClient client(svc);
  Request req;
  req.id = 1;
  req.type = MsgType::FlowRun;
  req.tenant = "acme";
  req.flow = "fanout";
  req.width = 4;
  req.latency_us = 0;
  req.seed = 5;
  ASSERT_EQ(client.call(req).status, Status::Ok);
  svc.drain();
  // Post-drain the store is quiesced and fully flushed; the segment on
  // disk holds every entry (6 = src + 4 + sink).
  auto& store = svc.persistent_cache()->object_store();
  EXPECT_EQ(store.size(), 6u);
  EXPECT_EQ(store.stats().appends, 6u);
}

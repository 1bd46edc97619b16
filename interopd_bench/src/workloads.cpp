// The three workloads. Each builds its inputs from the seed alone, measures
// set-up, drives the service for the timed window, and checks every output
// against a reference built by direct library calls.
//
//  migrate_large  closed loop, 2 tenants, unique 1600-component Migrates:
//                 schematic migrate + verify do nearly all the work.
//  service_mix    open loop, one Poisson dispatcher over 8 tenants, a mix
//                 of Ping / Netlist / small Migrate / warm FlowRun at about
//                 half the saturation rate: wire, admission, queue wait and
//                 cache hits.
//  flow_durable   width-256 FlowRuns on a store-backed service on one CPU,
//                 2 tenants: a closed-loop reader of stored seeds (all
//                 cache hits) beside a writer of fresh seeds (258 fsynced
//                 appends each) paced to one a second: runtime and store.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <iostream>
#include <mutex>
#include <stdexcept>
#include <thread>

#include <sched.h>

#include "base/rng.hpp"
#include "bench.hpp"
#include "obs/metrics.hpp"
#include "runtime/hash.hpp"
#include "schematic/generator.hpp"
#include "schematic/textio.hpp"

namespace interop::bench {

using service::InteropService;
using service::MsgType;
using service::Request;
using service::Response;
using service::Status;

namespace {

constexpr int kSetupReps = 41;
/// Closed loops run this long, but at most a quarter of the timed window,
/// before the timed window: the answers are checked, their latencies are
/// not kept.
constexpr double kWarmupSeconds = 2.0;
double warmup_s(double seconds) {
  return std::min(kWarmupSeconds, seconds / 4);
}
constexpr unsigned kHelperThreads = 4;  ///< reference building, off the clock

// migrate_large
constexpr int kLargeTenants = 2;
constexpr int kLargeSheets = 8;
constexpr int kLargeComponentsPerSheet = 200;
/// One two-pin net per two components: the wiring density at which rip-up
/// dominates migration.
constexpr int kLargeNetsPerSheet = 100;
constexpr std::size_t kLargePrefetch = 8;
constexpr std::size_t kLargeReplay = 3;

// service_mix
constexpr int kMixTenants = 8;
/// Arrival rate, about half the closed-loop saturation rate of this mix
/// (`run.py --saturate`) on a 4-CPU x86-64 host.
constexpr double kMixRate = 600;
constexpr double kSharePing = 0.10, kShareNetlist = 0.45,
                 kShareMigrate = 0.25;  // FlowRun takes the rest (0.20)
constexpr int kMixNetlistDesigns = 16;  ///< 24..200 components
constexpr int kMixMigratePool = 8;      ///< repeated 24-component designs
constexpr double kMixMigrateRepeat = 0.5;
constexpr int kMixFlowSeeds = 16;
constexpr std::uint32_t kMixFlowWidth = 8;
/// The run is invalid when the dispatcher sends more than 1% of requests
/// later than this after their due time. Waking from a sleep on a 4-vCPU
/// virtual machine alone is late by up to a few ms at p99.
constexpr double kMaxLagP99Ms = 10.0;
constexpr std::size_t kMixReplay = 48;

// flow_durable
constexpr int kDurableTenants = 2;
constexpr int kDurableWriter = 1;  ///< tenant 0 reads, tenant 1 writes
/// The widest fanout the service accepts. A warm run's 258 cache hits
/// outweigh the executor's per-request thread start-up and hand-offs; at
/// width 32 those took most of a 0.7 ms read, and the reads' latency
/// followed the host's scheduling more than the runtime.
constexpr std::uint32_t kDurableWidth = 256;
constexpr int kDurableWarmSeeds = 32;
/// The writer sends one cold request per period, or back to back while a
/// write takes longer. Paced, not closed-loop: a write is 258 fsyncs
/// (about 40 ms), whose cost follows the host disk's load (34 fsyncs took
/// 9 ms in one run and 36 ms at p90 in another minutes later). A write
/// four times slower still fits the period, so every run stores the same
/// number of results, and at most a sixth of the reads overlap a write.
constexpr auto kDurableWritePeriod = std::chrono::milliseconds(1000);
constexpr int kDurableDigestItems = 256;

std::uint64_t mix64(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a * 0x9e3779b97f4a7c15ULL + b + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Incremental FNV-1a over the inputs a run sends.
class Digest {
 public:
  void add(std::string_view s) {
    for (unsigned char c : s) h_ = (h_ ^ c) * 0x100000001b3ULL;
    h_ = (h_ ^ 0xff) * 0x100000001b3ULL;  // field separator
  }
  void add(std::uint64_t v) { add(std::to_string(v)); }
  std::string hex() const { return runtime::to_hex(h_); }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Run fn(i) for i in [0, n) on a few helper threads.
template <typename Fn>
void parallel_for(std::size_t n, Fn fn) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kHelperThreads; ++t)
    threads.emplace_back([&] {
      for (std::size_t i = next++; i < n; i = next++) fn(i);
    });
  for (std::thread& th : threads) th.join();
}

std::string design_text(const sch::GeneratorOptions& opt) {
  return sch::write_design(sch::make_exar_scenario(opt).source);
}

std::string large_design(std::uint64_t seed, std::uint64_t index) {
  sch::GeneratorOptions opt;
  opt.seed = mix64(seed, index);
  opt.sheets = kLargeSheets;
  opt.components_per_sheet = kLargeComponentsPerSheet;
  opt.nets_per_sheet = kLargeNetsPerSheet;
  return design_text(opt);
}

Request migrate_request(std::uint64_t id, std::string tenant,
                        std::string design) {
  Request req;
  req.id = id;
  req.type = MsgType::Migrate;
  req.tenant = std::move(tenant);
  req.design = std::move(design);
  return req;
}

Request flow_request(std::uint64_t id, std::string tenant,
                     std::uint32_t width, std::uint64_t seed) {
  Request req;
  req.id = id;
  req.type = MsgType::FlowRun;
  req.tenant = std::move(tenant);
  req.flow = "fanout";
  req.width = width;
  req.latency_us = 0;
  req.seed = seed;
  return req;
}

FlowSample flow_sample(const Response& resp, bool timed, bool cold) {
  return {timed, cold, resp.counter("wall_us"), resp.counter("executed"),
          resp.counter("cache_hits"), resp.counter("steps")};
}

/// Sort one response into the run's outcome counters.
/// A request sent before the timed window (at_s < 0, closed-loop warm-up)
/// is checked and counted, but its latency is not kept.
void tally(RunResult& run, Status status, bool correct, double at_s,
           double latency_us, MsgType type) {
  ++run.attempted;
  if (status == Status::Rejected)
    ++run.rejected;
  else if (status != Status::Ok)
    ++run.errors;
  else if (!correct)
    ++run.wrong;
  else if (at_s >= 0)
    run.latencies.push_back({at_s, latency_us, type});
}

/// Cumulative scheduler and store counts, read before and after the timed
/// window so that the run reports only what the window did.
struct LayerCounters {
  std::int64_t steals = 0, fastpath = 0;
  std::uint64_t appends = 0, dedup_hits = 0;
  static LayerCounters now(InteropService& svc) {
    obs::Metrics& m = obs::Metrics::global();
    LayerCounters c{m.counter("sched.steal").value(),
                    m.counter("sched.fastpath").value(), 0, 0};
    if (store::PersistentResultCache* pc = svc.persistent_cache()) {
      store::ObjectStore::Stats s = pc->object_store().stats();
      c.appends = s.appends;
      c.dedup_hits = s.dedup_hits;
    }
    return c;
  }
};

void record_layer_counts(RunResult& run, InteropService& svc,
                         const LayerCounters& before) {
  LayerCounters after = LayerCounters::now(svc);
  run.sched_steals = std::uint64_t(after.steals - before.steals);
  run.sched_fastpath = std::uint64_t(after.fastpath - before.fastpath);
  run.store_appends = after.appends - before.appends;
  run.store_dedup_hits = after.dedup_hits - before.dedup_hits;
  run.service_rejected =
      std::uint64_t(svc.metrics().counter("service.rejected").value());
  if (store::PersistentResultCache* pc = svc.persistent_cache())
    run.store_recovered = pc->object_store().stats().recovered_records;
}

// ------------------------------------------------------------ migrate_large

/// Produces the unique large designs in index order, a few ahead of the
/// tenants, on its own thread so generation stays off the request clock.
class DesignFeed {
 public:
  explicit DesignFeed(std::uint64_t seed)
      : seed_(seed), thread_([this] { produce(); }) {}
  ~DesignFeed() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  DesignFeed(const DesignFeed&) = delete;
  DesignFeed& operator=(const DesignFeed&) = delete;

  void wait_full() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return ready_.size() >= kLargePrefetch; });
  }
  std::pair<std::uint64_t, std::string> pop() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return !ready_.empty(); });
    auto item = std::move(ready_.front());
    ready_.pop_front();
    cv_.notify_all();
    return item;
  }

 private:
  void produce() {
    for (std::uint64_t i = 0;; ++i) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock,
                 [this] { return stop_ || ready_.size() < kLargePrefetch; });
        if (stop_) return;
      }
      std::string text = large_design(seed_, i);
      std::lock_guard<std::mutex> lock(mu_);
      ready_.emplace_back(i, std::move(text));
      cv_.notify_all();
    }
  }

  std::uint64_t seed_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::pair<std::uint64_t, std::string>> ready_;
  bool stop_ = false;
  std::thread thread_;  ///< last: starts after the members it uses
};

RunResult run_migrate_large(std::uint64_t seed, double seconds) {
  RunResult run;
  Digest digest;
  for (std::uint64_t i = 0; i < kLargePrefetch; ++i)
    digest.add(runtime::fnv1a(large_design(seed, i)));
  run.digest = digest.hex();
  for (std::uint64_t i = 0; i < kLargeReplay; ++i)
    run.replay.push_back(
        migrate_request(kReplayIdBase + i, "replay", large_design(seed, i)));

  reset_peak_rss();
  run.setup_s = measure_setup_s({}, kSetupReps);

  struct Sent {
    std::uint64_t index = 0;
    Response resp;  ///< body dropped on receipt, hashed into body_hash
    std::uint64_t body_hash = 0;
    double at_s = 0, latency_us = 0;
  };
  std::vector<std::vector<Sent>> per_tenant(kLargeTenants);
  std::vector<std::uint64_t> bytes(kLargeTenants, 0);
  InteropService svc(service_options());
  LayerCounters before = LayerCounters::now(svc);
  {
    DesignFeed feed(seed);
    feed.wait_full();
    Clock::time_point start =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(warmup_s(seconds)));
    Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    std::vector<std::thread> tenants;
    for (int t = 0; t < kLargeTenants; ++t)
      tenants.emplace_back([&, t] {
        Session session(svc);
        while (Clock::now() < deadline) {
          auto [index, text] = feed.pop();
          std::uint64_t id_base =
              Clock::now() < start ? kWarmupIdBase : kTimedIdBase;
          Request req = migrate_request(id_base + index,
                                        "tenant-" + std::to_string(t),
                                        std::move(text));
          std::size_t frame_bytes = 0;
          Clock::time_point t0 = Clock::now();
          Response resp = session.call(req, &frame_bytes);
          double latency_us = since_us(t0);
          std::uint64_t body_hash = runtime::fnv1a(resp.body);
          std::string().swap(resp.body);  // release the capacity too
          per_tenant[std::size_t(t)].push_back(
              {index, std::move(resp), body_hash,
               std::chrono::duration<double>(t0 - start).count(),
               latency_us});
          bytes[std::size_t(t)] += frame_bytes;
        }
      });
    for (std::thread& th : tenants) th.join();
    run.elapsed_s = since_us(start) / 1e6;
  }
  run.peak_rss_mb = peak_rss_mb();
  record_layer_counts(run, svc, before);

  // Check every answer against a direct migrate-and-write of its input.
  std::vector<Sent> sent;
  for (int t = 0; t < kLargeTenants; ++t) {
    run.frame_bytes += bytes[std::size_t(t)];
    for (Sent& s : per_tenant[std::size_t(t)]) sent.push_back(std::move(s));
  }
  std::vector<char> correct(sent.size(), 0);
  parallel_for(sent.size(), [&](std::size_t i) {
    correct[i] = check_migrate(
        sent[i].resp, sent[i].body_hash,
        migrate_reference(large_design(seed, sent[i].index)));
  });
  for (std::size_t i = 0; i < sent.size(); ++i)
    tally(run, sent[i].resp.status, correct[i], sent[i].at_s,
          sent[i].latency_us, MsgType::Migrate);
  return run;
}

// -------------------------------------------------------------- service_mix

struct MixItem {
  double due_us = 0;
  MsgType type = MsgType::Ping;
  int tenant = 0;
  std::size_t design = 0;  ///< index into MixPlan::designs
  std::string dialect;     ///< Netlist
  std::uint64_t flow_seed = 0;
  Expect want;
};

struct MixPlan {
  std::vector<std::string> designs;
  std::vector<MixItem> items;
  std::vector<std::uint64_t> flow_seeds;
  std::string digest;
};

/// The seeded arrival schedule and its inputs. Netlist designs span 24..200
/// components so netlist latencies form a continuum and no reported
/// percentile sits on a gap between request kinds.
MixPlan make_mix_plan(std::uint64_t seed, double seconds) {
  MixPlan plan;
  for (int i = 0; i < kMixNetlistDesigns; ++i) {
    sch::GeneratorOptions opt;
    opt.seed = mix64(seed, 0x4e00 + std::uint64_t(i));
    opt.sheets = 1;
    opt.components_per_sheet = 24 + i * (200 - 24) / (kMixNetlistDesigns - 1);
    plan.designs.push_back(design_text(opt));
  }
  auto small_design = [&](std::uint64_t key) {
    sch::GeneratorOptions opt;  // 2 sheets x 12 = 24 components
    opt.seed = mix64(seed, key);
    return design_text(opt);
  };
  for (int i = 0; i < kMixMigratePool; ++i)
    plan.designs.push_back(small_design(0x5000 + std::uint64_t(i)));
  for (int i = 0; i < kMixFlowSeeds; ++i)
    plan.flow_seeds.push_back(mix64(seed, 0xf100 + std::uint64_t(i)));

  base::Rng rng(mix64(seed, 0x5eed));
  std::uint64_t unique_migrates = 0;
  for (double t = 0;;) {
    t += -std::log(1.0 - rng.uniform01()) * 1e6 / kMixRate;
    if (t >= seconds * 1e6) break;
    MixItem item;
    item.due_us = t;
    item.tenant = int(rng.index(kMixTenants));
    double kind = rng.uniform01();
    if (kind < kSharePing) {
      item.type = MsgType::Ping;
    } else if (kind < kSharePing + kShareNetlist) {
      item.type = MsgType::Netlist;
      item.design = rng.index(kMixNetlistDesigns);
      item.dialect = rng.chance(0.5) ? "viewlogic" : "composer";
    } else if (kind < kSharePing + kShareNetlist + kShareMigrate) {
      item.type = MsgType::Migrate;
      if (rng.chance(kMixMigrateRepeat)) {
        item.design = kMixNetlistDesigns + rng.index(kMixMigratePool);
      } else {
        item.design = plan.designs.size();
        plan.designs.push_back(small_design(0x10000 + unique_migrates++));
      }
    } else {
      item.type = MsgType::FlowRun;
      item.flow_seed = plan.flow_seeds[rng.index(kMixFlowSeeds)];
    }
    plan.items.push_back(std::move(item));
  }

  // References, by direct library calls.
  std::map<std::pair<std::size_t, std::string>, Expect> netlists;
  for (int i = 0; i < kMixNetlistDesigns; ++i)
    for (const char* dialect : {"viewlogic", "composer"})
      netlists[{std::size_t(i), dialect}] =
          netlist_reference(plan.designs[std::size_t(i)], "top", dialect);
  std::vector<std::uint64_t> migrated(plan.designs.size(), 0);
  std::size_t first_migrate = kMixNetlistDesigns;
  parallel_for(plan.designs.size() - first_migrate, [&](std::size_t i) {
    migrated[first_migrate + i] =
        migrate_reference(plan.designs[first_migrate + i]);
  });

  Digest digest;
  for (MixItem& item : plan.items) {
    item.want.type = item.type;
    if (item.type == MsgType::Netlist)
      item.want = netlists.at({item.design, item.dialect});
    if (item.type == MsgType::Migrate)
      item.want.body_hash = migrated[item.design];
    item.want.warm = item.type == MsgType::FlowRun;
    digest.add(std::uint64_t(item.due_us * 1000));
    digest.add(std::uint64_t(item.type));
    digest.add(std::uint64_t(item.tenant));
    if (item.type == MsgType::Netlist || item.type == MsgType::Migrate)
      digest.add(runtime::fnv1a(plan.designs[item.design]));
    digest.add(item.dialect);
    digest.add(item.flow_seed);
  }
  plan.digest = digest.hex();
  return plan;
}

Request mix_request(const MixPlan& plan, const MixItem& item,
                    std::uint64_t id) {
  Request req;
  req.id = id;
  req.type = item.type;
  req.tenant = "tenant-" + std::to_string(item.tenant);
  if (item.type == MsgType::Netlist || item.type == MsgType::Migrate)
    req.design = plan.designs[item.design];
  if (item.type == MsgType::Netlist) {
    req.cell = "top";
    req.dialect = item.dialect;
  }
  if (item.type == MsgType::FlowRun)
    req = flow_request(id, req.tenant, kMixFlowWidth, item.flow_seed);
  return req;
}

/// Untimed warm-up: every flow seed once (filling the cache the timed
/// FlowRuns hit), plus the schedule's first eight other requests.
void warm_mix(InteropService& svc, const MixPlan& plan, RunResult& run) {
  Session session(svc);
  std::uint64_t id = kUntimedIdBase + 1000;
  for (std::uint64_t seed : plan.flow_seeds) {
    Response resp =
        session.call(flow_request(id++, "warmup", kMixFlowWidth, seed));
    Expect want;
    want.type = MsgType::FlowRun;
    if (!check_response(resp, want))
      throw std::runtime_error("warm-up flow failed: " + resp.error);
    run.flows.push_back(flow_sample(resp, /*timed=*/false, /*cold=*/true));
  }
  int others = 0;
  for (const MixItem& item : plan.items) {
    if (item.type == MsgType::FlowRun) continue;
    if (others++ == 8) break;
    Response resp = session.call(mix_request(plan, item, id++));
    if (!check_response(resp, item.want))
      throw std::runtime_error("warm-up request failed: " + resp.error);
  }
}

RunResult run_service_mix(std::uint64_t seed, double seconds) {
  RunResult run;
  MixPlan plan = make_mix_plan(seed, seconds);
  run.digest = plan.digest;
  for (std::size_t i = 0;
       i < plan.items.size() && run.replay.size() < kMixReplay; ++i) {
    const MixItem& item = plan.items[i];
    if (item.type == MsgType::Netlist || item.type == MsgType::Migrate)
      run.replay.push_back(
          mix_request(plan, item, kReplayIdBase + run.replay.size()));
  }

  reset_peak_rss();
  run.setup_s = measure_setup_s({}, kSetupReps);

  InteropService svc(service_options());
  warm_mix(svc, plan, run);
  LayerCounters before = LayerCounters::now(svc);

  // The dispatcher sends each request when it is due and, in the daemon's
  // session role, decodes and submits it. The client's receive leg runs in
  // the completion callback, so no thread hand-off adds to the latency.
  // The receive leg also checks the answer, so only its outcome is kept.
  struct Outcome {
    Status status = Status::Ok;
    bool correct = false;
    double latency_us = 0;
    std::size_t bytes = 0;
    FlowSample flow;
  };
  const std::size_t n = plan.items.size();
  std::vector<double> lag_ms(n, 0);
  std::vector<Outcome> outcomes(n);
  std::uint64_t sent_bytes = 0;
  Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  std::mutex mu;
  std::condition_variable all_done;
  std::size_t done = 0;
  double last_done_us = 0;

  Session session(svc);
  for (std::size_t i = 0; i < n; ++i) {
    Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::micro>(
                        plan.items[i].due_us));
    std::this_thread::sleep_until(due);
    lag_ms[i] =
        std::chrono::duration<double, std::milli>(Clock::now() - due).count();
    std::string frame =
        encode_frame(mix_request(plan, plan.items[i], kTimedIdBase + i));
    sent_bytes += frame.size();
    session.serve(frame, [&, i](std::string out) {
      Response resp = decode_frame(out, kTimedIdBase + i);
      double now_us =
          std::chrono::duration<double, std::micro>(Clock::now() - start)
              .count();
      Outcome& o = outcomes[i];
      o.status = resp.status;
      o.correct = check_response(resp, plan.items[i].want);
      o.latency_us = now_us - plan.items[i].due_us;
      o.bytes = out.size();
      if (plan.items[i].type == MsgType::FlowRun)
        o.flow = flow_sample(resp, /*timed=*/true, /*cold=*/false);
      std::lock_guard<std::mutex> lock(mu);
      last_done_us = std::max(last_done_us, now_us);
      if (++done == n) all_done.notify_one();
    });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    all_done.wait(lock, [&] { return done == n; });
  }
  run.peak_rss_mb = peak_rss_mb();
  run.elapsed_s = last_done_us / 1e6;
  run.frame_bytes = sent_bytes;
  record_layer_counts(run, svc, before);

  for (std::size_t i = 0; i < n; ++i) {
    const Outcome& o = outcomes[i];
    run.frame_bytes += o.bytes;
    tally(run, o.status, o.correct, plan.items[i].due_us / 1e6, o.latency_us,
          plan.items[i].type);
    if (plan.items[i].type == MsgType::FlowRun && o.status == Status::Ok)
      run.flows.push_back(o.flow);
  }
  run.generator_lag_p99_ms = percentile(lag_ms, 0.99);
  run.generator_lag_max_ms = percentile(lag_ms, 1.0);
  if (run.generator_lag_p99_ms > kMaxLagP99Ms)
    run.invalid = "dispatcher fell behind its schedule (lag p99 " +
                  std::to_string(run.generator_lag_p99_ms) + " ms)";
  return run;
}

// ------------------------------------------------------------- flow_durable

/// Confines the calling thread, and every thread it starts while this
/// lives, to the highest-numbered CPU it may run on. A warm FlowRun is a
/// chain of hand-offs between the service worker and the executor's two
/// workers; spread over the vCPUs of a shared virtual machine, each
/// hand-off waits for a vCPU the host may have descheduled, and the reads'
/// latency followed the host's load (over ten seeds in one busy period
/// throughput spread by 27%, p50 by 23% and p90 by 45%, where
/// migrate_large spread by 11% or less). On one CPU a hand-off is a local
/// context switch.
class OneCpu {
 public:
  OneCpu() {
    if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0)
      throw std::runtime_error("sched_getaffinity failed");
    int cpu = -1;
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &saved_)) cpu = c;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof(one), &one) != 0)
      throw std::runtime_error("sched_setaffinity failed");
    std::cout << "flow_durable: pinned to cpu " << cpu << " of "
              << CPU_COUNT(&saved_) << "\n";
  }
  ~OneCpu() { sched_setaffinity(0, sizeof(saved_), &saved_); }
  OneCpu(const OneCpu&) = delete;
  OneCpu& operator=(const OneCpu&) = delete;

 private:
  cpu_set_t saved_;
};

/// Tenant `t`'s k-th request: the writer's are fresh seeds (cold: each
/// executes and appends every step), the reader's pick a stored seed.
class DurablePlan {
 public:
  DurablePlan(std::uint64_t seed, int tenant)
      : seed_(seed), tenant_(tenant), rng_(mix64(seed, 0xd0 + tenant)) {}

  static std::vector<std::uint64_t> warm_seeds(std::uint64_t seed) {
    std::vector<std::uint64_t> seeds;
    for (int i = 0; i < kDurableWarmSeeds; ++i)
      seeds.push_back(mix64(seed, 0xa000 + std::uint64_t(i)));
    return seeds;
  }

  bool writes() const { return tenant_ == kDurableWriter; }

  /// (cold, flow seed) of the next request.
  std::pair<bool, std::uint64_t> next(const std::vector<std::uint64_t>& warm) {
    std::uint64_t k = k_++;
    if (writes())
      return {true, mix64(seed_, (std::uint64_t(tenant_ + 1) << 40) | k)};
    return {false, warm[rng_.index(warm.size())]};
  }

 private:
  std::uint64_t seed_;
  int tenant_;
  base::Rng rng_;
  std::uint64_t k_ = 0;
};

RunResult run_flow_durable(std::uint64_t seed, double seconds,
                           const std::string& work_dir) {
  RunResult run;
  const std::vector<std::uint64_t> warm = DurablePlan::warm_seeds(seed);
  Digest digest;
  for (int t = 0; t < kDurableTenants; ++t) {
    DurablePlan plan(seed, t);
    for (int k = 0; k < kDurableDigestItems; ++k) {
      auto [cold, flow_seed] = plan.next(warm);
      digest.add(std::uint64_t(cold));
      digest.add(flow_seed);
    }
  }
  run.digest = digest.hex();

  // Untimed preparation: a fresh store holding every warm seed, closed
  // again so that set-up includes its recovery.
  const std::string dir = work_dir + "/store";
  std::filesystem::remove_all(dir);
  {
    InteropService svc(service_options(dir));
    if (!svc.persistent_cache())
      throw std::runtime_error("store did not open: " + svc.store_error());
    Session session(svc);
    std::uint64_t id = kUntimedIdBase + 1000;
    for (std::uint64_t s : warm) {
      Response resp =
          session.call(flow_request(id++, "prepare", kDurableWidth, s));
      Expect want;
      want.type = MsgType::FlowRun;
      if (!check_response(resp, want))
        throw std::runtime_error("store preparation failed: " + resp.error);
    }
  }

  OneCpu pinned;
  reset_peak_rss();
  run.setup_s = measure_setup_s(dir, kSetupReps);
  {
    // The store layer's own open + recovery, as the service constructor
    // runs it, timed apart from the rest of set-up.
    obs::Span span("store", "open");
    Clock::time_point t0 = Clock::now();
    store::PersistentResultCache cache(0, service_options().cache_shards);
    if (!cache.open(dir))
      throw std::runtime_error("store did not open: " +
                               cache.object_store().error());
    run.store_open_ms = since_us(t0) / 1e3;
  }

  // Each answer is checked on receipt and reduced to what the run reports,
  // so the benchmark's own memory does not grow with the request count.
  struct Sent {
    Status status = Status::Ok;
    bool correct = false;
    FlowSample flow;
    double at_s = 0, latency_us = 0;
  };
  std::vector<std::vector<Sent>> per_tenant(kDurableTenants);
  std::vector<std::uint64_t> bytes(kDurableTenants, 0);
  std::vector<DurablePlan> plans;
  for (int t = 0; t < kDurableTenants; ++t) plans.emplace_back(seed, t);
  InteropService svc(service_options(dir));
  if (!svc.persistent_cache())
    throw std::runtime_error("store did not open: " + svc.store_error());

  // One phase of both tenants; each continues its own plan.
  auto phase = [&](double phase_s, bool timed) {
    Clock::time_point start = Clock::now();
    Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(phase_s));
    std::vector<std::thread> tenants;
    for (int t = 0; t < kDurableTenants; ++t)
      tenants.emplace_back([&, t] {
        Session session(svc);
        DurablePlan& plan = plans[std::size_t(t)];
        std::uint64_t id = (timed ? kTimedIdBase : kWarmupIdBase) +
                           (std::uint64_t(t) << 28) +
                           per_tenant[std::size_t(t)].size();
        Clock::time_point next_write = start;
        while (Clock::now() < deadline) {
          if (plan.writes()) {
            std::this_thread::sleep_until(std::min(next_write, deadline));
            if (Clock::now() >= deadline) break;
            next_write = std::max(next_write + kDurableWritePeriod,
                                  Clock::now());
          }
          auto [cold, flow_seed] = plan.next(warm);
          std::size_t frame_bytes = 0;
          Clock::time_point t0 = Clock::now();
          Response resp = session.call(
              flow_request(id++, "tenant-" + std::to_string(t),
                           kDurableWidth, flow_seed),
              &frame_bytes);
          double latency_us = since_us(t0);
          Expect want;
          want.type = MsgType::FlowRun;
          want.warm = !cold;
          per_tenant[std::size_t(t)].push_back(
              {resp.status, check_response(resp, want),
               flow_sample(resp, timed, cold),
               timed ? std::chrono::duration<double>(t0 - start).count() : -1,
               latency_us});
          bytes[std::size_t(t)] += frame_bytes;
        }
      });
    for (std::thread& th : tenants) th.join();
    return since_us(start) / 1e6;
  };
  phase(warmup_s(seconds), /*timed=*/false);
  LayerCounters before = LayerCounters::now(svc);
  run.elapsed_s = phase(seconds, /*timed=*/true);
  run.peak_rss_mb = peak_rss_mb();
  record_layer_counts(run, svc, before);

  for (int t = 0; t < kDurableTenants; ++t) {
    run.frame_bytes += bytes[std::size_t(t)];
    for (const Sent& s : per_tenant[std::size_t(t)]) {
      tally(run, s.status, s.correct, s.at_s, s.latency_us, MsgType::FlowRun);
      if (s.status == Status::Ok) run.flows.push_back(s.flow);
    }
  }
  return run;
}

}  // namespace

RunResult run_workload(const std::string& workload, std::uint64_t seed,
                       double seconds, const std::string& work_dir) {
  RunResult run;
  if (workload == "migrate_large")
    run = run_migrate_large(seed, seconds);
  else if (workload == "service_mix")
    run = run_service_mix(seed, seconds);
  else if (workload == "flow_durable")
    run = run_flow_durable(seed, seconds, work_dir);
  else
    throw std::runtime_error("unknown workload: " + workload);
  run.window_s = seconds;
  return run;
}

double measure_mix_saturation(std::uint64_t seed, double seconds) {
  // Four times the paced plan: closed-loop clients run well past the rate.
  MixPlan plan = make_mix_plan(seed, 4 * seconds);
  InteropService svc(service_options());
  RunResult scratch;
  warm_mix(svc, plan, scratch);
  std::atomic<std::size_t> next{0};
  std::atomic<std::uint64_t> done{0};
  Clock::time_point start = Clock::now();
  Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c)
    clients.emplace_back([&] {
      Session session(svc);
      for (std::size_t i = next++; i < plan.items.size() &&
                                   Clock::now() < deadline;
           i = next++) {
        Response resp =
            session.call(mix_request(plan, plan.items[i], kTimedIdBase + i));
        if (check_response(resp, plan.items[i].want)) ++done;
      }
    });
  for (std::thread& th : clients) th.join();
  return double(done.load()) / (since_us(start) / 1e6);
}

}  // namespace interop::bench

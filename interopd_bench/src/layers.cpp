// The traced run's per-layer numbers. Two sources, both from the trace:
//  - the service's own request spans and the executor's spans, plus the
//    benchmark's wire spans, recorded during the traced timed window;
//  - a replay of the run's Migrate/Netlist inputs through each public layer
//    call (wire decode, sch::read_design, sch::migrate_design,
//    sch::verify_migration or sch::extract_netlist, sch::write_design, wire
//    encode), each under a benchmark span inside one root span per request.
// A layer's self time is its span's duration minus its child spans; the
// root's self time is the request time no layer span covers.

#include <iomanip>
#include <iostream>
#include <optional>
#include <set>
#include <stdexcept>

#include "bench.hpp"
#include "schematic/dialect.hpp"
#include "schematic/migrate.hpp"
#include "schematic/textio.hpp"

namespace interop::bench {

using service::MsgType;
using service::Request;
using service::Response;

namespace {

struct ReplayCounts {
  std::uint64_t migrates = 0;
  std::uint64_t replaced = 0, fullnet_would_rip = 0, diffs = 0,
                callbacks_run = 0;
};

/// One input through the layers the service would run it through, each
/// call under its own span.
void replay_one(const Request& req, ReplayCounts& counts) {
  std::string frame = service::encode_request(req);
  std::string args = "\"id\":" + std::to_string(req.id);
  obs::Span root("bench", "replay:" + service::to_string(req.type), args);

  Request decoded;
  {
    obs::Span span("wire", "decode_request", args);
    service::FrameReader reader;
    reader.feed(frame);
    std::string payload, error;
    if (reader.next(&payload, &error) != service::FrameReader::Result::Frame ||
        !service::decode_request(payload, &decoded, &error))
      throw std::runtime_error("replay decode: " + error);
  }
  base::DiagnosticEngine diags;
  std::optional<sch::Design> src;
  {
    obs::Span span("schematic", "read", args);
    src.emplace(sch::read_design(decoded.design, diags));
  }
  Response resp;
  resp.id = decoded.id;
  if (decoded.type == MsgType::Migrate) {
    std::optional<sch::MigrationResult> result;
    {
      obs::Span span("schematic", "migrate", args);
      result.emplace(sch::migrate_design(*src, migration_config(), diags));
    }
    std::vector<sch::NetlistDiff> diffs;
    {
      obs::Span span("schematic", "verify", args);
      base::DiagnosticEngine verify_diags;
      diffs = sch::verify_migration(*src, result->design, migration_config(),
                                    verify_diags);
    }
    {
      obs::Span span("schematic", "write", args);
      resp.body = sch::write_design(result->design);
    }
    const sch::MigrationReport& r = result->report;
    ++counts.migrates;
    counts.replaced += r.ripup.instances_replaced;
    counts.fullnet_would_rip += r.ripup.fullnet_would_rip;
    counts.diffs += diffs.size();
    counts.callbacks_run += r.props.callbacks_run;
    resp.counters = {{"diffs", diffs.size()}};
  } else {
    obs::Span span("schematic", "netlist", args);
    const sch::Schematic* schematic = src->find_schematic(decoded.cell);
    if (!schematic) throw std::runtime_error("replay: no cell");
    sch::Netlist netlist = sch::extract_netlist(
        *src, *schematic,
        decoded.dialect == "composer" ? sch::composer_dialect()
                                      : sch::viewlogic_dialect(),
        diags);
    resp.counters = {{"nets", netlist.nets.size()}};
  }
  obs::Span span("wire", "encode_response", args);
  frame = service::encode_response(resp);
}

/// A closed span, rebuilt from its Begin/End pair.
struct SpanRec {
  std::string cat, name;
  std::uint64_t id = 0;  ///< request id from its args, 0 when none
  double begin_us = 0, dur_us = 0, self_us = 0;
};

std::uint64_t request_id(const std::string& args) {
  std::size_t at = args.find("\"id\":");
  if (at == std::string::npos) return 0;
  return std::strtoull(args.c_str() + at + 5, nullptr, 10);
}

/// Pair Begin/End per thread (the obs layer nests them per thread) and
/// compute each span's self time.
std::vector<SpanRec> rebuild_spans(const std::vector<obs::TraceEvent>& events,
                                   std::map<std::uint64_t, double>* submits) {
  struct Open {
    SpanRec rec;
    double child_us = 0;
  };
  std::map<std::uint32_t, std::vector<Open>> stacks;
  std::vector<SpanRec> spans;
  for (const obs::TraceEvent& e : events) {
    if (e.kind == obs::EventKind::Instant && e.cat == "bench" &&
        e.name == "submit") {
      (*submits)[request_id(e.args)] = double(e.ts_us);
    } else if (e.kind == obs::EventKind::Begin) {
      Open open;
      open.rec.cat = e.cat;
      open.rec.name = e.name;
      open.rec.id = request_id(e.args);
      open.rec.begin_us = double(e.ts_us);
      stacks[e.tid].push_back(std::move(open));
    } else if (e.kind == obs::EventKind::End) {
      std::vector<Open>& stack = stacks[e.tid];
      if (stack.empty() || stack.back().rec.name != e.name)
        throw std::runtime_error("unbalanced span " + e.cat + "/" + e.name);
      Open open = std::move(stack.back());
      stack.pop_back();
      if (open.rec.id == 0) open.rec.id = request_id(e.args);
      open.rec.dur_us = double(e.ts_us) - open.rec.begin_us;
      open.rec.self_us = open.rec.dur_us - open.child_us;
      if (!stack.empty()) stack.back().child_us += open.rec.dur_us;
      spans.push_back(std::move(open.rec));
    }
  }
  return spans;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / double(v.size());
}

void print_table(const std::string& title,
                 const std::vector<std::pair<std::string, double>>& rows,
                 const std::string& unit) {
  double total = 0;
  for (const auto& [layer, us] : rows) total += us;
  std::ios saved(nullptr);
  saved.copyfmt(std::cout);
  std::cout << title << "\n";
  std::cout << "  " << std::left << std::setw(28) << "layer" << std::right
            << std::setw(14) << unit << std::setw(9) << "share" << "\n";
  for (const auto& [layer, us] : rows)
    std::cout << "  " << std::left << std::setw(28) << layer << std::right
              << std::setw(14) << std::fixed << std::setprecision(1) << us
              << std::setw(8) << std::setprecision(1)
              << (total > 0 ? 100.0 * us / total : 0.0) << "%\n";
  std::cout.copyfmt(saved);
}

}  // namespace

LayerMetrics analyse_traced_run(obs::TraceSession& session,
                                const RunResult& run) {
  ReplayCounts counts;
  for (const Request& req : run.replay) replay_one(req, counts);

  std::map<std::uint64_t, double> submits;
  std::vector<SpanRec> spans = rebuild_spans(session.flush(), &submits);

  auto timed = [](std::uint64_t id) {
    return id >= kTimedIdBase && id < kReplayIdBase;
  };
  auto replayed = [](std::uint64_t id) { return id >= kReplayIdBase; };

  // --- the traced timed window: self time by layer, wire, service ---------
  std::map<std::string, double> self_by_cat;
  std::set<std::uint64_t> timed_ids;
  double encode_us = 0, decode_us = 0;
  std::vector<double> queue_wait, handle;
  for (const SpanRec& s : spans) {
    if (replayed(s.id)) continue;
    self_by_cat[s.cat] += s.self_us;
    if (!timed(s.id)) continue;
    if (s.cat == "wire") {
      timed_ids.insert(s.id);
      (s.name.rfind("encode", 0) == 0 ? encode_us : decode_us) += s.dur_us;
    } else if (s.cat == "service") {
      handle.push_back(s.dur_us);
      auto it = submits.find(s.id);
      if (it != submits.end()) queue_wait.push_back(s.begin_us - it->second);
    }
  }
  std::vector<std::pair<std::string, double>> rows(self_by_cat.begin(),
                                                   self_by_cat.end());
  print_table("self time by layer, traced run (all threads)", rows, "self_us");

  // --- the replay: per-request self time of each layer call ---------------
  std::map<std::string, std::vector<double>> per_layer;  // "cat.name" -> us
  std::map<std::string, std::map<std::string, double>> per_kind;
  std::map<std::string, int> kind_count;
  std::map<std::uint64_t, std::string> kind_of;
  for (const SpanRec& s : spans)
    if (replayed(s.id) && s.cat == "bench") {
      kind_of[s.id] = s.name.substr(s.name.find(':') + 1);
      ++kind_count[kind_of[s.id]];
    }
  std::vector<double> unexplained;
  for (const SpanRec& s : spans) {
    if (!replayed(s.id)) continue;
    const std::string& kind = kind_of[s.id];
    std::string layer = s.cat == "bench" ? "bench.unexplained"
                                         : s.cat + "." + s.name;
    per_kind[kind][layer] += s.self_us;
    if (s.cat == "bench")
      unexplained.push_back(s.self_us);
    else
      per_layer[layer].push_back(s.self_us);
  }
  for (const auto& [kind, layers] : per_kind) {
    std::vector<std::pair<std::string, double>> kind_rows;
    for (const auto& [layer, us] : layers)
      kind_rows.emplace_back(layer, us / kind_count[kind]);
    print_table("self time per replayed " + kind + " request (" +
                    std::to_string(kind_count[kind]) + " requests)",
                kind_rows, "us/request");
  }

  // --- runtime layer, from the FlowRun response counters -------------------
  std::vector<double> cold_us, warm_us;
  double executed = 0, hits = 0, steps = 0;
  std::uint64_t timed_flows = 0, cold_flows = 0;
  for (const FlowSample& f : run.flows) {
    (f.cold ? cold_us : warm_us).push_back(double(f.wall_us));
    if (!f.timed) continue;
    executed += double(f.executed);
    hits += double(f.cache_hits);
    steps += double(f.steps);
    ++timed_flows;
    if (f.cold) ++cold_flows;
  }
  auto per = [](double x, double n) { return n > 0 ? x / n : 0.0; };

  LayerMetrics m;
  double requests = double(timed_ids.size());
  m["wire.encode_us"] = {per(encode_us, requests), "us"};
  m["wire.decode_us"] = {per(decode_us, requests), "us"};
  m["wire.frame_bytes"] = {per(double(run.frame_bytes), double(run.attempted)),
                           "bytes"};
  m["service.queue_wait_us.p50"] = {percentile(queue_wait, 0.50), "us"};
  m["service.queue_wait_us.p99"] = {percentile(queue_wait, 0.99), "us"};
  m["service.handle_us"] = {mean(handle), "us"};
  m["service.rejected"] = {double(run.service_rejected), "count"};
  m["schematic.read_us"] = {mean(per_layer["schematic.read"]), "us"};
  m["schematic.migrate_us"] = {mean(per_layer["schematic.migrate"]), "us"};
  m["schematic.verify_us"] = {mean(per_layer["schematic.verify"]), "us"};
  m["schematic.netlist_us"] = {mean(per_layer["schematic.netlist"]), "us"};
  m["schematic.write_us"] = {mean(per_layer["schematic.write"]), "us"};
  double migrates = double(counts.migrates);
  m["schematic.ripup.replaced"] = {per(double(counts.replaced), migrates),
                                   "count/req"};
  m["schematic.ripup.fullnet_would_rip"] = {
      per(double(counts.fullnet_would_rip), migrates), "count/req"};
  m["schematic.verify.diffs"] = {double(counts.diffs), "count"};
  m["al.callbacks_run"] = {per(double(counts.callbacks_run), migrates),
                           "count/req"};
  m["runtime.run_us.cold"] = {percentile(cold_us, 0.5), "us"};
  m["runtime.run_us.warm"] = {percentile(warm_us, 0.5), "us"};
  m["runtime.executed"] = {per(executed, double(timed_flows)), "count/req"};
  m["runtime.cache_hit_ratio"] = {per(hits, steps), "ratio"};
  m["sched.steals"] = {per(double(run.sched_steals), double(timed_flows)),
                       "count/req"};
  m["sched.fastpath"] = {per(double(run.sched_fastpath), double(timed_flows)),
                         "count/req"};
  m["store.appends"] = {per(double(run.store_appends), double(cold_flows)),
                        "count/req"};
  m["store.dedup_hits"] = {
      per(double(run.store_dedup_hits), double(timed_flows)), "count/req"};
  m["store.recovered_records"] = {double(run.store_recovered), "count"};
  m["store.open_ms"] = {run.store_open_ms, "ms"};
  m["bench.unexplained_us"] = {mean(unexplained), "us"};
  m["bench.generator_lag_ms"] = {run.generator_lag_p99_ms, "ms"};
  return m;
}

}  // namespace interop::bench

#pragma once
// Shared declarations of the interopd benchmark: the client that drives an
// in-process InteropService through the real wire codec, the output checks,
// the three workloads, and the traced per-layer analysis.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "schematic/migrate.hpp"
#include "service/service.hpp"
#include "service/wire.hpp"

namespace interop::bench {

using Clock = std::chrono::steady_clock;

double since_us(Clock::time_point t0);

/// Request ids: the timed requests of a run, the untimed ones (set-up pings,
/// warm-up, store preparation), and the traced replay are told apart by id
/// range, so the trace analysis can select the timed requests. The
/// closed-loop warm-up before the timed window is untimed too.
inline constexpr std::uint64_t kUntimedIdBase = 1;
inline constexpr std::uint64_t kWarmupIdBase = 1ull << 31;
inline constexpr std::uint64_t kTimedIdBase = 1ull << 32;
inline constexpr std::uint64_t kReplayIdBase = 1ull << 40;

/// What a correct response to one request looks like. The reference is
/// computed by direct library calls, never by the service.
struct Expect {
  service::MsgType type = service::MsgType::Ping;
  std::uint64_t body_hash = 0;  ///< Migrate: fnv1a of the direct migrate+write
  std::uint64_t nets = 0, connections = 0, ports = 0;  ///< Netlist
  bool warm = false;  ///< FlowRun: every step must come from the cache
};

/// The migration the service runs, assembled the same way from the same
/// public tables: Viewlogic source, Composer target, standard maps.
const sch::MigrationConfig& migration_config();

/// Direct-library references.
std::uint64_t migrate_reference(const std::string& design_text);
Expect netlist_reference(const std::string& design_text,
                         const std::string& cell, const std::string& dialect);

/// True when `resp` is a correct answer to a request expecting `want`.
bool check_response(const service::Response& resp, const Expect& want);
/// The Migrate case of check_response for a response whose body the client
/// reduced to its fnv1a hash on receipt.
bool check_migrate(const service::Response& resp, std::uint64_t body_hash,
                   std::uint64_t want_hash);

/// The options every workload serves with (the service defaults: 4 workers).
service::ServiceOptions service_options(const std::string& store_dir = {});

/// The wire, both ends. A client encodes a request frame; the daemon-side
/// Session decodes it and submits it; the service worker encodes the
/// response frame (as the daemon writes it to its socket); the client
/// decodes it. Every codec call runs under a "wire" span when tracing is
/// armed.
std::string encode_frame(const service::Request& req);
service::Response decode_frame(const std::string& frame, std::uint64_t id);

class Session {
 public:
  using OnFrame = std::function<void(std::string response_frame)>;

  explicit Session(service::InteropService& svc) : svc_(svc) {}

  /// Decode `frame` and submit it; `on_frame` runs once with the response
  /// frame, on a service worker (or inline for a rejection or a frame that
  /// does not decode).
  void serve(const std::string& frame, OnFrame on_frame);
  /// Synchronous round trip on the calling thread: encode, serve, wait,
  /// decode. `frame_bytes` receives the size of both frames.
  service::Response call(const service::Request& req,
                         std::size_t* frame_bytes = nullptr);

 private:
  service::InteropService& svc_;
};

/// Median of K service constructions, each timed from the constructor to
/// the answer of its first request (a Ping), in seconds.
double measure_setup_s(const std::string& store_dir, int reps);

/// Peak resident memory of the process. reset_peak_rss() restarts the
/// high-water mark (Linux /proc/self/clear_refs), so that peak_rss_mb()
/// covers what ran since: set-up and the timed window, not the generation
/// of inputs before it or the reference checks after it.
void reset_peak_rss();
double peak_rss_mb();

/// Nearest-rank percentile of unsorted samples (p in [0,1]).
double percentile(std::vector<double> v, double p);

/// Per-FlowRun response counters the runtime layer metrics come from.
struct FlowSample {
  bool timed = true;  ///< false for warm-up runs before the timed window
  bool cold = false;
  std::uint64_t wall_us = 0, executed = 0, cache_hits = 0, steps = 0;
};

/// One correctly answered request: when it was sent (closed loop) or due
/// (open loop), in seconds into the timed window, its latency and its kind.
struct Latency {
  double at_s = 0;
  double us = 0;
  service::MsgType type = service::MsgType::Ping;
};

/// Everything one run of a workload measured.
struct RunResult {
  std::vector<Latency> latencies;  ///< correctly answered requests
  std::uint64_t attempted = 0;
  std::uint64_t errors = 0;    ///< Status::Error or undecodable
  std::uint64_t rejected = 0;  ///< Status::Rejected
  std::uint64_t wrong = 0;     ///< Ok but not equal to the reference
  double window_s = 0;         ///< length of the timed window (--seconds)
  double elapsed_s = 0;        ///< timed window, first send to last answer
  double setup_s = 0;
  double peak_rss_mb = 0;      ///< over set-up and the timed window
  std::string digest;          ///< input digest for (workload, seed)
  std::string invalid;         ///< non-empty when the run is not valid
  double generator_lag_p99_ms = 0;  ///< open loop only
  double generator_lag_max_ms = 0;

  // Layer data gathered beside the timed requests.
  std::vector<FlowSample> flows;
  std::uint64_t frame_bytes = 0;  ///< request + response frames, timed
  std::uint64_t service_rejected = 0;
  std::uint64_t sched_steals = 0, sched_fastpath = 0;
  std::uint64_t store_appends = 0, store_dedup_hits = 0,
                store_recovered = 0;
  double store_open_ms = 0;  ///< direct open + recovery of the prepared store
  /// Inputs the traced replay re-runs through the layers (Migrate/Netlist).
  std::vector<service::Request> replay;

  std::uint64_t failed() const { return errors + rejected + wrong; }
};

/// Run `workload` with inputs from `seed` for `seconds` of timed load.
RunResult run_workload(const std::string& workload, std::uint64_t seed,
                       double seconds, const std::string& work_dir);

/// Closed-loop saturation rate of the service_mix traffic (requests/s).
double measure_mix_saturation(std::uint64_t seed, double seconds);

/// Per-layer metrics from a traced run: a name -> (value, unit) map.
using LayerMetrics = std::map<std::string, std::pair<double, std::string>>;

/// Replay `run.replay` through each public layer call under bench spans,
/// then analyse the collected trace (self time per layer, queue waits, wire
/// costs) together with the counts in `run`. Prints the self-time tables.
LayerMetrics analyse_traced_run(obs::TraceSession& session,
                                const RunResult& run);

}  // namespace interop::bench

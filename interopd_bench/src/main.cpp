// interopd_bench — drives service::InteropService in-process through the
// real wire codec on one seeded workload and prints its metrics; the last
// stdout line is one JSON object {correct, attempted, failed, metrics}.
//
//   interopd_bench --workload W --seed N --seconds S --trace 0|1
//                  --work-dir DIR [--trace-out FILE] [--source-id ID]
//   interopd_bench --saturate --seed N --seconds S
//
// --trace 0 prints the end-to-end metrics of one untraced run. --trace 1
// runs the workload twice, untraced and then with an obs::TraceSession
// armed, each for a quarter of S but at most 1.5 s, and prints the
// per-layer metrics of the traced run (with its overhead against the
// untraced one); the trace is written as Chrome JSON to --trace-out.
// run.py builds and runs this.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <thread>

#include "bench.hpp"

using namespace interop;
using namespace interop::bench;

namespace {

struct Args {
  std::string workload, work_dir, trace_out, source_id = "unknown";
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false, saturate = false;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") a.workload = value();
    else if (flag == "--seed") a.seed = std::stoull(value());
    else if (flag == "--seconds") a.seconds = std::stod(value());
    else if (flag == "--trace") a.trace = value() == "1";
    else if (flag == "--work-dir") a.work_dir = value();
    else if (flag == "--trace-out") a.trace_out = value();
    else if (flag == "--source-id") a.source_id = value();
    else if (flag == "--saturate") a.saturate = true;
    else throw std::runtime_error("unknown argument " + flag);
  }
  if (a.seconds <= 0) throw std::runtime_error("--seconds must be positive");
  return a;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);)
    if (line.rfind("model name", 0) == 0)
      return line.substr(line.find(':') + 2);
  return "unknown";
}

struct EndToEnd {
  double throughput_rps, p50_ms, p90_ms, p99_ms;
};

/// Length of each of the two runs a --trace 1 invocation makes.
constexpr double kMaxTracedSeconds = 1.5;

/// Up to this many equal windows of the timed run.
constexpr std::size_t kMaxWindows = 16;
/// A window's latency percentile needs this many samples beyond it.
constexpr double kMinSamplesBeyond = 10;
/// A throughput window needs this many answers, so that one answer more or
/// less moves it by at most 2%.
constexpr std::size_t kMinRateWindowSamples = 50;

/// Latency percentile `p` (ms) of a run: the median over the run's windows
/// of each window's percentile, so that a slow stretch of the host moves
/// only the windows it covers. Each window keeps ten samples beyond its
/// percentile; a run with fewer samples is one window.
double run_percentile_ms(const RunResult& run, double p) {
  std::size_t windows = std::clamp<std::size_t>(
      std::size_t(double(run.latencies.size()) * (1 - p) / kMinSamplesBeyond),
      1, kMaxWindows);
  double span_s = 0;
  for (const Latency& l : run.latencies) span_s = std::max(span_s, l.at_s);
  std::vector<std::vector<double>> by_window(windows);
  for (const Latency& l : run.latencies) {
    std::size_t w = span_s > 0 ? std::size_t(l.at_s / span_s * double(windows))
                               : 0;
    by_window[std::min(w, windows - 1)].push_back(l.us);
  }
  std::vector<double> per_window;
  for (const std::vector<double>& v : by_window)
    per_window.push_back(percentile(v, p));
  return percentile(per_window, 0.5) / 1e3;
}

/// Answers per second: the median over equal windows of the timed window
/// of the answers that completed in each, for the same reason.
double run_throughput_rps(const RunResult& run) {
  if (run.window_s <= 0) return 0;
  std::size_t windows = std::clamp<std::size_t>(
      run.latencies.size() / kMinRateWindowSamples, 1, kMaxWindows);
  std::vector<double> done(windows, 0);
  for (const Latency& l : run.latencies) {
    double end_s = l.at_s + l.us / 1e6;
    if (end_s < run.window_s)
      done[std::size_t(end_s / run.window_s * double(windows))] += 1;
  }
  return percentile(done, 0.5) / (run.window_s / double(windows));
}

/// Requests answered and their median latency in each fifth of the timed
/// window, so that a drift within a run shows.
void print_time_profile(const RunResult& run, const std::string& label) {
  constexpr int kSlices = 5;
  double span_s = 0;
  for (const Latency& l : run.latencies) span_s = std::max(span_s, l.at_s);
  std::vector<std::vector<double>> slices(kSlices);
  for (const Latency& l : run.latencies) {
    int k = span_s > 0 ? int(l.at_s / span_s * kSlices) : 0;
    slices[std::size_t(std::min(k, kSlices - 1))].push_back(l.us);
  }
  std::cout << label << " by fifth:";
  for (const std::vector<double>& v : slices)
    std::cout << " n=" << v.size() << " p50_ms=" << percentile(v, 0.5) / 1e3;
  std::cout << "\n";
}

/// Latency percentiles of each request kind, where a run mixes kinds.
void print_kinds(const RunResult& run, const std::string& label) {
  std::map<service::MsgType, std::vector<double>> by_kind;
  for (const Latency& l : run.latencies) by_kind[l.type].push_back(l.us);
  if (by_kind.size() < 2) return;
  std::cout << label << " by kind:";
  for (const auto& [type, v] : by_kind)
    std::cout << " " << service::to_string(type) << " n=" << v.size()
              << " p50_ms=" << percentile(v, 0.5) / 1e3
              << " p99_ms=" << percentile(v, 0.99) / 1e3;
  std::cout << "\n";
}

EndToEnd end_to_end(const RunResult& run, const std::string& label) {
  EndToEnd e{};
  e.throughput_rps = run_throughput_rps(run);
  e.p50_ms = run_percentile_ms(run, 0.50);
  e.p90_ms = run_percentile_ms(run, 0.90);
  e.p99_ms = run_percentile_ms(run, 0.99);
  std::size_t n = run.latencies.size();
  std::cout << label << ": attempted=" << run.attempted
            << " ok=" << n << " errors=" << run.errors
            << " rejected=" << run.rejected << " wrong=" << run.wrong
            << " elapsed_s=" << run.elapsed_s << " setup_s=" << run.setup_s
            << " throughput_rps=" << e.throughput_rps
            << " p50_ms=" << e.p50_ms << " p90_ms=" << e.p90_ms
            << " p99_ms=" << e.p99_ms << " samples_beyond_p90=" << n / 10
            << " samples_beyond_p99=" << n / 100;
  if (run.generator_lag_max_ms > 0)
    std::cout << " generator_lag_p99_ms=" << run.generator_lag_p99_ms
              << " generator_lag_max_ms=" << run.generator_lag_max_ms;
  std::cout << "\n";
  print_time_profile(run, label);
  print_kinds(run, label);
  if (!run.invalid.empty())
    std::cout << label << ": INVALID " << run.invalid << "\n";
  return e;
}

void put_metric(std::ostringstream& os, bool& first, const std::string& name,
                double value, const std::string& unit) {
  os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << value
     << ", \"unit\": \"" << unit << "\"}";
  first = false;
}

int run(const Args& a) {
  std::cout << "host: cpus=" << std::thread::hardware_concurrency()
            << " cpu=\"" << cpu_model() << "\" build_type="
            << INTEROPD_BENCH_BUILD_TYPE << " flags=\""
            << INTEROPD_BENCH_CXX_FLAGS << "\" compiler=\"" << __VERSION__
            << "\" source=" << a.source_id << "\n";

  if (a.saturate) {
    std::cout << "service_mix saturation (4 closed-loop clients): "
              << measure_mix_saturation(a.seed, a.seconds) << " req/s\n";
    return 0;
  }
  if (a.work_dir.empty()) throw std::runtime_error("--work-dir is required");

  std::ostringstream metrics;
  metrics << std::setprecision(std::numeric_limits<double>::max_digits10);
  bool first = true;
  bool correct = true;
  std::uint64_t attempted = 0, failed = 0;
  auto account = [&](const RunResult& r) {
    attempted += r.attempted;
    failed += r.failed();
    if (r.failed() > 0 || !r.invalid.empty()) correct = false;
  };

  if (!a.trace) {
    RunResult r = run_workload(a.workload, a.seed, a.seconds, a.work_dir);
    std::cout << "inputs: workload=" << a.workload << " seed=" << a.seed
              << " digest=" << r.digest << "\n";
    EndToEnd e = end_to_end(r, "run");
    account(r);
    put_metric(metrics, first, "setup_s", r.setup_s, "s");
    put_metric(metrics, first, "throughput_rps", e.throughput_rps, "1/s");
    put_metric(metrics, first, "latency_p50_ms", e.p50_ms, "ms");
    put_metric(metrics, first, "latency_p90_ms", e.p90_ms, "ms");
    put_metric(metrics, first, "peak_rss_mb", r.peak_rss_mb, "MB");
  } else {
    // Short: a traced second of flow_durable is ~200k events (~20 MB of
    // Chrome JSON), and trace_check holds the whole document in memory.
    double phase_s = std::min(a.seconds / 4, kMaxTracedSeconds);
    RunResult plain = run_workload(a.workload, a.seed, phase_s,
                                   a.work_dir + "/untraced");
    std::cout << "inputs: workload=" << a.workload << " seed=" << a.seed
              << " digest=" << plain.digest << "\n";
    EndToEnd base = end_to_end(plain, "untraced run");
    account(plain);

    obs::TraceSession session;
    session.arm();
    RunResult traced = run_workload(a.workload, a.seed, phase_s,
                                    a.work_dir + "/traced");
    EndToEnd with = end_to_end(traced, "traced run");
    account(traced);
    LayerMetrics layers = analyse_traced_run(session, traced);
    session.disarm();
    if (layers["schematic.verify.diffs"].first != 0) correct = false;

    double overhead_pct =
        base.p50_ms > 0 ? 100.0 * (with.p50_ms / base.p50_ms - 1.0) : 0;
    std::cout << "tracing overhead: latency_p50 " << base.p50_ms << " -> "
              << with.p50_ms << " ms (" << overhead_pct
              << "%), throughput " << base.throughput_rps << " -> "
              << with.throughput_rps << " req/s\n";
    layers["bench.trace_overhead_pct"] = {overhead_pct, "%"};
    layers["failed_share"] = {
        attempted > 0 ? double(failed) / double(attempted) : 0, "share"};
    for (const auto& [name, vu] : layers)
      put_metric(metrics, first, name, vu.first, vu.second);

    std::string out = a.trace_out.empty() ? a.work_dir + "/trace.json"
                                          : a.trace_out;
    std::filesystem::create_directories(
        std::filesystem::path(out).parent_path());
    std::ofstream trace_file(out);
    session.write_chrome_json(trace_file);
    if (!trace_file) throw std::runtime_error("cannot write " + out);
    std::cout << "trace: " << out << "\n";
  }

  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {" << metrics.str() << "}}" << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef __OPTIMIZE__
  std::cerr << "interopd_bench: refusing to report numbers from a build "
               "without optimisation\n";
  return 3;
#endif
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "interopd_bench: " << e.what() << "\n";
    return 1;
  }
}

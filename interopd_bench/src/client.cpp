// The benchmark's client side: wire round trips through the real codec,
// direct-library references, response checks and set-up timing.

#include <algorithm>
#include <cmath>
#include <fstream>
#include <future>
#include <iostream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "runtime/hash.hpp"
#include "schematic/dialect.hpp"
#include "schematic/generator.hpp"
#include "schematic/netlist.hpp"
#include "schematic/textio.hpp"

namespace interop::bench {

using service::FrameReader;
using service::MsgType;
using service::Request;
using service::Response;
using service::Status;

namespace {

std::string id_args(std::uint64_t id) {
  return obs::armed() ? "\"id\":" + std::to_string(id) : std::string();
}

Response wire_error(std::uint64_t id, const std::string& why) {
  Response resp;
  resp.id = id;
  resp.status = Status::Error;
  resp.error = "wire: " + why;
  return resp;
}

}  // namespace

const sch::MigrationConfig& migration_config() {
  static const sch::MigrationConfig config = [] {
    sch::MigrationConfig c;
    c.source = sch::viewlogic_dialect();
    c.target = sch::composer_dialect();
    c.symbol_map = sch::make_standard_symbol_map();
    c.global_map = sch::make_standard_global_map();
    c.property_rules = sch::make_standard_property_rules();
    c.target_symbols = sch::make_target_library();
    return c;
  }();
  return config;
}

double since_us(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

std::uint64_t migrate_reference(const std::string& design_text) {
  base::DiagnosticEngine diags;
  sch::Design src = sch::read_design(design_text, diags);
  sch::MigrationResult result =
      sch::migrate_design(src, migration_config(), diags);
  return runtime::fnv1a(sch::write_design(result.design));
}

Expect netlist_reference(const std::string& design_text,
                         const std::string& cell, const std::string& dialect) {
  base::DiagnosticEngine diags;
  sch::Design design = sch::read_design(design_text, diags);
  const sch::Schematic* schematic = design.find_schematic(cell);
  if (!schematic) throw std::runtime_error("no cell " + cell);
  sch::Netlist netlist = sch::extract_netlist(
      design, *schematic,
      dialect == "composer" ? sch::composer_dialect()
                            : sch::viewlogic_dialect(),
      diags);
  Expect want;
  want.type = MsgType::Netlist;
  want.nets = netlist.nets.size();
  for (const auto& [name, net] : netlist.nets) {
    want.connections += net.connections.size();
    if (net.is_port) ++want.ports;
  }
  return want;
}

bool check_migrate(const Response& resp, std::uint64_t body_hash,
                   std::uint64_t want_hash) {
  return resp.status == Status::Ok && resp.counter("diffs", 1) == 0 &&
         body_hash == want_hash;
}

bool check_response(const Response& resp, const Expect& want) {
  if (resp.status != Status::Ok) return false;
  switch (want.type) {
    case MsgType::Ping:
      return resp.body == "pong";
    case MsgType::Migrate:
      return check_migrate(resp, runtime::fnv1a(resp.body), want.body_hash);
    case MsgType::Netlist:
      return resp.counter("nets") == want.nets &&
             resp.counter("connections") == want.connections &&
             resp.counter("ports") == want.ports;
    case MsgType::FlowRun: {
      std::uint64_t steps = resp.counter("steps");
      std::uint64_t executed = resp.counter("executed", steps + 1);
      return steps > 0 && executed + resp.counter("cache_hits") == steps &&
             (!want.warm || executed == 0);
    }
    default:
      return false;
  }
}

service::ServiceOptions service_options(const std::string& store_dir) {
  service::ServiceOptions opt;
  opt.store_dir = store_dir;
  return opt;
}

std::string encode_frame(const Request& req) {
  obs::Span span("wire", "encode_request", id_args(req.id));
  return service::encode_request(req);
}

Response decode_frame(const std::string& frame, std::uint64_t id) {
  obs::Span span("wire", "decode_response", id_args(id));
  FrameReader reader;
  reader.feed(frame);
  std::string payload, error;
  Response resp;
  if (reader.next(&payload, &error) != FrameReader::Result::Frame ||
      !service::decode_response(payload, &resp, &error))
    return wire_error(id, error);
  return resp;
}

void Session::serve(const std::string& frame, OnFrame on_frame) {
  Request req;
  std::string payload, error;
  bool ok = false;
  {
    obs::Span span("wire", "decode_request");
    FrameReader reader;
    reader.feed(frame);
    ok = reader.next(&payload, &error) == FrameReader::Result::Frame &&
         service::decode_request(payload, &req, &error);
    if (ok && obs::armed()) span.end(id_args(req.id));
  }
  if (!ok) {
    on_frame(service::encode_response(wire_error(0, error)));
    return;
  }
  if (obs::armed()) obs::instant("bench", "submit", id_args(req.id));
  svc_.submit(std::move(req),
              [on_frame = std::move(on_frame)](Response resp) {
                std::string out;
                {
                  obs::Span span("wire", "encode_response", id_args(resp.id));
                  out = service::encode_response(resp);
                }
                on_frame(std::move(out));
              });
}

Response Session::call(const Request& req, std::size_t* frame_bytes) {
  std::string frame = encode_frame(req);
  std::promise<std::string> promise;
  std::future<std::string> future = promise.get_future();
  serve(frame, [&promise](std::string out) {
    promise.set_value(std::move(out));
  });
  std::string response = future.get();
  if (frame_bytes) *frame_bytes = frame.size() + response.size();
  return decode_frame(response, req.id);
}

double measure_setup_s(const std::string& store_dir, int reps) {
  // Spread over most of a second: the host's speed shifts on that scale,
  // and a median over one burst of constructions would see one state only.
  constexpr auto kGap = std::chrono::milliseconds(20);
  std::vector<double> samples;
  for (int i = 0; i < reps; ++i) {
    if (i > 0) std::this_thread::sleep_for(kGap);
    Clock::time_point t0 = Clock::now();
    service::InteropService svc(service_options(store_dir));
    Session session(svc);
    Request ping;
    ping.id = kUntimedIdBase + std::uint64_t(i);
    ping.tenant = "setup";
    Response resp = session.call(ping);
    samples.push_back(since_us(t0) / 1e6);
    if (!check_response(resp, Expect{}))
      throw std::runtime_error("set-up ping failed: " + resp.error);
    if (!store_dir.empty() && !svc.persistent_cache())
      throw std::runtime_error("store did not open: " + svc.store_error());
  }
  std::cout << "setup: reps=" << reps
            << " min_ms=" << percentile(samples, 0) * 1e3
            << " p50_ms=" << percentile(samples, 0.5) * 1e3
            << " max_ms=" << percentile(samples, 1) * 1e3 << "\n";
  return percentile(samples, 0.5);
}

void reset_peak_rss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  for (std::string line; std::getline(in, line);)
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double rank = std::ceil(p * double(v.size()));
  std::size_t idx = rank < 1 ? 0 : std::size_t(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

}  // namespace interop::bench

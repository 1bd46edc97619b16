// Migration cost per layer: read, migrate, verify, write.
//
// An interopd Migrate request reads the source design text, migrates it
// (rescale, symbol replacement with rip-up, property rules and a/L
// callbacks, connectors), verifies it (two netlist extractions and a
// compare) and writes the result. This bench times those four layers with
// a stopwatch on generated Exar designs from 24 to 10k components and
// prints milliseconds per design, plus the cost per component, which stays
// flat when every layer is linear in the design size. Verify is also split
// into its three parts, run the way verify_migration runs them: extracting
// the source netlist, extracting the migrated one, and mapping the golden
// names plus the compare. Only release-preset numbers mean anything. Each
// design is also checked, untimed, by verify_migration itself. Exits
// non-zero if a migration fails verification or if the two diff counts
// disagree.

#include <chrono>
#include <iostream>

#include "base/report.hpp"
#include "schematic/generator.hpp"
#include "schematic/migrate.hpp"
#include "schematic/textio.hpp"

using namespace interop::sch;
using interop::base::ReportTable;

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Verify's parts, timed separately.
struct VerifyTimes {
  double extract_source_ms = 0;
  double extract_migrated_ms = 0;
  double compare_ms = 0;

  double total() const {
    return extract_source_ms + extract_migrated_ms + compare_ms;
  }
};

/// verify_migration, with a stopwatch on each part. Returns the diff count.
std::size_t timed_verify(const Design& src, const Design& migrated,
                         const MigrationConfig& config,
                         interop::base::DiagnosticEngine& diags,
                         VerifyTimes& times) {
  std::size_t diffs = 0;
  for (const auto& [cell, sch_src] : src.schematics()) {
    const Schematic* sch_dst = migrated.find_schematic(cell);
    if (!sch_dst) {
      ++diffs;
      continue;
    }
    auto t0 = Clock::now();
    Netlist golden = extract_netlist(src, sch_src, config.source, diags);
    auto t1 = Clock::now();
    Netlist subject =
        extract_netlist(migrated, *sch_dst, config.target, diags);
    auto t2 = Clock::now();
    diffs += compare_netlists(
                 map_golden_netlist(std::move(golden), sch_src, config),
                 subject)
                 .size();
    auto t3 = Clock::now();
    times.extract_source_ms += ms_between(t0, t1);
    times.extract_migrated_ms += ms_between(t1, t2);
    times.compare_ms += ms_between(t2, t3);
  }
  return diffs;
}

struct Size {
  int sheets;
  int components_per_sheet;
  int nets_per_sheet;
  int designs;
};

}  // namespace

int main() {
  // 1600 components is the interopd_bench migrate_large design shape.
  const Size sizes[] = {{2, 12, 8, 20},
                        {2, 100, 50, 20},
                        {8, 200, 100, 20},
                        {8, 1250, 625, 5}};

  ReportTable table(
      "Migration per layer (ms per design; us per component)",
      {"components", "designs", "total", "read", "migrate", "verify",
       "extract src", "extract migrated", "compare", "write",
       "migrate us/comp", "migrate+verify us/comp"});
  std::size_t diffs = 0;
  std::size_t mismatches = 0;  ///< designs where verify_migration disagrees
  for (const Size& size : sizes) {
    double read_ms = 0, migrate_ms = 0, write_ms = 0;
    VerifyTimes verify;
    std::size_t components = 0;
    for (int d = 0; d < size.designs; ++d) {
      GeneratorOptions opt;
      opt.seed = 100 + std::uint64_t(d);
      opt.sheets = size.sheets;
      opt.components_per_sheet = size.components_per_sheet;
      opt.nets_per_sheet = size.nets_per_sheet;
      Scenario sc = make_exar_scenario(opt);
      std::string text = write_design(sc.source);

      interop::base::DiagnosticEngine diags;
      auto t0 = Clock::now();
      Design source = read_design(text, diags);
      auto t1 = Clock::now();
      MigrationResult result = migrate_design(source, sc.config, diags);
      auto t2 = Clock::now();
      std::size_t timed_diffs =
          timed_verify(source, result.design, sc.config, diags, verify);
      auto t3 = Clock::now();
      std::string out = write_design(result.design);
      auto t4 = Clock::now();

      interop::base::DiagnosticEngine verify_diags;
      std::size_t shipped_diffs =
          verify_migration(source, result.design, sc.config, verify_diags)
              .size();
      diffs += timed_diffs;
      if (shipped_diffs != timed_diffs) ++mismatches;

      read_ms += ms_between(t0, t1);
      migrate_ms += ms_between(t1, t2);
      write_ms += ms_between(t3, t4);
      components += source.instance_count();
    }
    double n = size.designs;
    double verify_ms = verify.total();
    double per_comp_us = 1000.0 / double(components);
    table.add_row({std::to_string(components / std::size_t(size.designs)),
                   std::to_string(size.designs),
                   ReportTable::num(
                       (read_ms + migrate_ms + verify_ms + write_ms) / n),
                   ReportTable::num(read_ms / n),
                   ReportTable::num(migrate_ms / n),
                   ReportTable::num(verify_ms / n),
                   ReportTable::num(verify.extract_source_ms / n),
                   ReportTable::num(verify.extract_migrated_ms / n),
                   ReportTable::num(verify.compare_ms / n),
                   ReportTable::num(write_ms / n),
                   ReportTable::num(migrate_ms * per_comp_us, 1),
                   ReportTable::num((migrate_ms + verify_ms) * per_comp_us,
                                    1)});
  }
  table.print(std::cout);
  std::cout << "verification diffs: " << diffs << " (must be 0)\n";
  std::cout << "designs where verify_migration disagrees: " << mismatches
            << " (must be 0)\n";
  return diffs == 0 && mismatches == 0 ? 0 : 1;
}

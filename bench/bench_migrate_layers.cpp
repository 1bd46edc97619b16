// Migration cost per layer: read, migrate, verify, write.
//
// An interopd Migrate request reads the source design text, migrates it
// (rescale, symbol replacement with rip-up, property rules and a/L
// callbacks, connectors), verifies it (two netlist extractions and a
// compare) and writes the result. This bench times those four layers with
// a stopwatch on generated Exar designs from 24 to 10k components and
// prints milliseconds per design, plus the cost per component, which stays
// flat when every layer is linear in the design size. Only release-preset
// numbers mean anything. Exits non-zero if a migration fails verification.

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
       "write", "migrate us/comp", "migrate+verify us/comp"});
  std::size_t diffs = 0;
  for (const Size& size : sizes) {
    double read_ms = 0, migrate_ms = 0, verify_ms = 0, write_ms = 0;
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
      diffs +=
          verify_migration(source, result.design, sc.config, diags).size();
      auto t3 = Clock::now();
      std::string out = write_design(result.design);
      auto t4 = Clock::now();

      read_ms += ms_between(t0, t1);
      migrate_ms += ms_between(t1, t2);
      verify_ms += ms_between(t2, t3);
      write_ms += ms_between(t3, t4);
      components += source.instance_count();
    }
    double n = size.designs;
    double per_comp_us = 1000.0 / double(components);
    table.add_row({std::to_string(components / std::size_t(size.designs)),
                   std::to_string(size.designs),
                   ReportTable::num(
                       (read_ms + migrate_ms + verify_ms + write_ms) / n),
                   ReportTable::num(read_ms / n),
                   ReportTable::num(migrate_ms / n),
                   ReportTable::num(verify_ms / n),
                   ReportTable::num(write_ms / n),
                   ReportTable::num(migrate_ms * per_comp_us, 1),
                   ReportTable::num((migrate_ms + verify_ms) * per_comp_us,
                                    1)});
  }
  table.print(std::cout);
  std::cout << "verification diffs: " << diffs << " (must be 0)\n";
  return diffs == 0 ? 0 : 1;
}

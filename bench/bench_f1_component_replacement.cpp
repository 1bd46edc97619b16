// Experiment F1 — Figure 1: component replacement during schematic
// migration. The paper's figure shows ripped-up net segments around a
// replaced component being rerouted to the new symbol's pins, with "the
// number of ripped up net segments minimized" and the result "graphically
// very similar to the original".
//
// Regenerated series: for designs of growing size, minimal rip-up vs the
// naive whole-net policy — ripped segment counts, reroute wirelength, and
// the graphical-similarity score.

#include <iostream>

#include "base/report.hpp"
#include "schematic/generator.hpp"
#include "schematic/migrate.hpp"

using namespace interop::sch;
using interop::base::ReportTable;

namespace {

struct RunResult {
  RipupStats stats;
  double similarity = 0.0;
  bool verified = false;
};

RunResult run(int components, RipupPolicy policy, std::uint64_t seed) {
  GeneratorOptions opt;
  opt.seed = seed;
  opt.sheets = 2;
  opt.components_per_sheet = components;
  opt.nets_per_sheet = components;  // wiring scales with the design
  Scenario sc = make_exar_scenario(opt);
  MigrationConfig config = sc.config;
  config.ripup_policy = policy;

  // Keep the pre-migration sheets (scaled identically under grid-unit
  // preservation) for the similarity comparison.
  const Schematic& before = sc.source.schematics().begin()->second;

  interop::base::DiagnosticEngine diags;
  MigrationResult result = migrate_design(sc.source, config, diags);
  const Schematic& after = *result.design.find_schematic(before.cell);

  RunResult out;
  out.stats = result.report.ripup;
  double sim = 0.0;
  for (std::size_t s = 0; s < before.sheets.size(); ++s)
    sim += graphical_similarity(before.sheets[s], after.sheets[s]);
  out.similarity = sim / double(before.sheets.size());

  interop::base::DiagnosticEngine vdiags;
  out.verified =
      verify_migration(sc.source, result.design, config, vdiags).empty();
  return out;
}

}  // namespace

int main() {
  ReportTable table("F1: component replacement, minimal vs full-net rip-up",
                    {"components", "policy", "ripped", "rerouted",
                     "reroute-len", "similarity", "verified"});

  bool ok = true;
  for (int components : {8, 16, 32, 64}) {
    std::size_t minimal_ripped = 0;
    for (RipupPolicy policy : {RipupPolicy::Minimal, RipupPolicy::FullNet}) {
      RipupStats total;
      double sim = 0.0;
      int verified = 0;
      const int kSeeds = 5;
      for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
        RunResult r = run(components, policy, seed);
        total.instances_replaced += r.stats.instances_replaced;
        total.segments_ripped += r.stats.segments_ripped;
        total.segments_rerouted += r.stats.segments_rerouted;
        total.reroute_length += r.stats.reroute_length;
        sim += r.similarity;
        verified += r.verified ? 1 : 0;
      }
      table.add_row({std::to_string(components * 2),
                     policy == RipupPolicy::Minimal ? "minimal" : "full-net",
                     ReportTable::num(std::int64_t(total.segments_ripped)),
                     ReportTable::num(std::int64_t(total.segments_rerouted)),
                     ReportTable::num(total.reroute_length),
                     ReportTable::num(sim / kSeeds, 3),
                     std::to_string(verified) + "/" + std::to_string(kSeeds)});
      if (verified != kSeeds) ok = false;
      if (policy == RipupPolicy::Minimal)
        minimal_ripped = total.segments_ripped;
      else if (minimal_ripped >= total.segments_ripped)
        ok = false;
    }
  }
  table.print(std::cout);
  std::cout << "Expected shape: minimal rips fewer segments than full-net at\n"
               "every size, scores higher graphical similarity, and both\n"
               "policies verify electrically clean.\n";
  if (!ok)
    std::cerr << "F1: a row failed verification, or minimal rip-up did not "
                 "rip fewer segments than full-net\n";
  return ok ? 0 : 1;
}

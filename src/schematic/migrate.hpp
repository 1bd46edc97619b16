#pragma once
// The schematic migration engine: the full §2 pipeline, Viewlogic-like
// source to Composer-like target.
//
// Pipeline (each step reports through the shared DiagnosticEngine and the
// MigrationReport counters):
//   1. scaling              (grid reinterpretation or physical rescale)
//   2. symbol replacement   (rip-up / reroute, Figure 1)
//   3. property mapping     (standard rules + a/L callbacks)
//   4. bus syntax translation
//   5. hierarchy connectors (explicit ports for the target tool)
//   6. off-page connectors  (explicit cross-page joins)
//   7. globals              (global symbol replacement)
//   8. cosmetics            (font scaling, baseline-offset correction)
// plus independent verification (netlist extraction + comparison).

#include <string>
#include <vector>

#include "base/diagnostics.hpp"
#include "schematic/dialect.hpp"
#include "schematic/mapping.hpp"
#include "schematic/model.hpp"
#include "schematic/netlist.hpp"
#include "schematic/ripup.hpp"

namespace interop::sch {

/// How step 1 treats coordinates when the grids differ.
enum class ScalePolicy {
  /// Keep grid *counts*: a pin 2 grid units from the body stays 2 units.
  /// Physical size changes (Exar's approach: symbols "scaled down in size
  /// to adjust to the Composer grid spacing").
  PreserveGridUnits,
  /// Keep physical positions, re-expressed on the target grid; positions
  /// that fall off-grid are snapped and reported.
  PreservePhysicalSize,
};

/// Everything the migration needs besides the source design.
struct MigrationConfig {
  Dialect source;
  Dialect target;
  ScalePolicy scale_policy = ScalePolicy::PreserveGridUnits;
  RipupPolicy ripup_policy = RipupPolicy::Minimal;
  SymbolMap symbol_map;
  PropertyRuleSet property_rules;
  GlobalMap global_map;
  /// Symbols available in the target library (replacements, connectors).
  /// Must contain every SymbolMap/GlobalMap target, a HierPort symbol per
  /// direction named below, and an OffPage connector symbol.
  std::vector<SymbolDef> target_symbols;
  SymbolKey hier_in{"connectors", "ipin", "symbol"};
  SymbolKey hier_out{"connectors", "opin", "symbol"};
  SymbolKey hier_inout{"connectors", "iopin", "symbol"};
  SymbolKey offpage{"connectors", "offpage", "symbol"};
  /// a/L engine for property-migration callbacks (see CallbackHost).
  al::Engine al_engine = al::Engine::Bytecode;
};

/// Counters for the migration report (one row per step in bench T2).
struct MigrationReport {
  std::size_t sheets = 0;
  std::size_t points_rescaled = 0;
  std::size_t points_snapped = 0;      ///< off-grid, PreservePhysicalSize only
  RipupStats ripup;
  PropertyApplyStats props;
  std::size_t labels_translated = 0;
  std::size_t hier_connectors_added = 0;
  std::size_t offpage_connectors_added = 0;
  std::size_t globals_replaced = 0;
  std::size_t texts_adjusted = 0;
};

/// Result of a migration run.
struct MigrationResult {
  Design design;          ///< the migrated database (target dialect)
  MigrationReport report;
};

/// Migrate `src` under `config`. `diags` receives step diagnostics; the
/// function itself never throws on data problems (it reports instead).
MigrationResult migrate_design(const Design& src, const MigrationConfig& config,
                               base::DiagnosticEngine& diags);

/// The golden side of verification for one cell: `golden`, the netlist of
/// the source cell `sch_src` under the source dialect, with pin names mapped
/// through the symbol map and net names rewritten the way label translation
/// rewrites them. Nets whose names collide merge their connections.
Netlist map_golden_netlist(Netlist golden, const Schematic& sch_src,
                           const MigrationConfig& config);

/// Independent verification: extract the source under the source dialect and
/// the migrated design under the target dialect, normalize golden pin names
/// through the symbol map, and compare per cell. Returns all differences.
/// Per cell this is extract_netlist twice, map_golden_netlist and
/// compare_netlists.
std::vector<NetlistDiff> verify_migration(const Design& src,
                                          const Design& migrated,
                                          const MigrationConfig& config,
                                          base::DiagnosticEngine& diags);

}  // namespace interop::sch

#pragma once
// Component replacement with minimal net rip-up — Figure 1 of the paper.
//
// Replacing a Viewlogic primitive with a Cadence library component means the
// symbol body and pin positions change. The paper's requirement: rip up
// *specific* components "along with the segments of the nets connected to
// the pins of those components", reroute those segments to the replacement
// pins, minimize the number of ripped segments, and keep the result
// graphically similar to the original.
//
// Both policies find the wires to rip through the sheet's WireIndex: the
// seeds are the wires ending on a replaced pin, and a flood from them gives
// the whole nets (which Minimal still measures, as RipupStats::
// fullnet_would_rip). A SheetRipup keeps one index for every replacement on
// a sheet, so each replacement costs the size of the nets it touches, not
// the size of the sheet.

#include <cstdint>
#include <map>
#include <string>

#include "base/diagnostics.hpp"
#include "schematic/mapping.hpp"
#include "schematic/model.hpp"
#include "schematic/wire_index.hpp"

namespace interop::sch {

/// How to choose which wires to rip when replacing a component.
enum class RipupPolicy {
  /// Rip only segments with an endpoint on a replaced pin (paper approach).
  Minimal,
  /// Rip every segment of every net touching the instance (naive baseline).
  FullNet,
};

struct RipupStats {
  std::size_t instances_replaced = 0;
  std::size_t segments_ripped = 0;
  std::size_t segments_rerouted = 0;
  /// What FullNet would have ripped, for the same replacements (always
  /// filled, regardless of policy, so the two can be compared in one run).
  std::size_t fullnet_would_rip = 0;
  /// Total added wire length during reroute, in grid units.
  std::int64_t reroute_length = 0;
  /// FullNet rebuilds route every hop through its own channel lane so that
  /// rebuilt nets cannot short each other; this allocates the lanes.
  std::int64_t next_rebuild_lane = -1001;
};

/// Component replacements on one sheet, sharing one wire index. Ripped
/// wires stay in sheet.wires, marked removed in the index, until finish()
/// erases them in one pass; rerouted wires are appended as they are made.
/// The final wire order is the one that erasing each ripped wire at once
/// would give.
class SheetRipup {
 public:
  explicit SheetRipup(Sheet& sheet);
  /// Calls finish().
  ~SheetRipup();
  SheetRipup(const SheetRipup&) = delete;
  SheetRipup& operator=(const SheetRipup&) = delete;

  /// Replace sheet.instances[inst] as replace_component() does.
  void replace(std::size_t inst, const SymbolMapEntry& entry,
               const SymbolDef& from_def, const SymbolDef& to_def,
               RipupPolicy policy, RipupStats& stats,
               base::DiagnosticEngine& diags);

  /// Erase the ripped wires from the sheet. The index is stale after
  /// this, so further replace() calls are not allowed; calling finish()
  /// again does nothing. The index's memory is freed with the SheetRipup.
  void finish();

 private:
  void add_wire(const Segment& s);
  std::int64_t route_l(const Point& from, const Point& to, const Rect& avoid,
                       RipupStats& stats);

  Sheet& sheet_;
  WireIndex index_;
  bool finished_ = false;
};

/// Replace instance `inst_name` on `sheet` according to `entry`, where the
/// instance currently uses `from_def` and becomes `to_def`. Pins are matched
/// through entry.pin_map; a source pin whose mapped name is missing on the
/// target symbol is reported as an error and its wires are left dangling.
/// One-shot form of SheetRipup.
///
/// Returns false when the instance cannot be found.
bool replace_component(Sheet& sheet, const std::string& inst_name,
                       const SymbolMapEntry& entry, const SymbolDef& from_def,
                       const SymbolDef& to_def, RipupPolicy policy,
                       RipupStats& stats, base::DiagnosticEngine& diags);

/// Graphical similarity between a sheet before and after an edit: the
/// fraction of original wire segments still present, weighted with the
/// fraction of instances whose placement is unchanged. 1.0 = identical.
double graphical_similarity(const Sheet& before, const Sheet& after);

}  // namespace interop::sch

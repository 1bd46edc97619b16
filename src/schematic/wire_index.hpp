#pragma once
// Per-sheet wire connectivity index: the one answer to "which wires touch
// point p" for rip-up, connector attachment and netlist extraction.
//
// Connectivity is derived from geometry (model.hpp): two wires join when
// they share an endpoint, or when both pass through a junction dot. Asking
// that of the raw wire list costs a scan of every wire on the sheet. The
// index answers it from three tables:
//   - each wire endpoint -> the wires ending there;
//   - horizontal wires bucketed by y, vertical wires bucketed by x, for
//     interior containment (Segment::contains: a zero-length wire contains
//     its one point, a diagonal wire contains no point at all);
//   - junction dots bucketed by row and by column.
//
// Wire ids are indices into sheet.wires, and every query returns them in
// ascending order. The index can follow edits to its sheet: a caller that
// appends a wire or junction registers it, and a removed wire is only
// marked, so ids stay stable until the caller compacts sheet.wires (see
// SheetRipup in ripup.hpp). After compaction the index is stale.

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "schematic/model.hpp"

namespace interop::sch {

/// Hash for grid points, for unordered containers keyed by Point.
struct PointHash {
  std::size_t operator()(const Point& p) const;
};

class WireIndex {
 public:
  /// Index `sheet`'s wires and junctions. The sheet must outlive the index.
  explicit WireIndex(const Sheet& sheet);

  /// Live wires with an endpoint at `p`.
  std::vector<std::size_t> ending_at(const Point& p) const;
  /// Live wires that contain `p`, at an endpoint or in the interior.
  std::vector<std::size_t> touching(const Point& p) const;
  bool has_junction(const Point& p) const;

  /// `seeds` plus every live wire transitively joined to them, by shared
  /// endpoints or by junction dots both wires pass through.
  std::vector<std::size_t> flood(const std::vector<std::size_t>& seeds);

  /// Register sheet.wires.back(), just appended by the caller.
  void add_wire();
  /// Register sheet.junctions.back(), just appended by the caller.
  void add_junction();
  /// Drop wire `id` from every query; sheet.wires is left untouched.
  void remove_wire(std::size_t id);
  bool removed(std::size_t id) const { return dead_[id] != 0; }

 private:
  using Ids = std::vector<std::uint32_t>;

  void add_wire_at(std::size_t id);
  void add_junction_at(const Point& j);
  template <class F>
  void for_each_touching(const Point& p, F&& visit) const;
  template <class F>
  void for_each_junction_on(const Segment& w, F&& visit) const;

  const Sheet& sheet_;
  std::unordered_map<Point, Ids, PointHash> ends_;
  std::unordered_map<std::int64_t, Ids> rows_;  ///< horizontal wires by y
  std::unordered_map<std::int64_t, Ids> cols_;  ///< vertical wires by x
  /// Junction dots: y -> their x values, and x -> their y values.
  std::unordered_map<std::int64_t, std::vector<std::int64_t>> dot_rows_;
  std::unordered_map<std::int64_t, std::vector<std::int64_t>> dot_cols_;
  std::vector<std::uint8_t> dead_;
  /// flood() visit stamps: wire id -> epoch of the flood that reached it.
  std::vector<std::uint32_t> mark_;
  std::uint32_t epoch_ = 0;
};

}  // namespace interop::sch

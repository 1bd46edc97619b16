#pragma once
// Per-sheet wire connectivity index: the one answer to "which wires touch
// point p" for rip-up, connector attachment and netlist extraction.
//
// Connectivity is derived from geometry (model.hpp): two wires join when
// they share an endpoint, or when both pass through a junction dot. Asking
// that of the raw wire list costs a scan of every wire on the sheet. The
// index answers it from flat tables, built with a fixed number of
// allocations however large the sheet:
//   - nodes: every distinct wire endpoint and junction dot gets a dense id,
//     numbered in the order a scan first meets them (each wire's a, then
//     its b, then the dots). Each node carries its wires ending there, its
//     live-end count ("is p a wire endpoint") and its dot flag ("is there
//     a dot at p"). Each wire caches the node ids of its two ends;
//   - horizontal wires bucketed by y, vertical wires bucketed by x, for
//     interior containment (Segment::contains: a zero-length wire contains
//     its one point, a diagonal wire contains no point at all);
//   - junction dots bucketed by row and by column.
// Point and coordinate keys live in open-addressed tables (DenseIds in
// base/dense_ids.hpp), and every list (wires ending at a node, wires or
// dots in a bucket) is a chain threaded through one array per kind, so a
// key costs no heap allocation of its own.
//
// Wire ids are indices into sheet.wires, and every query returns them in
// ascending order. The index can follow edits to its sheet: a caller that
// appends a wire or junction registers it, and a removed wire is only
// marked, so ids stay stable until the caller compacts sheet.wires (see
// SheetRipup in ripup.hpp). After compaction the index is stale.

#include <cstdint>
#include <vector>

#include "base/dense_ids.hpp"
#include "schematic/model.hpp"

namespace interop::sch {

class WireIndex {
 public:
  static constexpr std::uint32_t kNone = base::DenseIds<Point>::kNone;

  /// Index `sheet`'s wires and junctions. The sheet must outlive the index.
  explicit WireIndex(const Sheet& sheet);

  /// Live wires with an endpoint at `p`.
  std::vector<std::size_t> ending_at(const Point& p) const;
  /// Live wires that contain `p`, at an endpoint or in the interior.
  std::vector<std::size_t> touching(const Point& p) const;
  bool has_junction(const Point& p) const;

  // Node-level view, for callers that keep per-point state of their own.

  /// Number of nodes: distinct wire endpoints and junction dots.
  std::size_t node_count() const { return nodes_.size(); }
  /// Node id of `p`, or kNone when p is neither a wire endpoint nor a dot.
  std::uint32_t node_of(const Point& p) const { return nodes_.find(p); }
  /// Node ids of wire `id`'s endpoints a and b (equal when zero-length).
  std::uint32_t node_a(std::size_t id) const { return wire_node_[2 * id]; }
  std::uint32_t node_b(std::size_t id) const { return wire_node_[2 * id + 1]; }
  /// True when a live wire ends at node `n`.
  bool is_wire_end(std::uint32_t n) const { return live_ends_[n] != 0; }
  /// True when a junction dot sits at node `n`.
  bool has_dot(std::uint32_t n) const { return dot_[n] != 0; }
  /// Lowest live wire id that contains `p`, or kNone: touching(p).front().
  std::uint32_t first_touching(const Point& p) const;
  /// Call visit(id) for every live wire containing `p`, ascending.
  template <class F>
  void for_each_touching_ascending(const Point& p, F&& visit) const;

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
  /// A row (by y) or column (by x): the axis wires lying along it and the
  /// junction dots on it, each as a chain in insertion order.
  struct Line {
    std::uint32_t wire_head = kNone, wire_tail = kNone;
    std::uint32_t dot_head = kNone, dot_tail = kNone;
  };
  struct Lines {
    base::DenseIds<std::int64_t> ids;
    std::vector<Line> lines;
    Line& at(std::int64_t key);
    const Line* find(std::int64_t key) const;
  };

  void add_wire_at(std::size_t id);
  void add_junction_at(const Point& j);
  std::uint32_t node(const Point& p);
  void chain_end(std::uint32_t node, std::uint32_t slot);
  /// Wire ids along `line` that contain `p`, ascending, one at a time:
  /// returns the first one at or after chain position `at` (kNone at end).
  std::uint32_t next_on_line(std::uint32_t at, const Point& p) const;
  template <class F>
  void for_each_junction_on(const Segment& w, F&& visit) const;

  const Sheet& sheet_;
  base::DenseIds<Point> nodes_;
  // Per node.
  std::vector<std::uint32_t> end_head_, end_tail_;  ///< chain of end slots
  std::vector<std::uint32_t> live_ends_;
  std::vector<std::uint8_t> dot_;
  // Per wire end slot (2 * wire id + 0 for a, + 1 for b): next slot ending
  // at the same node. A zero-length wire chains only its a slot.
  std::vector<std::uint32_t> end_next_;
  std::vector<std::uint32_t> wire_node_;  ///< per end slot: its node
  // Per wire: next wire along the same row or column.
  std::vector<std::uint32_t> line_next_;
  Lines rows_;  ///< by y: horizontal wires, dots
  Lines cols_;  ///< by x: vertical wires, dots
  // Per junction dot (distinct points only): its point and the next dot
  // in the same row and column.
  std::vector<Point> dot_at_;
  std::vector<std::uint32_t> dot_row_next_, dot_col_next_;
  std::vector<std::uint8_t> dead_;
  /// flood() visit stamps: wire id -> epoch of the flood that reached it.
  std::vector<std::uint32_t> mark_;
  std::uint32_t epoch_ = 0;
};

template <class F>
void WireIndex::for_each_touching_ascending(const Point& p,
                                            F&& visit) const {
  // The row chain and the column chain are each ascending, and a wire sits
  // in at most one of them: merge.
  const Line* row = rows_.find(p.y);
  const Line* col = cols_.find(p.x);
  std::uint32_t r = next_on_line(row ? row->wire_head : kNone, p);
  std::uint32_t c = next_on_line(col ? col->wire_head : kNone, p);
  while (r != kNone || c != kNone) {
    if (c == kNone || (r != kNone && r < c)) {
      visit(std::size_t(r));
      r = next_on_line(line_next_[r], p);
    } else {
      visit(std::size_t(c));
      c = next_on_line(line_next_[c], p);
    }
  }
}

}  // namespace interop::sch

#include "schematic/wire_index.hpp"

#include <algorithm>

namespace interop::sch {

WireIndex::Line& WireIndex::Lines::at(std::int64_t key) {
  std::uint32_t id = ids.intern(key);
  if (id == lines.size()) lines.emplace_back();
  return lines[id];
}

const WireIndex::Line* WireIndex::Lines::find(std::int64_t key) const {
  std::uint32_t id = ids.find(key);
  return id == kNone ? nullptr : &lines[id];
}

WireIndex::WireIndex(const Sheet& sheet) : sheet_(sheet) {
  std::size_t wires = sheet.wires.size();
  std::size_t points = 2 * wires + sheet.junctions.size();
  nodes_.reserve(points);
  end_head_.reserve(points);
  end_tail_.reserve(points);
  live_ends_.reserve(points);
  dot_.reserve(points);
  end_next_.reserve(2 * wires);
  wire_node_.reserve(2 * wires);
  line_next_.reserve(wires);
  dead_.reserve(wires);
  rows_.ids.reserve(wires / 2);
  cols_.ids.reserve(wires / 2);
  for (std::size_t i = 0; i < wires; ++i) {
    dead_.push_back(0);
    add_wire_at(i);
  }
  for (const Point& j : sheet.junctions) add_junction_at(j);
}

void WireIndex::add_wire() {
  dead_.push_back(0);
  add_wire_at(sheet_.wires.size() - 1);
}

void WireIndex::add_junction() { add_junction_at(sheet_.junctions.back()); }

std::uint32_t WireIndex::node(const Point& p) {
  std::uint32_t n = nodes_.intern(p);
  if (n == end_head_.size()) {
    end_head_.push_back(kNone);
    end_tail_.push_back(kNone);
    live_ends_.push_back(0);
    dot_.push_back(0);
  }
  return n;
}

void WireIndex::chain_end(std::uint32_t n, std::uint32_t slot) {
  if (end_tail_[n] == kNone)
    end_head_[n] = slot;
  else
    end_next_[end_tail_[n]] = slot;
  end_tail_[n] = slot;
  ++live_ends_[n];
}

void WireIndex::add_wire_at(std::size_t id) {
  const Segment& w = sheet_.wires[id];
  auto id32 = std::uint32_t(id);
  std::uint32_t a = node(w.a);
  std::uint32_t b = node(w.b);
  wire_node_.push_back(a);
  wire_node_.push_back(b);
  end_next_.push_back(kNone);
  end_next_.push_back(kNone);
  chain_end(a, 2 * id32);
  if (b != a) chain_end(b, 2 * id32 + 1);
  line_next_.push_back(kNone);
  Line* line = w.horizontal() ? &rows_.at(w.a.y)
               : w.vertical() ? &cols_.at(w.a.x)
                              : nullptr;
  if (!line) return;
  if (line->wire_tail == kNone)
    line->wire_head = id32;
  else
    line_next_[line->wire_tail] = id32;
  line->wire_tail = id32;
}

void WireIndex::add_junction_at(const Point& j) {
  std::uint32_t n = node(j);
  if (dot_[n]) return;
  dot_[n] = 1;
  auto d = std::uint32_t(dot_at_.size());
  dot_at_.push_back(j);
  dot_row_next_.push_back(kNone);
  dot_col_next_.push_back(kNone);
  auto append = [d](Line& line, std::vector<std::uint32_t>& next) {
    if (line.dot_tail == kNone)
      line.dot_head = d;
    else
      next[line.dot_tail] = d;
    line.dot_tail = d;
  };
  append(rows_.at(j.y), dot_row_next_);
  append(cols_.at(j.x), dot_col_next_);
}

void WireIndex::remove_wire(std::size_t id) {
  if (dead_[id]) return;
  dead_[id] = 1;
  --live_ends_[node_a(id)];
  if (node_b(id) != node_a(id)) --live_ends_[node_b(id)];
}

std::uint32_t WireIndex::next_on_line(std::uint32_t at,
                                      const Point& p) const {
  for (; at != kNone; at = line_next_[at])
    if (!dead_[at] && sheet_.wires[at].contains(p)) return at;
  return kNone;
}

template <class F>
void WireIndex::for_each_junction_on(const Segment& w, F&& visit) const {
  // Same shape test as Segment::contains: a diagonal wire carries no dot.
  bool horizontal = w.horizontal();
  if (!horizontal && !w.vertical()) return;
  const Line* line = horizontal ? rows_.find(w.a.y) : cols_.find(w.a.x);
  if (!line) return;
  const std::vector<std::uint32_t>& next =
      horizontal ? dot_row_next_ : dot_col_next_;
  auto [lo, hi] = horizontal ? std::minmax(w.a.x, w.b.x)
                             : std::minmax(w.a.y, w.b.y);
  for (std::uint32_t d = line->dot_head; d != kNone; d = next[d]) {
    const Point& j = dot_at_[d];
    std::int64_t c = horizontal ? j.x : j.y;
    if (c >= lo && c <= hi) visit(j);
  }
}

std::vector<std::size_t> WireIndex::ending_at(const Point& p) const {
  std::vector<std::size_t> out;
  std::uint32_t n = nodes_.find(p);
  if (n == kNone) return out;
  for (std::uint32_t s = end_head_[n]; s != kNone; s = end_next_[s])
    if (!dead_[s / 2]) out.push_back(s / 2);
  return out;
}

std::vector<std::size_t> WireIndex::touching(const Point& p) const {
  std::vector<std::size_t> out;
  for_each_touching_ascending(p, [&out](std::size_t id) { out.push_back(id); });
  return out;
}

std::uint32_t WireIndex::first_touching(const Point& p) const {
  const Line* row = rows_.find(p.y);
  const Line* col = cols_.find(p.x);
  std::uint32_t r = next_on_line(row ? row->wire_head : kNone, p);
  std::uint32_t c = next_on_line(col ? col->wire_head : kNone, p);
  return std::min(r, c);  // kNone is the largest value
}

bool WireIndex::has_junction(const Point& p) const {
  std::uint32_t n = nodes_.find(p);
  return n != kNone && dot_[n];
}

std::vector<std::size_t> WireIndex::flood(
    const std::vector<std::size_t>& seeds) {
  mark_.resize(dead_.size(), 0);
  if (++epoch_ == 0) {  // stamps wrapped: forget every earlier flood
    std::fill(mark_.begin(), mark_.end(), 0);
    epoch_ = 1;
  }
  std::vector<std::size_t> seen;
  std::vector<std::size_t> work;
  auto reach = [&](std::size_t id) {
    if (mark_[id] == epoch_) return;
    mark_[id] = epoch_;
    seen.push_back(id);
    work.push_back(id);
  };
  for (std::size_t id : seeds) reach(id);
  while (!work.empty()) {
    std::size_t cur = work.back();
    work.pop_back();
    for (std::uint32_t n : {node_a(cur), node_b(cur)})
      for (std::uint32_t s = end_head_[n]; s != kNone; s = end_next_[s])
        if (!dead_[s / 2]) reach(s / 2);
    for_each_junction_on(sheet_.wires[cur], [&](const Point& j) {
      for_each_touching_ascending(j, reach);
    });
  }
  std::sort(seen.begin(), seen.end());
  return seen;
}

}  // namespace interop::sch

#include "schematic/wire_index.hpp"

#include <algorithm>

namespace interop::sch {

std::size_t PointHash::operator()(const Point& p) const {
  std::uint64_t h = std::uint64_t(p.x) * 0x9e3779b97f4a7c15ULL;
  h ^= std::uint64_t(p.y) + 0x7f4a7c159e3779b9ULL + (h << 6) + (h >> 2);
  return std::size_t(h);
}

WireIndex::WireIndex(const Sheet& sheet) : sheet_(sheet) {
  dead_.assign(sheet.wires.size(), 0);
  for (std::size_t i = 0; i < sheet.wires.size(); ++i) add_wire_at(i);
  for (const Point& j : sheet.junctions) add_junction_at(j);
}

void WireIndex::add_wire() {
  dead_.push_back(0);
  add_wire_at(sheet_.wires.size() - 1);
}

void WireIndex::add_junction() { add_junction_at(sheet_.junctions.back()); }

void WireIndex::add_wire_at(std::size_t id) {
  const Segment& w = sheet_.wires[id];
  auto id32 = std::uint32_t(id);
  ends_[w.a].push_back(id32);
  if (w.b != w.a) ends_[w.b].push_back(id32);
  if (w.horizontal())
    rows_[w.a.y].push_back(id32);
  else if (w.vertical())
    cols_[w.a.x].push_back(id32);
}

void WireIndex::add_junction_at(const Point& j) {
  std::vector<std::int64_t>& row = dot_rows_[j.y];
  if (std::find(row.begin(), row.end(), j.x) != row.end()) return;
  row.push_back(j.x);
  dot_cols_[j.x].push_back(j.y);
}

void WireIndex::remove_wire(std::size_t id) { dead_[id] = 1; }

template <class F>
void WireIndex::for_each_touching(const Point& p, F&& visit) const {
  auto scan = [&](const std::unordered_map<std::int64_t, Ids>& buckets,
                  std::int64_t key) {
    auto it = buckets.find(key);
    if (it == buckets.end()) return;
    for (std::uint32_t id : it->second)
      if (!dead_[id] && sheet_.wires[id].contains(p)) visit(std::size_t(id));
  };
  scan(rows_, p.y);
  scan(cols_, p.x);
}

template <class F>
void WireIndex::for_each_junction_on(const Segment& w, F&& visit) const {
  // Same shape test as Segment::contains: a diagonal wire carries no dot.
  bool horizontal = w.horizontal();
  if (!horizontal && !w.vertical()) return;
  const auto& buckets = horizontal ? dot_rows_ : dot_cols_;
  auto it = buckets.find(horizontal ? w.a.y : w.a.x);
  if (it == buckets.end()) return;
  auto [lo, hi] = horizontal ? std::minmax(w.a.x, w.b.x)
                             : std::minmax(w.a.y, w.b.y);
  for (std::int64_t c : it->second) {
    if (c < lo || c > hi) continue;
    visit(horizontal ? Point{c, w.a.y} : Point{w.a.x, c});
  }
}

std::vector<std::size_t> WireIndex::ending_at(const Point& p) const {
  std::vector<std::size_t> out;
  auto it = ends_.find(p);
  if (it == ends_.end()) return out;
  for (std::uint32_t id : it->second)
    if (!dead_[id]) out.push_back(id);
  return out;
}

std::vector<std::size_t> WireIndex::touching(const Point& p) const {
  std::vector<std::size_t> out;
  for_each_touching(p, [&out](std::size_t id) { out.push_back(id); });
  // Each bucket is ascending; a wire sits in at most one of the two.
  std::sort(out.begin(), out.end());
  return out;
}

bool WireIndex::has_junction(const Point& p) const {
  auto it = dot_rows_.find(p.y);
  return it != dot_rows_.end() &&
         std::find(it->second.begin(), it->second.end(), p.x) !=
             it->second.end();
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
    const Segment& w = sheet_.wires[work.back()];
    work.pop_back();
    for (const Point& end : {w.a, w.b}) {
      auto it = ends_.find(end);
      if (it == ends_.end()) continue;
      for (std::uint32_t id : it->second)
        if (!dead_[id]) reach(id);
    }
    for_each_junction_on(
        w, [&](const Point& j) { for_each_touching(j, reach); });
  }
  std::sort(seen.begin(), seen.end());
  return seen;
}

}  // namespace interop::sch

#include "schematic/ripup.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "base/rng.hpp"
#include "schematic/generator.hpp"
#include "schematic/netlist.hpp"

namespace interop::sch {
namespace {

// Figure 1 fixture: a nand2 with wires on all three pins, replaced by a
// target nand2 with different pin positions and names.
class RipupFixture : public ::testing::Test {
 protected:
  RipupFixture() : design(viewlogic_dialect().grid) {
    add_source_library(design, "top", {});
    for (const SymbolDef& def : make_target_library()) design.add_symbol(def);
    map = make_standard_symbol_map();

    sheet.number = 1;
    Instance u1;
    u1.name = "U1";
    u1.symbol = {"vl_lib", "vl_nand2", "sym"};
    u1.placement = Transform(base::Orient::R0, {20, 20});
    sheet.instances.push_back(u1);
    // vl_nand2 pins: A(20,23) B(20,21) Y(26,22).
    sheet.wires.push_back({{10, 23}, {20, 23}});  // into A
    sheet.wires.push_back({{10, 21}, {20, 21}});  // into B
    sheet.wires.push_back({{26, 22}, {36, 22}});  // out of Y
    sheet.wires.push_back({{36, 22}, {36, 30}});  // Y net continues
    NetLabel l{"out", {36, 30}, {}};
    sheet.labels.push_back(l);
  }

  const SymbolMapEntry& entry() {
    return *map.find({"vl_lib", "vl_nand2", "sym"});
  }
  const SymbolDef& source() {
    return *design.find_symbol({"vl_lib", "vl_nand2", "sym"});
  }
  const SymbolDef& target() {
    return *design.find_symbol({"cd_lib", "cd_nand2", "symbol"});
  }

  Design design;
  SymbolMap map;
  Sheet sheet;
  RipupStats stats;
  base::DiagnosticEngine diags;
};

TEST_F(RipupFixture, MinimalRipsOnlyPinSegments) {
  Sheet before = sheet;
  ASSERT_TRUE(replace_component(sheet, "U1", entry(), source(), target(),
                                RipupPolicy::Minimal, stats, diags));
  EXPECT_EQ(stats.instances_replaced, 1u);
  // Three segments touch pins; the Y-net extension (36,22)-(36,30) survives.
  EXPECT_EQ(stats.segments_ripped, 3u);
  EXPECT_EQ(stats.fullnet_would_rip, 4u);
  EXPECT_GT(stats.segments_rerouted, 0u);
  // Graphical similarity: only wires near the replaced part changed.
  EXPECT_GT(graphical_similarity(before, sheet), 0.2);
  EXPECT_FALSE(diags.has_errors());
}

TEST_F(RipupFixture, FullNetRipsWholeNets) {
  ASSERT_TRUE(replace_component(sheet, "U1", entry(), source(), target(),
                                RipupPolicy::FullNet, stats, diags));
  EXPECT_EQ(stats.segments_ripped, 4u);  // includes the Y-net extension
}

TEST_F(RipupFixture, ConnectivityPreservedAfterReplacement) {
  // Attach a second instance so the Y net has two pins.
  Instance u2;
  u2.name = "U2";
  u2.symbol = {"vl_lib", "vl_inv", "sym"};
  u2.placement = Transform(base::Orient::R0, {36, 28});
  // vl_inv pin A at local (0,2) -> (36,30): on the Y-net end.
  sheet.instances.push_back(u2);

  Schematic sch;
  sch.cell = "top";
  sch.sheets.push_back(sheet);
  Netlist before =
      extract_netlist(design, sch, viewlogic_dialect(), diags);
  ASSERT_TRUE(before.nets.count("out"));
  ASSERT_EQ(before.nets.at("out").connections.size(), 2u);

  ASSERT_TRUE(replace_component(sch.sheets[0], "U1", entry(), source(),
                                target(), RipupPolicy::Minimal, stats,
                                diags));
  Netlist after = extract_netlist(design, sch, viewlogic_dialect(), diags);
  ASSERT_TRUE(after.nets.count("out"));
  // Same net, with the replaced instance's pin renamed by the pin map.
  std::set<NetConnection> want{{"U1", "OUT"}, {"U2", "A"}};
  EXPECT_EQ(after.nets.at("out").connections, want);
}

TEST_F(RipupFixture, ReplacementWithRotationAndOffset) {
  SymbolMapEntry e = entry();
  e.origin_offset = {2, 1};
  e.rotation = base::Orient::R90;
  ASSERT_TRUE(replace_component(sheet, "U1", e, source(), target(),
                                RipupPolicy::Minimal, stats, diags));
  auto idx = sheet.find_instance("U1");
  ASSERT_TRUE(idx.has_value());
  const Instance& inst = sheet.instances[*idx];
  EXPECT_EQ(inst.symbol, (SymbolKey{"cd_lib", "cd_nand2", "symbol"}));
  EXPECT_EQ(inst.placement.orient(), base::Orient::R90);
  // Wires were rerouted to the rotated pin positions.
  const SymbolPin* out_pin = target().find_pin("OUT");
  Point new_out = inst.placement.apply(out_pin->pos);
  bool touches = false;
  for (const Segment& w : sheet.wires)
    if (w.a == new_out || w.b == new_out) touches = true;
  EXPECT_TRUE(touches);
}

TEST_F(RipupFixture, MissingTargetPinReportsError) {
  SymbolMapEntry e = entry();
  e.pin_map["A"] = "NO_SUCH_PIN";
  replace_component(sheet, "U1", e, source(), target(), RipupPolicy::Minimal,
                    stats, diags);
  EXPECT_EQ(diags.count_code("pin-map-missing"), 1u);
}

TEST_F(RipupFixture, UnknownInstanceReturnsFalse) {
  EXPECT_FALSE(replace_component(sheet, "NOPE", entry(), source(), target(),
                                 RipupPolicy::Minimal, stats, diags));
}

// ---------------------------------------------------------------------------
// Differential oracle: the whole-sheet-scan rip-up that the wire index
// replaced. Its flood rescans every wire for each wire reached and, for each
// pair, every junction (O(W^2 * J)); its replacement erases each ripped wire
// at once. The index-based SheetRipup must produce the same sheets, stats
// and diagnostics, wire order included.
namespace oracle {

std::set<std::size_t> flood(const Sheet& sheet,
                            const std::set<std::size_t>& seeds) {
  std::set<std::size_t> seen = seeds;
  std::vector<std::size_t> work(seeds.begin(), seeds.end());
  auto joined = [&sheet](const Segment& a, const Segment& b) {
    if (a.a == b.a || a.a == b.b || a.b == b.a || a.b == b.b) return true;
    for (const Point& j : sheet.junctions)
      if (a.contains(j) && b.contains(j)) return true;
    return false;
  };
  while (!work.empty()) {
    std::size_t cur = work.back();
    work.pop_back();
    for (std::size_t i = 0; i < sheet.wires.size(); ++i) {
      if (seen.count(i)) continue;
      if (joined(sheet.wires[cur], sheet.wires[i])) {
        seen.insert(i);
        work.push_back(i);
      }
    }
  }
  return seen;
}

std::int64_t route_l(Sheet& sheet, const Point& from, const Point& to,
                     const Rect& avoid, RipupStats& stats) {
  if (from == to) return 0;
  if (from.x == to.x || from.y == to.y) {
    sheet.wires.push_back({from, to});
    ++stats.segments_rerouted;
    return base::manhattan(from, to);
  }
  Point corner1{to.x, from.y};
  Point corner2{from.x, to.y};
  Point corner = avoid.contains(corner1) && !avoid.contains(corner2)
                     ? corner2
                     : corner1;
  sheet.wires.push_back({from, corner});
  sheet.wires.push_back({corner, to});
  stats.segments_rerouted += 2;
  return base::manhattan(from, corner) + base::manhattan(corner, to);
}

void replace(Sheet& sheet, std::size_t idx, const SymbolMapEntry& entry,
             const SymbolDef& from_def, const SymbolDef& to_def,
             RipupPolicy policy, RipupStats& stats,
             base::DiagnosticEngine& diags) {
  Instance& inst = sheet.instances[idx];
  struct PinWork {
    std::string from_pin, to_pin;
    Point old_pos;
    std::vector<std::size_t> ripped;
    std::vector<Point> stubs;
  };
  std::vector<PinWork> work;
  std::set<std::size_t> seeds;
  for (const SymbolPin& pin : from_def.pins) {
    PinWork w;
    w.from_pin = pin.name;
    w.to_pin = SymbolMap::map_pin(entry, pin.name);
    w.old_pos = inst.placement.apply(pin.pos);
    for (std::size_t i = 0; i < sheet.wires.size(); ++i) {
      const Segment& s = sheet.wires[i];
      if (s.a == w.old_pos || s.b == w.old_pos) {
        w.ripped.push_back(i);
        w.stubs.push_back(s.a == w.old_pos ? s.b : s.a);
        seeds.insert(i);
      }
    }
    work.push_back(std::move(w));
  }
  std::set<std::size_t> full = flood(sheet, seeds);
  stats.fullnet_would_rip += full.size();
  const std::set<std::size_t>& to_rip =
      policy == RipupPolicy::Minimal ? seeds : full;
  stats.segments_ripped += to_rip.size();

  struct NetRebuild {
    std::string to_pin;
    std::vector<std::string> other_pins;
    std::vector<Point> anchors;
  };
  std::vector<NetRebuild> rebuilds;
  if (policy == RipupPolicy::FullNet) {
    std::set<std::size_t> assigned;
    for (const PinWork& w : work) {
      if (w.ripped.empty()) continue;
      std::set<std::size_t> group =
          flood(sheet, {w.ripped.begin(), w.ripped.end()});
      bool fresh = true;
      for (std::size_t i : group)
        if (assigned.count(i)) fresh = false;
      if (!fresh) continue;
      assigned.insert(group.begin(), group.end());
      NetRebuild rb;
      rb.to_pin = w.to_pin;
      std::map<Point, int> uses;
      for (std::size_t i : group) {
        ++uses[sheet.wires[i].a];
        ++uses[sheet.wires[i].b];
      }
      std::set<Point> old_pins;
      for (const PinWork& ww : work) old_pins.insert(ww.old_pos);
      for (const PinWork& ww : work) {
        if (&ww == &w || ww.ripped.empty()) continue;
        if (uses.count(ww.old_pos)) rb.other_pins.push_back(ww.to_pin);
      }
      for (const auto& [pt, count] : uses)
        if (!old_pins.count(pt) && count == 1) rb.anchors.push_back(pt);
      for (const NetLabel& label : sheet.labels) {
        bool on_group = false;
        for (std::size_t i : group)
          if (sheet.wires[i].contains(label.at)) on_group = true;
        if (on_group && !old_pins.count(label.at))
          rb.anchors.push_back(label.at);
      }
      std::sort(rb.anchors.begin(), rb.anchors.end());
      rb.anchors.erase(std::unique(rb.anchors.begin(), rb.anchors.end()),
                       rb.anchors.end());
      rebuilds.push_back(std::move(rb));
    }
  }

  std::vector<std::size_t> ripped(to_rip.begin(), to_rip.end());
  std::sort(ripped.rbegin(), ripped.rend());
  for (std::size_t i : ripped)
    sheet.wires.erase(sheet.wires.begin() + static_cast<std::ptrdiff_t>(i));

  inst.symbol = entry.to;
  inst.placement =
      Transform(entry.rotation, entry.origin_offset) * inst.placement;
  Rect body = inst.placement.apply(to_def.body);

  if (policy == RipupPolicy::FullNet) {
    for (const NetRebuild& rb : rebuilds) {
      const SymbolPin* new_pin = to_def.find_pin(rb.to_pin);
      if (!new_pin) {
        diags.error("pin-map-missing", rb.to_pin, {"sch.replace", inst.name});
        continue;
      }
      Point cur = inst.placement.apply(new_pin->pos);
      std::vector<Point> chain = rb.anchors;
      for (const std::string& other : rb.other_pins)
        if (const SymbolPin* p = to_def.find_pin(other))
          chain.push_back(inst.placement.apply(p->pos));
      for (const Point& anchor : chain) {
        if (cur == anchor) continue;
        std::int64_t lane = stats.next_rebuild_lane;
        stats.next_rebuild_lane -= 2;
        Point down_a{cur.x, lane};
        Point down_b{anchor.x, lane};
        sheet.wires.push_back({cur, down_a});
        ++stats.segments_rerouted;
        stats.reroute_length += base::manhattan(cur, down_a);
        if (down_a != down_b) {
          sheet.wires.push_back({down_a, down_b});
          ++stats.segments_rerouted;
          stats.reroute_length += base::manhattan(down_a, down_b);
        }
        sheet.wires.push_back({down_b, anchor});
        ++stats.segments_rerouted;
        stats.reroute_length += base::manhattan(down_b, anchor);
        cur = anchor;
      }
    }
    ++stats.instances_replaced;
    return;
  }

  for (const PinWork& w : work) {
    const SymbolPin* new_pin = to_def.find_pin(w.to_pin);
    if (!new_pin) {
      if (!w.stubs.empty())
        diags.error("pin-map-missing", w.to_pin, {"sch.replace", inst.name});
      continue;
    }
    Point new_pos = inst.placement.apply(new_pin->pos);
    for (const Point& stub : w.stubs)
      stats.reroute_length += route_l(sheet, stub, new_pos, body, stats);
    if (w.stubs.size() > 1) sheet.junctions.push_back(new_pos);
  }
  ++stats.instances_replaced;
}

/// Linear-scan answers to the WireIndex queries, over live wires only.
std::vector<std::size_t> ending_at(const Sheet& sheet,
                                   const std::vector<bool>& dead,
                                   const Point& p) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < sheet.wires.size(); ++i)
    if (!dead[i] && (sheet.wires[i].a == p || sheet.wires[i].b == p))
      out.push_back(i);
  return out;
}

std::vector<std::size_t> touching(const Sheet& sheet,
                                  const std::vector<bool>& dead,
                                  const Point& p) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < sheet.wires.size(); ++i)
    if (!dead[i] && sheet.wires[i].contains(p)) out.push_back(i);
  return out;
}

}  // namespace oracle

constexpr std::int64_t kSpan = 12;  // random geometry lives in [0, kSpan]^2

/// A small random sheet dense in coincidences: axis-parallel, zero-length,
/// diagonal and duplicate wires, many ending on pins; junction dots on
/// wire interiors (tees and crossings), on endpoints and in empty space,
/// some repeated; labels on wires; and a wire joining two pins of one
/// instance.
Sheet random_sheet(std::uint64_t seed, const Design& lib) {
  base::Rng rng(seed);
  Sheet sheet;
  const std::vector<std::string> kinds = {"vl_nand2", "vl_inv", "vl_res",
                                          "vl_cap"};
  std::vector<Point> pins;
  int instances = int(rng.uniform(1, 5));
  for (int i = 0; i < instances; ++i) {
    Instance inst;
    inst.name = "U" + std::to_string(i + 1);
    inst.symbol = {"vl_lib", rng.pick(kinds), "sym"};
    inst.placement =
        Transform(base::Orient::R0, {rng.uniform(0, 8), rng.uniform(0, 8)});
    for (const SymbolPin& pin : lib.find_symbol(inst.symbol)->pins)
      pins.push_back(inst.placement.apply(pin.pos));
    sheet.instances.push_back(std::move(inst));
  }
  auto coord = [&rng] { return rng.uniform(0, kSpan); };
  auto point = [&] {
    return rng.chance(0.4) ? rng.pick(pins) : Point{coord(), coord()};
  };
  int wires = int(rng.uniform(3, 28));
  for (int k = 0; k < wires; ++k) {
    Point a = point();
    switch (rng.index(10)) {
      case 8:
        sheet.wires.push_back({a, a});
        break;
      case 9:
        sheet.wires.push_back(
            {a, {a.x + rng.uniform(1, 3), a.y + rng.uniform(1, 3)}});
        break;
      default:
        sheet.wires.push_back(rng.chance(0.5) ? Segment{a, {coord(), a.y}}
                                              : Segment{a, {a.x, coord()}});
    }
    if (rng.chance(0.1)) sheet.wires.push_back(sheet.wires.back());
  }
  // Every source pair of pins of one symbol is axis-aligned.
  const SymbolDef* first = lib.find_symbol(sheet.instances[0].symbol);
  sheet.wires.push_back(
      {sheet.instances[0].placement.apply(first->pins[0].pos),
       sheet.instances[0].placement.apply(first->pins[1].pos)});

  auto point_on = [&](const Segment& w) {
    if (w.horizontal())
      return Point{rng.uniform(std::min(w.a.x, w.b.x), std::max(w.a.x, w.b.x)),
                   w.a.y};
    if (w.vertical())
      return Point{w.a.x,
                   rng.uniform(std::min(w.a.y, w.b.y), std::max(w.a.y, w.b.y))};
    return w.a;
  };
  int dots = int(rng.uniform(0, 8));
  for (int k = 0; k < dots; ++k) {
    if (rng.chance(0.8))
      sheet.junctions.push_back(point_on(rng.pick(sheet.wires)));
    else
      sheet.junctions.push_back({coord(), coord()});
    if (rng.chance(0.1)) sheet.junctions.push_back(sheet.junctions.back());
  }
  int labels = int(rng.uniform(0, 3));
  for (int k = 0; k < labels; ++k) {
    NetLabel l;
    l.text = "n" + std::to_string(k);
    l.at = point_on(rng.pick(sheet.wires));
    sheet.labels.push_back(l);
  }
  return sheet;
}

class RipupOracle : public ::testing::Test {
 protected:
  RipupOracle() : lib(viewlogic_dialect().grid) {
    add_source_library(lib, "top", {});
    for (const SymbolDef& def : make_target_library()) lib.add_symbol(def);
    map = make_standard_symbol_map();
  }

  /// Replace every instance of `sheet` in order, through `replace_one`.
  template <class F>
  RipupStats replace_all(Sheet& sheet, const SymbolMap& with,
                         base::DiagnosticEngine& diags, F&& replace_one) {
    RipupStats stats;
    for (std::size_t i = 0; i < sheet.instances.size(); ++i) {
      const SymbolMapEntry& e = *with.find(sheet.instances[i].symbol);
      replace_one(i, e, *lib.find_symbol(e.from), *lib.find_symbol(e.to),
                  stats, diags);
    }
    return stats;
  }

  Design lib;
  SymbolMap map;
};

void expect_same(const Sheet& want, const Sheet& got, const RipupStats& ws,
                 const RipupStats& gs, const base::DiagnosticEngine& wd,
                 const base::DiagnosticEngine& gd, const std::string& ctx) {
  EXPECT_EQ(want.wires, got.wires) << ctx;
  EXPECT_EQ(want.junctions, got.junctions) << ctx;
  ASSERT_EQ(want.instances.size(), got.instances.size()) << ctx;
  for (std::size_t i = 0; i < want.instances.size(); ++i) {
    EXPECT_EQ(want.instances[i].symbol, got.instances[i].symbol) << ctx;
    EXPECT_EQ(want.instances[i].placement.offset(),
              got.instances[i].placement.offset())
        << ctx;
    EXPECT_EQ(want.instances[i].placement.orient(),
              got.instances[i].placement.orient())
        << ctx;
  }
  EXPECT_EQ(ws.instances_replaced, gs.instances_replaced) << ctx;
  EXPECT_EQ(ws.segments_ripped, gs.segments_ripped) << ctx;
  EXPECT_EQ(ws.segments_rerouted, gs.segments_rerouted) << ctx;
  EXPECT_EQ(ws.fullnet_would_rip, gs.fullnet_would_rip) << ctx;
  EXPECT_EQ(ws.reroute_length, gs.reroute_length) << ctx;
  EXPECT_EQ(ws.next_rebuild_lane, gs.next_rebuild_lane) << ctx;
  EXPECT_EQ(wd.count_code("pin-map-missing"), gd.count_code("pin-map-missing"))
      << ctx;
}

TEST_F(RipupOracle, IndexFloodMatchesWholeSheetScan) {
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    Sheet sheet = random_sheet(seed, lib);
    WireIndex index(sheet);
    base::Rng rng(seed * 7919);
    for (int trial = 0; trial < 6; ++trial) {
      std::set<std::size_t> seeds;
      int n = int(rng.uniform(1, 3));
      for (int k = 0; k < n; ++k) seeds.insert(rng.index(sheet.wires.size()));
      std::set<std::size_t> want = oracle::flood(sheet, seeds);
      std::vector<std::size_t> got =
          index.flood({seeds.begin(), seeds.end()});
      EXPECT_EQ(std::vector<std::size_t>(want.begin(), want.end()), got)
          << "seed " << seed;
    }
  }
}

TEST_F(RipupOracle, ReplacementSequencesMatchEagerErase) {
  // Every third seed maps nand2 pin A to a pin the target lacks, so the
  // pin-map-missing paths run too.
  SymbolMap broken;
  for (SymbolKey key : {SymbolKey{"vl_lib", "vl_nand2", "sym"},
                        SymbolKey{"vl_lib", "vl_inv", "sym"},
                        SymbolKey{"vl_lib", "vl_res", "sym"},
                        SymbolKey{"vl_lib", "vl_cap", "sym"}}) {
    SymbolMapEntry e = *map.find(key);
    if (e.pin_map.count("A")) e.pin_map["A"] = "NO_SUCH_PIN";
    broken.add(e);
  }
  std::size_t missing_pins = 0, nets_beyond_seeds = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    const SymbolMap& with = seed % 3 == 0 ? broken : map;
    for (RipupPolicy policy : {RipupPolicy::Minimal, RipupPolicy::FullNet}) {
      const Sheet start = random_sheet(seed, lib);
      std::string ctx = "seed " + std::to_string(seed) +
                        (policy == RipupPolicy::Minimal ? " minimal"
                                                        : " full-net");
      Sheet want = start;
      base::DiagnosticEngine want_diags;
      RipupStats want_stats = replace_all(
          want, with, want_diags,
          [&](std::size_t i, const SymbolMapEntry& e, const SymbolDef& from,
              const SymbolDef& to, RipupStats& stats,
              base::DiagnosticEngine& diags) {
            oracle::replace(want, i, e, from, to, policy, stats, diags);
          });
      missing_pins += want_diags.count_code("pin-map-missing");
      if (want_stats.fullnet_would_rip > want_stats.segments_ripped)
        ++nets_beyond_seeds;

      // One index across the whole sequence, compacted at the end.
      Sheet shared = start;
      base::DiagnosticEngine shared_diags;
      RipupStats shared_stats;
      {
        SheetRipup ripup(shared);
        shared_stats = replace_all(
            shared, with, shared_diags,
            [&](std::size_t i, const SymbolMapEntry& e, const SymbolDef& from,
                const SymbolDef& to, RipupStats& stats,
                base::DiagnosticEngine& diags) {
              ripup.replace(i, e, from, to, policy, stats, diags);
            });
      }
      expect_same(want, shared, want_stats, shared_stats, want_diags,
                  shared_diags, ctx + " shared index");

      // A one-shot index per replacement.
      Sheet oneshot = start;
      base::DiagnosticEngine oneshot_diags;
      RipupStats oneshot_stats = replace_all(
          oneshot, with, oneshot_diags,
          [&](std::size_t i, const SymbolMapEntry& e, const SymbolDef& from,
              const SymbolDef& to, RipupStats& stats,
              base::DiagnosticEngine& diags) {
            EXPECT_TRUE(replace_component(oneshot, oneshot.instances[i].name,
                                          e, from, to, policy, stats, diags));
          });
      expect_same(want, oneshot, want_stats, oneshot_stats, want_diags,
                  oneshot_diags, ctx + " one-shot");
    }
  }
  // The random sheets must reach the paths under comparison.
  EXPECT_GT(missing_pins, 0u);
  EXPECT_GT(nets_beyond_seeds, 0u);
}

/// Compare every WireIndex query with a linear scan, at every point of the
/// random geometry's span, including what diagonals and pins add to it.
void expect_queries_match(const Sheet& sheet, const WireIndex& index,
                          const std::vector<bool>& dead,
                          const std::string& ctx) {
  for (std::int64_t x = -1; x <= kSpan + 6; ++x) {
    for (std::int64_t y = -1; y <= kSpan + 6; ++y) {
      Point p{x, y};
      EXPECT_EQ(index.ending_at(p), oracle::ending_at(sheet, dead, p))
          << ctx << " at " << x << "," << y;
      EXPECT_EQ(index.touching(p), oracle::touching(sheet, dead, p))
          << ctx << " at " << x << "," << y;
      EXPECT_EQ(index.has_junction(p),
                std::find(sheet.junctions.begin(), sheet.junctions.end(), p) !=
                    sheet.junctions.end())
          << ctx << " at " << x << "," << y;
    }
  }
}

TEST_F(RipupOracle, IndexQueriesMatchLinearScans) {
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    Sheet sheet = random_sheet(seed, lib);
    WireIndex index(sheet);
    std::vector<bool> dead(sheet.wires.size(), false);
    expect_queries_match(sheet, index, dead, "seed " + std::to_string(seed));

    // Follow edits: remove some wires, append others and new dots.
    base::Rng rng(seed * 104729);
    for (int k = 0; k < 5; ++k) {
      std::size_t id = rng.index(sheet.wires.size());
      index.remove_wire(id);
      dead[id] = true;
      Point a{rng.uniform(0, kSpan), rng.uniform(0, kSpan)};
      sheet.wires.push_back({a, {rng.uniform(0, kSpan), a.y}});
      index.add_wire();
      dead.push_back(false);
      sheet.junctions.push_back(a);
      index.add_junction();
    }
    expect_queries_match(sheet, index, dead,
                         "edited seed " + std::to_string(seed));
  }
}

TEST(GraphicalSimilarity, IdenticalSheetsScoreOne) {
  Sheet s;
  s.wires.push_back({{0, 0}, {5, 0}});
  Instance i;
  i.name = "U1";
  s.instances.push_back(i);
  EXPECT_DOUBLE_EQ(graphical_similarity(s, s), 1.0);
}

TEST(GraphicalSimilarity, EmptySheetScoresOne) {
  Sheet a, b;
  EXPECT_DOUBLE_EQ(graphical_similarity(a, b), 1.0);
}

}  // namespace
}  // namespace interop::sch

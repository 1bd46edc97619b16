// Differential test for netlist extraction, comparison and verification.
//
// extract_netlist, compare_netlists and verify_migration answer from one
// flat connectivity pass per sheet (node ids cached in the WireIndex,
// groups kept in a vector by root, anonymous nets matched by a signature
// hash). The oracle below is the straightforward form they replaced: a
// point -> id hash map with a lookup per use, wire queries by linear scan
// of the sheet, std::map groups sorted as objects, signature strings built
// for every anonymous net, and a deep copy of every golden net. The test
// draws random sheets dense in the cases that decide connectivity and
// requires both forms to agree exactly: every Netlist field, the full
// diagnostic sequence in order, and every NetlistDiff.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <set>
#include <unordered_map>

#include "base/dense_ids.hpp"
#include "base/rng.hpp"
#include "base/strings.hpp"
#include "schematic/generator.hpp"
#include "schematic/migrate.hpp"
#include "schematic/netlist.hpp"
#include "schematic/wire_index.hpp"

namespace interop::sch {
namespace {

namespace oracle {

class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(std::size_t a, std::size_t b) { parent_[find(a)] = find(b); }

 private:
  std::vector<std::size_t> parent_;
};

/// Wire queries by linear scan of the sheet.
std::vector<std::size_t> ending_at(const Sheet& sheet, const Point& p) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < sheet.wires.size(); ++i)
    if (sheet.wires[i].a == p || sheet.wires[i].b == p) out.push_back(i);
  return out;
}

std::vector<std::size_t> touching(const Sheet& sheet, const Point& p) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < sheet.wires.size(); ++i)
    if (sheet.wires[i].contains(p)) out.push_back(i);
  return out;
}

bool has_junction(const Sheet& sheet, const Point& p) {
  return std::find(sheet.junctions.begin(), sheet.junctions.end(), p) !=
         sheet.junctions.end();
}

class SheetNodes {
 public:
  explicit SheetNodes(const Sheet& sheet) {
    for (const Segment& w : sheet.wires) {
      id_of(w.a);
      id_of(w.b);
    }
    for (const Point& j : sheet.junctions) id_of(j);
  }

  std::size_t id_of(const Point& p) {
    auto [it, added] = ids_.try_emplace(p, next_);
    if (added) ++next_;
    return it->second;
  }

  std::size_t count() const { return next_; }

 private:
  std::unordered_map<Point, std::size_t, base::PointHash> ids_;
  std::size_t next_ = 0;
};

struct WireGroup {
  std::set<NetConnection> connections;
  std::vector<std::string> label_texts;
  std::vector<std::string> offpage_names;
  std::vector<std::string> global_names;
  std::vector<std::pair<std::string, PinDir>> ports;
  Point anchor{0, 0};
  bool has_anchor = false;

  void note_point(const Point& p) {
    if (!has_anchor || p < anchor) {
      anchor = p;
      has_anchor = true;
    }
  }
};

PinDir dir_from_text(const std::string& s) {
  if (s == "input") return PinDir::Input;
  if (s == "output") return PinDir::Output;
  return PinDir::Inout;
}

Netlist extract_netlist(const Design& design, const Schematic& sch,
                        const Dialect& dialect,
                        base::DiagnosticEngine& diags) {
  Netlist out;
  out.cell = sch.cell;

  const SymbolDef* cell_symbol = nullptr;
  for (const auto& [key, def] : design.symbols())
    if (key.cell == sch.cell && def.role == SymbolRole::Component)
      cell_symbol = &def;

  std::vector<std::string> known_buses;
  for (const Sheet& sheet : sch.sheets) {
    for (const NetLabel& label : sheet.labels) {
      NetRef ref = parse_net_ref(label.text, dialect);
      if (ref.range) known_buses.push_back(ref.base);
    }
  }
  std::sort(known_buses.begin(), known_buses.end());
  known_buses.erase(std::unique(known_buses.begin(), known_buses.end()),
                    known_buses.end());

  struct SheetGroups {
    int page;
    std::vector<WireGroup> groups;
  };
  std::vector<SheetGroups> all_groups;

  for (const Sheet& sheet : sch.sheets) {
    SheetNodes nodes(sheet);
    const std::string page_obj = "page" + std::to_string(sheet.number);

    struct PinSite {
      std::size_t node;
      const Instance* inst;
      const SymbolDef* def;
      const SymbolPin* pin;
      Point pos;
    };
    std::vector<PinSite> pin_sites;

    for (const Instance& inst : sheet.instances) {
      const SymbolDef* def = design.find_symbol(inst.symbol);
      if (!def) {
        diags.error("unknown-symbol",
                    "instance " + inst.name + " references missing symbol " +
                        inst.symbol.str(),
                    {"sch.extract", page_obj + "/" + inst.name});
        continue;
      }
      for (const SymbolPin& pin : def->pins) {
        Point pos = inst.placement.apply(pin.pos);
        pin_sites.push_back({nodes.id_of(pos), &inst, def, &pin, pos});
      }
    }

    struct LabelSite {
      std::size_t node;
      const NetLabel* label;
    };
    std::vector<LabelSite> label_sites;
    for (const NetLabel& label : sheet.labels)
      label_sites.push_back({nodes.id_of(label.at), &label});

    UnionFind uf(nodes.count());
    for (const Segment& w : sheet.wires)
      uf.unite(nodes.id_of(w.a), nodes.id_of(w.b));

    for (const Point& j : sheet.junctions) {
      std::size_t jid = nodes.id_of(j);
      for (std::size_t si : touching(sheet, j))
        uf.unite(jid, nodes.id_of(sheet.wires[si].a));
    }

    std::vector<std::size_t> pins_at(nodes.count(), 0);
    for (const PinSite& site : pin_sites) ++pins_at[site.node];

    for (const PinSite& site : pin_sites) {
      bool wired = false;
      if (!ending_at(sheet, site.pos).empty()) {
        wired = true;
      } else if (!touching(sheet, site.pos).empty()) {
        if (has_junction(sheet, site.pos))
          wired = true;
        else
          diags.warn("pin-crosses-wire",
                     "pin " + site.inst->name + "." + site.pin->name +
                         " lies on a wire interior without a junction; "
                         "not connected",
                     {"sch.extract", page_obj + "/" + site.inst->name});
      }
      if (!wired) {
        if (pins_at[site.node] == 1)
          diags.note("dangling-pin",
                     "pin " + site.inst->name + "." + site.pin->name +
                         " is unconnected",
                     {"sch.extract", page_obj + "/" + site.inst->name});
      }
    }

    for (const LabelSite& site : label_sites) {
      std::vector<std::size_t> segs = touching(sheet, site.label->at);
      if (segs.empty()) {
        diags.warn("floating-label",
                   "label '" + site.label->text + "' is not on any wire",
                   {"sch.extract", page_obj});
      } else {
        uf.unite(site.node, nodes.id_of(sheet.wires[segs.front()].a));
      }
    }

    std::map<std::size_t, WireGroup> groups;
    for (const Segment& w : sheet.wires) {
      WireGroup& g = groups[uf.find(nodes.id_of(w.a))];
      g.note_point(w.a);
      g.note_point(w.b);
    }
    for (const PinSite& site : pin_sites) {
      WireGroup& g = groups[uf.find(site.node)];
      g.note_point(site.pos);
      const Instance& inst = *site.inst;
      const SymbolDef* def = site.def;
      switch (def->role) {
        case SymbolRole::Component:
          g.connections.insert({inst.name, site.pin->name});
          break;
        case SymbolRole::HierPort:
          g.ports.emplace_back(
              inst.props.get_text("port", inst.name),
              dir_from_text(inst.props.get_text("dir", "inout")));
          break;
        case SymbolRole::OffPage:
          g.offpage_names.push_back(inst.props.get_text("net", inst.name));
          break;
        case SymbolRole::GlobalNet:
          g.global_names.push_back(
              def->default_props.get_text("global_net", def->key.cell));
          break;
      }
    }
    for (const LabelSite& site : label_sites) {
      groups[uf.find(site.node)].label_texts.push_back(site.label->text);
    }

    SheetGroups sg;
    sg.page = sheet.number;
    for (auto& [root, g] : groups) sg.groups.push_back(std::move(g));
    std::sort(sg.groups.begin(), sg.groups.end(),
              [](const WireGroup& a, const WireGroup& b) {
                return a.anchor < b.anchor;
              });
    all_groups.push_back(std::move(sg));
  }

  std::map<std::string, std::set<int>> name_pages;
  if (!dialect.implicit_offpage_by_name) {
    for (const SheetGroups& sg : all_groups) {
      for (const WireGroup& g : sg.groups) {
        for (const std::string& text : g.label_texts) {
          NetRef ref = parse_net_ref(text, dialect, known_buses);
          for (const std::string& bit : canonical_bits(ref))
            name_pages[bit].insert(sg.page);
        }
        for (const std::string& on : g.offpage_names) {
          NetRef ref = parse_net_ref(on, dialect, known_buses);
          for (const std::string& bit : canonical_bits(ref))
            name_pages[bit].insert(sg.page);
        }
      }
    }
  }

  int anon_counter = 0;
  auto add_connections = [&out](const std::string& canon, bool named,
                                bool global, const WireGroup& g) {
    ExtractedNet& net = out.nets[canon];
    net.canonical = canon;
    net.named = net.named || named;
    net.global = net.global || global;
    for (const NetConnection& c : g.connections) net.connections.insert(c);
  };

  for (const SheetGroups& sg : all_groups) {
    for (const WireGroup& g : sg.groups) {
      std::vector<std::pair<std::string, bool>> names;

      for (const std::string& text : g.label_texts) {
        NetRef ref = parse_net_ref(text, dialect, known_buses);
        bool global = false;
        NetRef cleaned = ref;
        if (!dialect.global_suffix.empty() &&
            base::ends_with(cleaned.base, dialect.global_suffix)) {
          global = true;
          cleaned.base = cleaned.base.substr(
              0, cleaned.base.size() - dialect.global_suffix.size());
        }
        for (const std::string& bit : canonical_bits(cleaned))
          names.emplace_back(bit, global);
      }
      for (const std::string& gn : g.global_names)
        names.emplace_back(gn, true);
      for (const std::string& on : g.offpage_names) {
        NetRef ref = parse_net_ref(on, dialect, known_buses);
        for (const std::string& bit : canonical_bits(ref))
          names.emplace_back(bit, false);
      }

      if (names.empty() && !g.ports.empty()) {
        for (const auto& [pname, pdir] : g.ports) {
          (void)pdir;
          NetRef pref = parse_net_ref(pname, dialect, known_buses);
          for (const std::string& bit : canonical_bits(pref))
            names.emplace_back(bit, false);
        }
      }

      if (names.empty()) {
        std::string anon = "$anon" + std::to_string(anon_counter++);
        add_connections(anon, false, false, g);
        continue;
      }

      std::vector<std::string> resolved;
      for (auto& [canon, global] : names) {
        bool design_wide = global || dialect.implicit_offpage_by_name ||
                           !g.offpage_names.empty();
        bool multipage = !design_wide && name_pages[canon].size() > 1;
        std::string scoped =
            multipage ? canon + "@p" + std::to_string(sg.page) : canon;
        add_connections(scoped, true, global, g);
        resolved.push_back(std::move(scoped));
      }

      for (const auto& [pname, pdir] : g.ports) {
        (void)pname;
        ExtractedNet& net = out.nets[resolved.front()];
        net.canonical = resolved.front();
        net.named = true;
        net.is_port = true;
        net.port_dir = pdir;
      }
      if (g.ports.empty() && !dialect.requires_hier_connectors &&
          cell_symbol) {
        for (const auto& [canon, global] : names) {
          (void)global;
          for (const SymbolPin& pin : cell_symbol->pins) {
            NetRef pinref = parse_net_ref(pin.name, dialect, known_buses);
            for (const std::string& bit : canonical_bits(pinref)) {
              if (bit == canon) {
                ExtractedNet& net = out.nets[canon];
                net.canonical = canon;
                net.named = true;
                net.is_port = true;
                net.port_dir = pin.dir;
              }
            }
          }
        }
      }
    }
  }
  return out;
}

std::vector<NetlistDiff> compare_netlists(const Netlist& golden,
                                          const Netlist& subject) {
  std::vector<NetlistDiff> diffs;

  std::map<std::string, const ExtractedNet*> subject_anon;
  for (const auto& [name, net] : subject.nets)
    if (!net.named) subject_anon[Netlist::signature(net)] = &net;

  std::set<std::string> matched_subject;

  for (const auto& [name, gnet] : golden.nets) {
    const ExtractedNet* snet = nullptr;
    if (gnet.named) {
      auto it = subject.nets.find(name);
      if (it != subject.nets.end()) snet = &it->second;
    } else {
      auto it = subject_anon.find(Netlist::signature(gnet));
      if (it != subject_anon.end()) snet = it->second;
    }
    if (!snet) {
      if (gnet.named || gnet.connections.size() > 1)
        diffs.push_back({NetlistDiff::Kind::MissingNet, name,
                         "connections: " + Netlist::signature(gnet)});
      continue;
    }
    matched_subject.insert(snet->canonical);
    if (gnet.connections != snet->connections) {
      diffs.push_back({NetlistDiff::Kind::ConnectionChange, name,
                       "golden{" + Netlist::signature(gnet) + "} subject{" +
                           Netlist::signature(*snet) + "}"});
    }
    if (gnet.is_port != snet->is_port ||
        (gnet.is_port && gnet.port_dir != snet->port_dir)) {
      diffs.push_back({NetlistDiff::Kind::PortChange, name,
                       "golden port=" + std::to_string(gnet.is_port) +
                           " subject port=" + std::to_string(snet->is_port)});
    }
    if (gnet.global != snet->global) {
      diffs.push_back({NetlistDiff::Kind::GlobalChange, name,
                       "golden global=" + std::to_string(gnet.global) +
                           " subject global=" +
                           std::to_string(snet->global)});
    }
  }

  for (const auto& [name, snet] : subject.nets) {
    if (matched_subject.count(name)) continue;
    bool matched_named = snet.named && golden.nets.count(name);
    if (matched_named) continue;
    if (snet.named || snet.connections.size() > 1)
      diffs.push_back({NetlistDiff::Kind::ExtraNet, name,
                       "connections: " + Netlist::signature(snet)});
  }
  return diffs;
}

std::vector<NetlistDiff> verify_migration(const Design& src,
                                          const Design& migrated,
                                          const MigrationConfig& config,
                                          base::DiagnosticEngine& diags) {
  std::vector<NetlistDiff> all;

  auto normalize_name = [&config](const std::string& name) {
    std::string out;
    bool in_bits = false;
    for (char c : name) {
      if (c == '[') in_bits = true;
      if (c == ']') in_bits = false;
      if (in_bits || c == ']' || config.target.legal_name_char(c))
        out += c;
      else
        out += '_';
    }
    return out;
  };

  for (const auto& [cell, sch_src] : src.schematics()) {
    const Schematic* sch_dst = migrated.find_schematic(cell);
    if (!sch_dst) {
      all.push_back({NetlistDiff::Kind::MissingNet, cell,
                     "whole cell missing from migrated design"});
      continue;
    }

    Netlist golden =
        oracle::extract_netlist(src, sch_src, config.source, diags);
    Netlist subject =
        oracle::extract_netlist(migrated, *sch_dst, config.target, diags);

    std::map<std::string, SymbolKey> inst_symbols;
    for (const Sheet& sheet : sch_src.sheets)
      for (const Instance& inst : sheet.instances)
        inst_symbols[inst.name] = inst.symbol;

    Netlist mapped;
    mapped.cell = golden.cell;
    for (const auto& [name, net] : golden.nets) {
      ExtractedNet copy = net;
      copy.canonical = normalize_name(name);
      copy.connections.clear();
      for (const NetConnection& c : net.connections) {
        NetConnection nc = c;
        auto it = inst_symbols.find(c.instance);
        if (it != inst_symbols.end()) {
          if (const SymbolMapEntry* entry =
                  config.symbol_map.find(it->second))
            nc.pin = SymbolMap::map_pin(*entry, c.pin);
        }
        copy.connections.insert(nc);
      }
      ExtractedNet& slot = mapped.nets[copy.canonical];
      if (slot.canonical.empty()) {
        slot = copy;
      } else {
        for (const NetConnection& c : copy.connections)
          slot.connections.insert(c);
      }
    }

    std::vector<NetlistDiff> diffs =
        oracle::compare_netlists(mapped, subject);
    for (NetlistDiff& d : diffs) d.net = cell + "/" + d.net;
    all.insert(all.end(), diffs.begin(), diffs.end());
  }
  return all;
}

}  // namespace oracle

// ----------------------------------------------------------- comparisons

void expect_same_netlist(const Netlist& want, const Netlist& got,
                         const std::string& ctx) {
  EXPECT_EQ(want.cell, got.cell) << ctx;
  ASSERT_EQ(want.nets.size(), got.nets.size()) << ctx;
  auto g = got.nets.begin();
  for (const auto& [name, w] : want.nets) {
    const auto& [gname, n] = *g++;
    ASSERT_EQ(name, gname) << ctx;
    EXPECT_EQ(w.canonical, n.canonical) << ctx << " net " << name;
    EXPECT_EQ(w.named, n.named) << ctx << " net " << name;
    EXPECT_EQ(w.global, n.global) << ctx << " net " << name;
    EXPECT_EQ(w.is_port, n.is_port) << ctx << " net " << name;
    EXPECT_EQ(w.port_dir, n.port_dir) << ctx << " net " << name;
    EXPECT_EQ(w.connections, n.connections) << ctx << " net " << name;
  }
}

void expect_same_diags(const base::DiagnosticEngine& want,
                       const base::DiagnosticEngine& got,
                       const std::string& ctx) {
  ASSERT_EQ(want.all().size(), got.all().size()) << ctx;
  for (std::size_t i = 0; i < want.all().size(); ++i) {
    const base::Diagnostic& w = want.all()[i];
    const base::Diagnostic& g = got.all()[i];
    EXPECT_EQ(w.severity, g.severity) << ctx << " #" << i;
    EXPECT_EQ(w.code, g.code) << ctx << " #" << i;
    EXPECT_EQ(w.message, g.message) << ctx << " #" << i;
    EXPECT_EQ(w.location, g.location) << ctx << " #" << i;
  }
}

void expect_same_diffs(const std::vector<NetlistDiff>& want,
                       const std::vector<NetlistDiff>& got,
                       const std::string& ctx) {
  ASSERT_EQ(want.size(), got.size()) << ctx;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].kind, got[i].kind) << ctx << " #" << i;
    EXPECT_EQ(want[i].net, got[i].net) << ctx << " #" << i;
    EXPECT_EQ(want[i].detail, got[i].detail) << ctx << " #" << i;
  }
}

// ------------------------------------------------------------- generator

constexpr std::int64_t kSpan = 12;  // random geometry lives in [0, kSpan]^2

/// Cell pins of "top", for implicit ports: a scalar, a bus and two
/// directions, one pin name shared by a second pin (last one's direction
/// wins).
std::vector<SymbolPin> cell_pins() {
  return {{"A", {0, 1}, PinDir::Input},
          {"Y", {10, 1}, PinDir::Output},
          {"D<0:1>", {0, 3}, PinDir::Inout},
          {"n1", {10, 3}, PinDir::Input},
          {"n1", {10, 5}, PinDir::Output}};
}

/// Source and target libraries in one design, so every symbol role is
/// available: components, global-net, hier-port and off-page symbols.
Design make_library() {
  Design design(viewlogic_dialect().grid);
  add_source_library(design, "top", cell_pins());
  for (const SymbolDef& def : make_target_library()) design.add_symbol(def);
  return design;
}

/// One random sheet, dense in coincidences: axis-parallel, zero-length,
/// diagonal and duplicate wires, many ending on pins; dotted and undotted
/// tees and crossings; dots on endpoints and in empty space, some repeated;
/// labels on wire ends, on interiors and floating, with scalar, bus,
/// condensed, postfix, global-suffix and odd-character names; coincident
/// pins; global, hier-port and off-page symbols; an instance of a missing
/// symbol; and instance names that sort differently as "inst.pin" text.
Sheet random_sheet(base::Rng& rng, const Design& lib, int number) {
  Sheet sheet;
  sheet.number = number;
  const std::vector<SymbolKey> parts = {
      {"vl_lib", "vl_nand2", "sym"},   {"vl_lib", "vl_inv", "sym"},
      {"vl_lib", "vl_res", "sym"},     {"vl_lib", "vl_cap", "sym"},
      {"cd_lib", "cd_nand2", "symbol"}};
  const std::vector<SymbolKey> specials = {
      {"vl_lib", "vl_vdd", "sym"},          {"cd_lib", "cd_gnd", "symbol"},
      {"connectors", "ipin", "symbol"},     {"connectors", "opin", "symbol"},
      {"connectors", "offpage", "symbol"},  {"missing", "nothing", "sym"}};
  const std::vector<std::string> names = {"U1", "U2",  "U1-", "U1.A",
                                          "U",  "U1+", "U10", "U3"};
  const std::vector<std::string> nets = {
      "n1",     "n2",   "A",     "Y",   "D<0:1>", "D<1>", "D0",  "D1",
      "ack-",   "ack",  "VDD!",  "clk!", "B<3:0>", "B2",  "x.y", "",
      "D<0:1>-", "n2!", "GND",  "x_y",  "_anon0", "$anon1"};

  std::vector<Point> pins;
  int instances = int(rng.uniform(1, 6));
  for (int i = 0; i < instances; ++i) {
    Instance inst;
    inst.name = rng.pick(names);
    bool special = rng.chance(0.3);
    inst.symbol = special ? rng.pick(specials) : rng.pick(parts);
    inst.placement =
        Transform(rng.chance(0.2) ? base::Orient::R90 : base::Orient::R0,
                  {rng.uniform(0, 8), rng.uniform(0, 8)});
    if (rng.chance(0.7)) inst.props.set("net", rng.pick(nets));
    if (rng.chance(0.7)) inst.props.set("port", rng.pick(nets));
    if (rng.chance(0.5))
      inst.props.set("dir", rng.chance(0.5) ? "input" : "output");
    sheet.instances.push_back(std::move(inst));
  }
  // Coincident pins: a resistor whose pin P (at 0,1) lands on the first
  // instance's first pin.
  const SymbolDef* first = lib.find_symbol(sheet.instances.front().symbol);
  if (first && rng.chance(0.3)) {
    Instance inst;
    inst.name = "UC";
    inst.symbol = {"vl_lib", "vl_res", "sym"};
    inst.placement = Transform(
        base::Orient::R0,
        sheet.instances.front().placement.apply(first->pins.front().pos) -
            Point{0, 1});
    sheet.instances.push_back(std::move(inst));
  }
  for (const Instance& inst : sheet.instances)
    if (const SymbolDef* def = lib.find_symbol(inst.symbol))
      for (const SymbolPin& pin : def->pins)
        pins.push_back(inst.placement.apply(pin.pos));

  auto coord = [&rng] { return rng.uniform(0, kSpan); };
  auto point = [&] {
    return !pins.empty() && rng.chance(0.4) ? rng.pick(pins)
                                            : Point{coord(), coord()};
  };
  int wires = int(rng.uniform(2, 24));
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

  auto point_on = [&](const Segment& w) {
    if (w.horizontal())
      return Point{rng.uniform(std::min(w.a.x, w.b.x), std::max(w.a.x, w.b.x)),
                   w.a.y};
    if (w.vertical())
      return Point{w.a.x,
                   rng.uniform(std::min(w.a.y, w.b.y), std::max(w.a.y, w.b.y))};
    return w.a;
  };
  int dots = int(rng.uniform(0, 6));
  for (int k = 0; k < dots; ++k) {
    if (rng.chance(0.8))
      sheet.junctions.push_back(point_on(rng.pick(sheet.wires)));
    else
      sheet.junctions.push_back({coord(), coord()});
    if (rng.chance(0.1)) sheet.junctions.push_back(sheet.junctions.back());
  }
  int labels = int(rng.uniform(0, 5));
  for (int k = 0; k < labels; ++k) {
    NetLabel l;
    l.text = rng.pick(nets);
    l.at = rng.chance(0.8) ? point_on(rng.pick(sheet.wires))
                           : Point{coord(), coord()};
    sheet.labels.push_back(l);
  }
  return sheet;
}

/// A random "top" schematic of one to three sheets; page numbers repeat
/// now and then, as they may in hand-edited designs.
Design random_design(std::uint64_t seed) {
  base::Rng rng(seed);
  Design design = make_library();
  Schematic sch;
  sch.cell = "top";
  int sheets = int(rng.uniform(1, 3));
  for (int s = 0; s < sheets; ++s)
    sch.sheets.push_back(
        random_sheet(rng, design, rng.chance(0.1) ? 1 : s + 1));
  design.add_schematic(std::move(sch));
  return design;
}

// ----------------------------------------------------------------- tests

constexpr std::uint64_t kSeeds = 320;

TEST(NetlistOracle, ExtractionMatchesUnderBothDialects) {
  std::size_t anon = 0, ports = 0, scoped = 0, diags_seen = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    Design design = random_design(seed);
    const Schematic& sch = *design.find_schematic("top");
    for (const Dialect& dialect : {viewlogic_dialect(), composer_dialect()}) {
      std::string ctx = "seed " + std::to_string(seed) + " " + dialect.name;
      base::DiagnosticEngine want_diags, got_diags;
      Netlist want = oracle::extract_netlist(design, sch, dialect, want_diags);
      Netlist got = extract_netlist(design, sch, dialect, got_diags);
      expect_same_netlist(want, got, ctx);
      expect_same_diags(want_diags, got_diags, ctx);
      diags_seen += want_diags.all().size();
      for (const auto& [name, net] : want.nets) {
        anon += !net.named;
        ports += net.is_port;
        scoped += name.find("@p") != std::string::npos;
      }
    }
  }
  // The random sheets must reach the paths under comparison.
  EXPECT_GT(anon, 0u);
  EXPECT_GT(ports, 0u);
  EXPECT_GT(scoped, 0u);
  EXPECT_GT(diags_seen, 0u);
}

/// Generated Exar designs, before and after migration, read under both
/// dialects: the shapes the service extracts, at sizes the random sheets
/// do not reach.
TEST(NetlistOracle, ExtractionMatchesOnGeneratedDesigns) {
  std::size_t nets = 0;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    GeneratorOptions opt;
    opt.seed = seed;
    opt.sheets = 1 + int(seed % 3);
    opt.components_per_sheet = 6 + int(seed * 5 % 40);
    opt.nets_per_sheet = opt.components_per_sheet / 2;
    Scenario sc = make_exar_scenario(opt);
    base::DiagnosticEngine mdiags;
    MigrationResult result = migrate_design(sc.source, sc.config, mdiags);
    for (const Design* design : {&sc.source, &result.design}) {
      for (const auto& [cell, sch] : design->schematics()) {
        for (const Dialect& dialect :
             {viewlogic_dialect(), composer_dialect()}) {
          std::string ctx =
              "seed " + std::to_string(seed) + " " + cell + " " + dialect.name;
          base::DiagnosticEngine want_diags, got_diags;
          Netlist want =
              oracle::extract_netlist(*design, sch, dialect, want_diags);
          expect_same_netlist(
              want, extract_netlist(*design, sch, dialect, got_diags), ctx);
          expect_same_diags(want_diags, got_diags, ctx);
          nets += want.nets.size();
        }
      }
    }
  }
  EXPECT_GT(nets, 0u);
}

TEST(NetlistOracle, CompareMatches) {
  std::size_t diffs_seen = 0;
  std::vector<Netlist> previous;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    Design design = random_design(seed);
    const Schematic& sch = *design.find_schematic("top");
    base::DiagnosticEngine diags;
    Netlist vl = extract_netlist(design, sch, viewlogic_dialect(), diags);
    Netlist cd = extract_netlist(design, sch, composer_dialect(), diags);
    std::vector<std::pair<const Netlist*, const Netlist*>> pairs = {
        {&vl, &vl}, {&vl, &cd}, {&cd, &vl}};
    // Nearby designs share most names and signatures but not all.
    if (!previous.empty()) {
      pairs.emplace_back(&previous.back(), &vl);
      pairs.emplace_back(&vl, &previous.back());
    }
    for (const auto& [golden, subject] : pairs) {
      std::string ctx = "seed " + std::to_string(seed);
      std::vector<NetlistDiff> want =
          oracle::compare_netlists(*golden, *subject);
      expect_same_diffs(want, compare_netlists(*golden, *subject), ctx);
      diffs_seen += want.size();
    }
    previous.push_back(std::move(vl));
  }
  EXPECT_GT(diffs_seen, 0u);
}

/// Hand-built netlists for what extraction never produces: anonymous nets
/// whose signatures collide ("U1.A" + "B" against "U1" + "A.B"), whose
/// "inst.pin" text sorts against std::set order, and nets keyed by another
/// name than their canonical one.
TEST(NetlistOracle, CompareMatchesOnHandBuiltNetlists) {
  auto net = [](std::string canonical, bool named,
                std::set<NetConnection> conns) {
    ExtractedNet n;
    n.canonical = std::move(canonical);
    n.named = named;
    n.connections = std::move(conns);
    return n;
  };
  Netlist a, b;
  a.nets["$anon0"] = net("$anon0", false, {{"U1.A", "B"}, {"U2", "Y"}});
  a.nets["$anon1"] = net("$anon1", false, {{"U1", "A"}, {"U1-", "A"}});
  a.nets["$anon2"] = net("$anon2", false, {{"U9", "A"}, {"U9", "B"}});
  a.nets["n1"] = net("n1", true, {{"U3", "A"}});
  a.nets["n2"] = net("renamed", true, {{"U4", "A"}});
  b.nets["$anon5"] = net("$anon5", false, {{"U1", "A.B"}, {"U2", "Y"}});
  b.nets["$anon6"] = net("$anon6", false, {{"U1-", "A"}, {"U1", "A"}});
  b.nets["$anon7"] = net("$anon7", false, {{"U1", "A.B"}, {"U2", "Y"}});
  b.nets["$anon8"] = net("n1", false, {{"U9", "A"}, {"U9", "B"}});
  b.nets["n1"] = net("x", true, {{"U3", "A"}});
  b.nets["renamed"] = net("renamed", true, {{"U4", "B"}});
  // Same signature "U1-.X|U1.A.B", but only the second set is already in
  // its text order.
  a.nets["$anon3"] = net("$anon3", false, {{"U1", "A.B"}, {"U1-", "X"}});
  b.nets["$anon9"] = net("$anon9", false, {{"U1.A", "B"}, {"U1-", "X"}});
  for (const auto& [golden, subject] :
       {std::pair{&a, &b}, std::pair{&b, &a}, std::pair{&a, &a}}) {
    std::vector<NetlistDiff> want =
        oracle::compare_netlists(*golden, *subject);
    expect_same_diffs(want, compare_netlists(*golden, *subject), "hand");
  }
}

/// Groups with equal anchors keep the order the oracle's std::sort over
/// the group objects gives them: floating labels have no anchor point at
/// all, and the coincident pins of dangling hier connectors sit at (0, 0).
/// Under implicit ports, which group comes last decides the direction of
/// net n1: the connectors say input, the cell's last "n1" pin says output.
TEST(NetlistOracle, EqualAnchorsKeepTheirOrder) {
  Design design = make_library();
  Schematic sch;
  sch.cell = "top";
  Sheet sheet;
  sheet.number = 1;
  for (int k = 0; k < 40; ++k) {
    // Wired groups around the tied ones, so that std::sort partitions.
    std::int64_t y = 3 + 2 * k;
    sheet.wires.push_back({{2, y}, {9, y}});
    NetLabel floating;
    floating.text = k % 3 ? "n" + std::to_string(k) : "n1";
    floating.at = {50 + k, 50};
    sheet.labels.push_back(floating);
    Instance port;
    port.name = "P" + std::to_string(k);
    port.symbol = {"connectors", "ipin", "symbol"};
    port.placement = Transform(base::Orient::R0, {-1, 0});  // pin at (0, 0)
    port.props.set("port", "n1");
    port.props.set("dir", "input");
    sheet.instances.push_back(port);
  }
  sch.sheets.push_back(std::move(sheet));
  design.add_schematic(std::move(sch));
  for (const Dialect& dialect : {viewlogic_dialect(), composer_dialect()}) {
    base::DiagnosticEngine want_diags, got_diags;
    const Schematic& top = *design.find_schematic("top");
    Netlist want = oracle::extract_netlist(design, top, dialect, want_diags);
    expect_same_netlist(want, extract_netlist(design, top, dialect, got_diags),
                        dialect.name);
    expect_same_diags(want_diags, got_diags, dialect.name);
    EXPECT_TRUE(want.nets.at("n1").is_port);
  }
}

TEST(NetlistOracle, VerifyMigrationMatches) {
  std::size_t diffs_seen = 0, merged = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    GeneratorOptions opt;
    opt.seed = seed;
    Scenario sc = make_exar_scenario(opt);
    // Half the runs check the generated scenario, half a random design
    // migrated with its configuration.
    Design source = seed % 2 ? std::move(sc.source) : random_design(seed);
    base::DiagnosticEngine mdiags;
    MigrationResult result = migrate_design(source, sc.config, mdiags);
    std::string ctx = "seed " + std::to_string(seed);
    base::DiagnosticEngine want_diags, got_diags;
    std::vector<NetlistDiff> want = oracle::verify_migration(
        source, result.design, sc.config, want_diags);
    expect_same_diffs(
        want,
        verify_migration(source, result.design, sc.config, got_diags), ctx);
    expect_same_diags(want_diags, got_diags, ctx);
    diffs_seen += want.size();

    // Names that normalize alike merge ("x.y" and "x_y", "$anon0" and a
    // label "_anon0"); the runs must reach that path.
    for (const auto& [cell, sch] : source.schematics()) {
      Netlist golden =
          extract_netlist(source, sch, sc.config.source, want_diags);
      std::size_t before = golden.nets.size();
      merged += before -
                map_golden_netlist(std::move(golden), sch, sc.config)
                    .nets.size();
    }
  }
  EXPECT_GT(diffs_seen, 0u);
  EXPECT_GT(merged, 0u);
}

}  // namespace
}  // namespace interop::sch

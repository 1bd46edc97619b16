#include "schematic/netlist.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <unordered_map>

#include "base/strings.hpp"
#include "schematic/wire_index.hpp"

namespace interop::sch {

namespace {

/// Union-find over dense ids.
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

/// Geometry nodes of one sheet: every distinct point that participates in
/// connectivity (wire endpoints, junctions, pin positions, label anchors),
/// plus the sheet's wire index for "which wires touch this point".
class SheetNodes {
 public:
  explicit SheetNodes(const Sheet& sheet) : wires(sheet) {
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

  const WireIndex wires;

 private:
  std::unordered_map<Point, std::size_t, PointHash> ids_;
  std::size_t next_ = 0;
};

/// Everything we learn about one connected wire group on one sheet.
struct WireGroup {
  std::set<NetConnection> connections;
  std::vector<std::string> label_texts;
  std::vector<std::string> offpage_names;   ///< from off-page connectors
  std::vector<std::string> global_names;    ///< from global-net symbols
  std::vector<std::pair<std::string, PinDir>> ports;  ///< hier connectors
  Point anchor{0, 0};  ///< smallest point, for deterministic anon naming
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

}  // namespace

std::string Netlist::signature(const ExtractedNet& net) {
  std::vector<std::string> parts;
  parts.reserve(net.connections.size());
  for (const NetConnection& c : net.connections)
    parts.push_back(c.instance + "." + c.pin);
  std::sort(parts.begin(), parts.end());
  return base::join(parts, "|");
}

Netlist extract_netlist(const Design& design, const Schematic& sch,
                        const Dialect& dialect,
                        base::DiagnosticEngine& diags) {
  Netlist out;
  out.cell = sch.cell;

  // The cell's own symbol (for Viewlogic-style implicit ports).
  const SymbolDef* cell_symbol = nullptr;
  for (const auto& [key, def] : design.symbols())
    if (key.cell == sch.cell && def.role == SymbolRole::Component)
      cell_symbol = &def;

  // Pass 1 over all sheets: find explicit bus ranges so condensed refs
  // ("A0") can be recognized on pass 2.
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

  // Per-sheet wire groups.
  struct SheetGroups {
    int page;
    std::vector<WireGroup> groups;
  };
  std::vector<SheetGroups> all_groups;

  for (const Sheet& sheet : sch.sheets) {
    SheetNodes nodes(sheet);
    const std::string page_obj = "page" + std::to_string(sheet.number);

    // Extra nodes for instance pins and labels are appended after wiring
    // nodes; remember the mapping.
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

    // Union wires.
    UnionFind uf(nodes.count());
    for (const Segment& w : sheet.wires)
      uf.unite(nodes.id_of(w.a), nodes.id_of(w.b));

    // Junction dots connect interior crossings/tees.
    for (const Point& j : sheet.junctions) {
      std::size_t jid = nodes.id_of(j);
      for (std::size_t si : nodes.wires.touching(j))
        uf.unite(jid, nodes.id_of(sheet.wires[si].a));
    }

    // Pin sites per node: coincident pins share a node id.
    std::vector<std::size_t> pins_at(nodes.count(), 0);
    for (const PinSite& site : pin_sites) ++pins_at[site.node];

    // Pins: connect when the pin sits on a wire endpoint, or on a wire
    // interior that carries a junction dot. Coincident pins connect by
    // abutment because they share the node id.
    for (const PinSite& site : pin_sites) {
      bool wired = false;
      if (!nodes.wires.ending_at(site.pos).empty()) {
        wired = true;  // endpoint: id_of already unified via segment union
      } else if (!nodes.wires.touching(site.pos).empty()) {
        if (nodes.wires.has_junction(site.pos))
          wired = true;
        else
          diags.warn("pin-crosses-wire",
                     "pin " + site.inst->name + "." + site.pin->name +
                         " lies on a wire interior without a junction; "
                         "not connected",
                     {"sch.extract", page_obj + "/" + site.inst->name});
      }
      if (!wired) {
        // Dangling pin: forms (or joins) a node only with coincident pins.
        if (pins_at[site.node] == 1)
          diags.note("dangling-pin",
                     "pin " + site.inst->name + "." + site.pin->name +
                         " is unconnected",
                     {"sch.extract", page_obj + "/" + site.inst->name});
      }
    }

    // Labels must land on a wire.
    for (const LabelSite& site : label_sites) {
      std::vector<std::size_t> segs = nodes.wires.touching(site.label->at);
      if (segs.empty()) {
        diags.warn("floating-label",
                   "label '" + site.label->text + "' is not on any wire",
                   {"sch.extract", page_obj});
      } else {
        uf.unite(site.node, nodes.id_of(sheet.wires[segs.front()].a));
      }
    }

    // Gather groups.
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
    // Deterministic order.
    std::sort(sg.groups.begin(), sg.groups.end(),
              [](const WireGroup& a, const WireGroup& b) {
                return a.anchor < b.anchor;
              });
    all_groups.push_back(std::move(sg));
  }

  // ---- Resolve group names to canonical nets ----
  //
  // Scoping rule: within one page, same names always join (true in both
  // tools). Across pages, a name joins design-wide when (a) it is global,
  // (b) the dialect joins same names across pages implicitly, or (c) the
  // group carries an off-page connector. A name that appears on several
  // pages *without* those becomes page-scoped ("name@p2") — two same-named
  // labels on different Composer pages are different nets.
  //
  // Pre-pass: which pages does each canonical label name appear on?
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
      std::vector<std::pair<std::string, bool>> names;  // canonical, global

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

      // An unlabeled wire with a hier connector takes the port's name.
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

      // Port bindings: a hier connector marks the group's net as a port.
      for (const auto& [pname, pdir] : g.ports) {
        (void)pname;  // ports name their net; the group's name binds it
        ExtractedNet& net = out.nets[resolved.front()];
        net.canonical = resolved.front();
        net.named = true;
        net.is_port = true;
        net.port_dir = pdir;
      }
      if (g.ports.empty() && !dialect.requires_hier_connectors &&
          cell_symbol) {
        // Viewlogic-style implicit ports: a labeled net whose name matches
        // a pin of the cell's own symbol is a port.
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

  // Hier ports in connector-requiring dialects bind by connector name even
  // when the wire group had its own label; make sure the port flag lands on
  // the right canonical net (connector name may BE the net name).
  return out;
}

std::string to_string(NetlistDiff::Kind k) {
  switch (k) {
    case NetlistDiff::Kind::MissingNet: return "missing-net";
    case NetlistDiff::Kind::ExtraNet: return "extra-net";
    case NetlistDiff::Kind::ConnectionChange: return "connection-change";
    case NetlistDiff::Kind::PortChange: return "port-change";
    case NetlistDiff::Kind::GlobalChange: return "global-change";
  }
  return "?";
}

std::vector<NetlistDiff> compare_netlists(const Netlist& golden,
                                          const Netlist& subject) {
  std::vector<NetlistDiff> diffs;

  // Anonymous nets match by connection signature.
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
      // Single-connection anonymous nets (dangling pins) are noise; still
      // report named ones and multi-pin anonymous ones.
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
    if (matched_named) continue;  // handled above
    if (snet.named || snet.connections.size() > 1)
      diffs.push_back({NetlistDiff::Kind::ExtraNet, name,
                       "connections: " + Netlist::signature(snet)});
  }
  return diffs;
}

}  // namespace interop::sch

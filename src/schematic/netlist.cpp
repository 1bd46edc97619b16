#include "schematic/netlist.hpp"

#include <algorithm>
#include <deque>
#include <numeric>
#include <string_view>
#include <unordered_map>

#include "base/dense_ids.hpp"
#include "base/strings.hpp"
#include "schematic/wire_index.hpp"

namespace interop::sch {

namespace {

constexpr std::uint32_t kNone = WireIndex::kNone;

/// Union-find over dense ids.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0u);
  }
  std::uint32_t find(std::uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(std::uint32_t a, std::uint32_t b) { parent_[find(a)] = find(b); }

 private:
  std::vector<std::uint32_t> parent_;
};

PinDir dir_from_text(const std::string& s) {
  if (s == "input") return PinDir::Input;
  if (s == "output") return PinDir::Output;
  return PinDir::Inout;
}

/// A label of the cell with its names, parsed once.
struct LabelNames {
  const NetLabel* label = nullptr;
  NetRef ref;                      ///< parsed under the cell's known buses
  std::vector<std::string> bits;   ///< canonical bits as written
  bool global = false;             ///< carries the dialect's global suffix
  std::vector<std::string> clean;  ///< bits without the suffix (global only)

  const std::vector<std::string>& names() const {
    return global ? clean : bits;
  }
};

/// An instance pin on a sheet, with what it contributes to its group.
struct PinSite {
  std::uint32_t node;
  const Instance* inst;
  const SymbolDef* def;
  const SymbolPin* pin;
  Point pos;
  /// Net names: an off-page connector's bits, a global symbol's net, or a
  /// hier connector's port bits.
  std::vector<std::string> names;
  PinDir port_dir = PinDir::Inout;  ///< HierPort only
};

/// One connected wire group of a sheet. Its pins and labels are chains,
/// in sheet order, through SheetGroups::pin_next / label_next.
struct WireGroup {
  std::uint32_t pin_head = kNone, pin_tail = kNone;
  std::uint32_t label_head = kNone, label_tail = kNone;
  Point anchor{0, 0};  ///< smallest point, for deterministic anon naming
  bool has_anchor = false;

  void note_point(const Point& p) {
    if (!has_anchor || p < anchor) {
      anchor = p;
      has_anchor = true;
    }
  }
};

/// The wire groups of one sheet, in deterministic (anchor) order.
struct SheetGroups {
  int page = 0;
  std::vector<PinSite> pins;
  std::vector<std::uint32_t> labels;  ///< per label site: cell label index
  std::vector<std::uint32_t> pin_next, label_next;
  std::vector<WireGroup> groups;
  std::vector<std::uint32_t> order;  ///< group ids, sorted by anchor
};

/// "pin INST.PIN" followed by `tail`, built in one allocation.
std::string pin_message(const PinSite& site, std::string_view tail) {
  std::string m;
  m.reserve(5 + site.inst->name.size() + site.pin->name.size() + tail.size());
  m += "pin ";
  m += site.inst->name;
  m += '.';
  m += site.pin->name;
  m += tail;
  return m;
}

template <class Chain>
void chain(std::uint32_t& head, std::uint32_t& tail, Chain& next,
           std::uint32_t item) {
  if (tail == kNone)
    head = item;
  else
    next[tail] = item;
  tail = item;
}

/// Connectivity of one sheet in one pass over its wire index: union-find
/// over the index's nodes (wire ends, dots) plus pin and label points,
/// then one group per connected root. Reports pin and label diagnostics.
SheetGroups group_sheet(const Design& design, const Sheet& sheet,
                        std::uint32_t first_label,
                        base::DiagnosticEngine& diags) {
  SheetGroups sg;
  sg.page = sheet.number;
  const WireIndex index(sheet);
  const std::string page_obj = "page" + std::to_string(sheet.number);

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
      sg.pins.push_back({kNone, &inst, def, &pin, pos, {}});
    }
  }

  // Pins and labels off the index's nodes get ids after them, in the order
  // they are met.
  const auto wired_nodes = std::uint32_t(index.node_count());
  base::DenseIds<Point> extra;
  extra.reserve(sg.pins.size() + sheet.labels.size());
  auto node_at = [&](const Point& p) {
    std::uint32_t n = index.node_of(p);
    return n != kNone ? n : wired_nodes + extra.intern(p);
  };
  for (PinSite& site : sg.pins) site.node = node_at(site.pos);
  std::vector<std::uint32_t> label_node;
  label_node.reserve(sheet.labels.size());
  for (std::size_t i = 0; i < sheet.labels.size(); ++i) {
    label_node.push_back(node_at(sheet.labels[i].at));
    sg.labels.push_back(first_label + std::uint32_t(i));
  }
  const std::size_t nodes = wired_nodes + extra.size();

  // Union wires, then junction dots with the wires through them.
  UnionFind uf(nodes);
  for (std::size_t i = 0; i < sheet.wires.size(); ++i)
    uf.unite(index.node_a(i), index.node_b(i));
  for (const Point& j : sheet.junctions) {
    std::uint32_t jid = index.node_of(j);
    index.for_each_touching_ascending(
        j, [&](std::size_t si) { uf.unite(jid, index.node_a(si)); });
  }

  // Pin sites per node: coincident pins share a node id.
  std::vector<std::uint32_t> pins_at(nodes, 0);
  for (const PinSite& site : sg.pins) ++pins_at[site.node];

  // Pins: connect when the pin sits on a wire endpoint, or on a wire
  // interior that carries a junction dot. Coincident pins connect by
  // abutment because they share the node id.
  for (const PinSite& site : sg.pins) {
    bool on_index = site.node < wired_nodes;
    bool wired = false;
    if (on_index && index.is_wire_end(site.node)) {
      wired = true;  // endpoint: already unified via segment union
    } else if (index.first_touching(site.pos) != kNone) {
      if (on_index && index.has_dot(site.node))
        wired = true;
      else
        diags.warn("pin-crosses-wire",
                   pin_message(site,
                               " lies on a wire interior without a "
                               "junction; not connected"),
                   {"sch.extract", page_obj + "/" + site.inst->name});
    }
    if (!wired) {
      // Dangling pin: forms (or joins) a node only with coincident pins.
      if (pins_at[site.node] == 1)
        diags.note("dangling-pin", pin_message(site, " is unconnected"),
                   {"sch.extract", page_obj + "/" + site.inst->name});
    }
  }

  // Labels must land on a wire.
  for (std::size_t i = 0; i < sheet.labels.size(); ++i) {
    const NetLabel& label = sheet.labels[i];
    std::uint32_t first = index.first_touching(label.at);
    if (first == kNone) {
      diags.warn("floating-label",
                 "label '" + label.text + "' is not on any wire",
                 {"sch.extract", page_obj});
    } else {
      uf.unite(label_node[i], index.node_a(first));
    }
  }

  // One group per root that a wire, pin or label reaches, numbered in
  // ascending root order.
  std::vector<std::uint32_t> group_of(nodes, kNone);
  std::vector<std::uint32_t> wire_root(sheet.wires.size());
  for (std::size_t i = 0; i < sheet.wires.size(); ++i)
    group_of[wire_root[i] = uf.find(index.node_a(i))] = 0;
  for (PinSite& site : sg.pins) group_of[site.node = uf.find(site.node)] = 0;
  for (std::uint32_t& n : label_node) group_of[n = uf.find(n)] = 0;
  std::uint32_t groups = 0;
  for (std::uint32_t& g : group_of)
    if (g != kNone) g = groups++;
  sg.groups.resize(groups);

  for (std::size_t i = 0; i < sheet.wires.size(); ++i) {
    WireGroup& g = sg.groups[group_of[wire_root[i]]];
    g.note_point(sheet.wires[i].a);
    g.note_point(sheet.wires[i].b);
  }
  sg.pin_next.assign(sg.pins.size(), kNone);
  for (std::uint32_t k = 0; k < sg.pins.size(); ++k) {
    PinSite& site = sg.pins[k];
    WireGroup& g = sg.groups[group_of[site.node]];
    g.note_point(site.pos);
    chain(g.pin_head, g.pin_tail, sg.pin_next, k);
    const Instance& inst = *site.inst;
    switch (site.def->role) {
      case SymbolRole::Component:
        break;
      case SymbolRole::HierPort:
        site.names.push_back(inst.props.get_text("port", inst.name));
        site.port_dir = dir_from_text(inst.props.get_text("dir", "inout"));
        break;
      case SymbolRole::OffPage:
        site.names.push_back(inst.props.get_text("net", inst.name));
        break;
      case SymbolRole::GlobalNet:
        site.names.push_back(site.def->default_props.get_text(
            "global_net", site.def->key.cell));
        break;
    }
  }
  sg.label_next.assign(label_node.size(), kNone);
  for (std::uint32_t k = 0; k < label_node.size(); ++k) {
    WireGroup& g = sg.groups[group_of[label_node[k]]];
    chain(g.label_head, g.label_tail, sg.label_next, k);
  }

  // Deterministic order. std::sort makes the same moves whatever it sorts,
  // given the same comparisons, so sorting (anchor, id) pairs by anchor
  // gives the permutation that sorting the groups themselves, from
  // ascending root order, would.
  std::vector<std::pair<Point, std::uint32_t>> by_anchor;
  by_anchor.reserve(groups);
  for (std::uint32_t g = 0; g < groups; ++g)
    by_anchor.emplace_back(sg.groups[g].anchor, g);
  std::sort(by_anchor.begin(), by_anchor.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  sg.order.reserve(groups);
  for (const auto& [anchor, g] : by_anchor) sg.order.push_back(g);
  return sg;
}

using ConnRef = std::pair<const std::string*, const std::string*>;

bool conn_less(const ConnRef& a, const ConnRef& b) {
  int c = a.first->compare(*b.first);
  return c != 0 ? c < 0 : *a.second < *b.second;
}

bool conn_equal(const ConnRef& a, const ConnRef& b) {
  return *a.first == *b.first && *a.second == *b.second;
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

  // Pass 1 over all labels: find explicit bus ranges so condensed refs
  // ("A0") can be recognized on pass 2.
  std::vector<LabelNames> labels;
  std::vector<std::string> known_buses;
  for (const Sheet& sheet : sch.sheets) {
    for (const NetLabel& label : sheet.labels) {
      LabelNames& l = labels.emplace_back();
      l.label = &label;
      l.ref = parse_net_ref(label.text, dialect);
      if (l.ref.range) known_buses.push_back(l.ref.base);
    }
  }
  std::sort(known_buses.begin(), known_buses.end());
  known_buses.erase(std::unique(known_buses.begin(), known_buses.end()),
                    known_buses.end());

  // Pass 2: known buses only change what a label parses to when pass 1
  // found neither a range nor a bit, and only through condensed refs.
  for (LabelNames& l : labels) {
    if (l.ref.is_scalar() && dialect.condensed_bus_refs &&
        !known_buses.empty())
      l.ref = parse_net_ref(l.label->text, dialect, known_buses);
    l.bits = canonical_bits(l.ref);
    if (!dialect.global_suffix.empty() &&
        base::ends_with(l.ref.base, dialect.global_suffix)) {
      l.global = true;
      NetRef cleaned = l.ref;
      cleaned.base = cleaned.base.substr(
          0, cleaned.base.size() - dialect.global_suffix.size());
      l.clean = canonical_bits(cleaned);
    }
  }
  auto bits_of = [&](const std::string& text) {
    return canonical_bits(parse_net_ref(text, dialect, known_buses));
  };

  // Per-sheet wire groups.
  std::vector<SheetGroups> sheets;
  sheets.reserve(sch.sheets.size());
  std::uint32_t first_label = 0;
  for (const Sheet& sheet : sch.sheets) {
    sheets.push_back(group_sheet(design, sheet, first_label, diags));
    first_label += std::uint32_t(sheet.labels.size());
    // Off-page and hier connector names are nets in label syntax.
    for (PinSite& site : sheets.back().pins)
      if (site.def->role == SymbolRole::OffPage ||
          site.def->role == SymbolRole::HierPort)
        site.names = bits_of(site.names.front());
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
  // Pre-pass: does each canonical label name appear on more than one page?
  struct Pages {
    int first;
    bool several;
  };
  base::DenseIds<std::string_view> page_names;
  std::vector<Pages> name_pages;
  if (!dialect.implicit_offpage_by_name) {
    page_names.reserve(labels.size());
    auto note = [&](const std::string& bit, int page) {
      std::uint32_t id = page_names.intern(bit);
      if (id == name_pages.size())
        name_pages.push_back({page, false});
      else if (name_pages[id].first != page)
        name_pages[id].several = true;
    };
    for (const SheetGroups& sg : sheets) {
      for (std::uint32_t l : sg.labels)
        for (const std::string& bit : labels[l].bits) note(bit, sg.page);
      for (const PinSite& site : sg.pins)
        if (site.def->role == SymbolRole::OffPage)
          for (const std::string& bit : site.names) note(bit, sg.page);
    }
  }

  // Viewlogic-style implicit ports: a labeled net whose name matches a pin
  // of the cell's own symbol is a port, with the last such pin's direction.
  std::unordered_map<std::string, PinDir> implicit_ports;
  if (!dialect.requires_hier_connectors && cell_symbol)
    for (const SymbolPin& pin : cell_symbol->pins)
      for (std::string& bit : bits_of(pin.name))
        implicit_ports.insert_or_assign(std::move(bit), pin.dir);

  // Nets in first-mention order, with what the groups add to them: flags,
  // port marks (the last mark's direction stands) and links to the groups'
  // connection runs. out.nets is built from them once, in name order, so
  // no net costs a search of the map.
  struct NetState {
    bool named = false;
    bool global = false;
    bool is_port = false;
    PinDir port_dir = PinDir::Inout;
    std::uint32_t link_head = kNone, link_tail = kNone;
  };
  struct Link {  ///< one group's connections, conns[begin, end)
    std::uint32_t begin, end;
  };
  base::DenseIds<std::string_view> net_ids;
  std::vector<NetState> nets;
  std::vector<Link> links;
  std::vector<std::uint32_t> link_next;
  std::deque<std::string> made_names;  ///< scoped and anonymous names
  std::vector<ConnRef> conns;          ///< every group's run, sorted
  net_ids.reserve(labels.size() + sheets.size() * 64);

  auto net_of = [&](std::string_view name) {
    std::uint32_t id = net_ids.intern(name);
    if (id == nets.size()) nets.emplace_back();
    return id;
  };
  auto made = [&made_names](std::string name) -> std::string_view {
    return made_names.emplace_back(std::move(name));
  };
  auto add_connections = [&](std::string_view name, bool named, bool global,
                             Link run) {
    std::uint32_t id = net_of(name);
    NetState& net = nets[id];
    net.named = net.named || named;
    net.global = net.global || global;
    if (run.begin != run.end) {
      links.push_back(run);
      link_next.push_back(kNone);
      chain(net.link_head, net.link_tail, link_next,
            std::uint32_t(links.size() - 1));
    }
    return id;
  };
  auto mark_port = [&nets](std::uint32_t id, PinDir dir) {
    nets[id].named = true;
    nets[id].is_port = true;
    nets[id].port_dir = dir;
  };

  int anon_counter = 0;
  std::vector<std::pair<const std::string*, bool>> names;  // canonical, global
  std::vector<const PinSite*> globals, offpages;
  for (const SheetGroups& sg : sheets) {
    for (std::uint32_t gi : sg.order) {
      const WireGroup& g = sg.groups[gi];
      names.clear();
      globals.clear();
      offpages.clear();
      const PinSite* last_port = nullptr;
      Link run{std::uint32_t(conns.size()), 0};
      for (std::uint32_t k = g.pin_head; k != kNone; k = sg.pin_next[k]) {
        const PinSite& site = sg.pins[k];
        switch (site.def->role) {
          case SymbolRole::Component:
            conns.emplace_back(&site.inst->name, &site.pin->name);
            break;
          case SymbolRole::HierPort: last_port = &site; break;
          case SymbolRole::OffPage: offpages.push_back(&site); break;
          case SymbolRole::GlobalNet: globals.push_back(&site); break;
        }
      }
      auto first_conn = conns.begin() + run.begin;
      std::sort(first_conn, conns.end(), conn_less);
      conns.erase(std::unique(first_conn, conns.end(), conn_equal),
                  conns.end());
      run.end = std::uint32_t(conns.size());

      for (std::uint32_t k = g.label_head; k != kNone;
           k = sg.label_next[k]) {
        const LabelNames& l = labels[sg.labels[k]];
        for (const std::string& bit : l.names())
          names.emplace_back(&bit, l.global);
      }
      for (const PinSite* site : globals)
        names.emplace_back(&site->names.front(), true);
      for (const PinSite* site : offpages)
        for (const std::string& bit : site->names)
          names.emplace_back(&bit, false);

      // An unlabeled wire with a hier connector takes the port's name.
      if (names.empty() && last_port) {
        for (std::uint32_t k = g.pin_head; k != kNone; k = sg.pin_next[k]) {
          const PinSite& site = sg.pins[k];
          if (site.def->role == SymbolRole::HierPort)
            for (const std::string& bit : site.names)
              names.emplace_back(&bit, false);
        }
      }

      if (names.empty()) {
        add_connections(made("$anon" + std::to_string(anon_counter++)),
                        false, false, run);
        continue;
      }

      std::uint32_t first = kNone;
      for (const auto& [canon, global] : names) {
        bool design_wide = global || dialect.implicit_offpage_by_name ||
                           !offpages.empty();
        bool multipage = false;
        if (!design_wide) {
          std::uint32_t id = page_names.find(*canon);
          multipage = id != kNone && name_pages[id].several;
        }
        std::string_view name =
            multipage ? made(*canon + "@p" + std::to_string(sg.page))
                      : std::string_view(*canon);
        std::uint32_t id = add_connections(name, true, global, run);
        if (first == kNone) first = id;
      }

      // Port bindings: a hier connector marks the group's net as a port;
      // with several, the last one's direction stands.
      if (last_port) {
        mark_port(first, last_port->port_dir);
      } else if (!implicit_ports.empty()) {
        for (const auto& name : names) {
          auto it = implicit_ports.find(*name.first);
          if (it != implicit_ports.end())
            mark_port(net_of(*name.first), it->second);
        }
      }
    }
  }

  // Build the map in name order: every insertion lands at the end.
  std::vector<std::uint32_t> by_name(nets.size());
  std::iota(by_name.begin(), by_name.end(), 0u);
  std::sort(by_name.begin(), by_name.end(),
            [&net_ids](std::uint32_t a, std::uint32_t b) {
              return net_ids.key(a) < net_ids.key(b);
            });
  std::vector<ConnRef> merged;
  for (std::uint32_t id : by_name) {
    const NetState& state = nets[id];
    auto it = out.nets.emplace_hint(out.nets.end(),
                                    std::string(net_ids.key(id)),
                                    ExtractedNet{});
    ExtractedNet& net = it->second;
    net.canonical = it->first;
    net.named = state.named;
    net.global = state.global;
    net.is_port = state.is_port;
    net.port_dir = state.port_dir;
    // One run is sorted and unique already; several are merged.
    auto first = conns.cbegin(), last = conns.cbegin();
    if (state.link_head != kNone) {
      const Link& l = links[state.link_head];
      first += l.begin;
      last += l.end;
    }
    if (state.link_head != state.link_tail) {
      merged.clear();
      for (std::uint32_t k = state.link_head; k != kNone; k = link_next[k])
        merged.insert(merged.end(), conns.begin() + links[k].begin,
                      conns.begin() + links[k].end);
      std::sort(merged.begin(), merged.end(), conn_less);
      merged.erase(std::unique(merged.begin(), merged.end(), conn_equal),
                   merged.end());
      first = merged.cbegin();
      last = merged.cend();
    }
    for (; first != last; ++first)
      net.connections.emplace_hint(net.connections.end(),
                                   NetConnection{*first->first,
                                                 *first->second});
  }
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

namespace {

/// Netlist::signature(net) of many nets, without building the strings: per
/// net, its connections in the order signature() joins them, and the
/// FNV-1a hash of the joined text.
class Signatures {
 public:
  Signatures() { begin_.push_back(0); }

  /// Record `net`'s signature; returns its id.
  std::uint32_t add(const ExtractedNet& net) {
    auto first = parts_.size();
    for (const NetConnection& c : net.connections) parts_.push_back(&c);
    auto b = parts_.begin() + std::ptrdiff_t(first);
    // std::set order (instance, then pin) already sorts the joined
    // "inst.pin" parts unless a name holds a character below '.'.
    if (!std::is_sorted(b, parts_.end(), part_less))
      std::sort(b, parts_.end(), part_less);
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto feed = [&h](std::string_view s) {
      for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
      }
    };
    for (auto it = b; it != parts_.end(); ++it) {
      if (it != b) feed("|");
      feed((*it)->instance);
      feed(".");
      feed((*it)->pin);
    }
    hash_.push_back(h);
    begin_.push_back(std::uint32_t(parts_.size()));
    return std::uint32_t(hash_.size() - 1);
  }

  std::uint64_t hash(std::uint32_t id) const { return hash_[id]; }

  /// True when signature `a` here equals signature `b` of `other`.
  bool same(std::uint32_t a, const Signatures& other, std::uint32_t b) const {
    if (hash_[a] != other.hash_[b]) return false;
    auto a0 = parts_.begin() + begin_[a], a1 = parts_.begin() + begin_[a + 1];
    auto b0 = other.parts_.begin() + other.begin_[b];
    auto b1 = other.parts_.begin() + other.begin_[b + 1];
    if (std::equal(a0, a1, b0, b1,
                   [](const NetConnection* x, const NetConnection* y) {
                     return *x == *y;
                   }))
      return true;
    return text(a) == other.text(b);  // the same text split at another '.'
  }

 private:
  /// "a.instance + '.' + a.pin" < "b.instance + '.' + b.pin".
  static bool part_less(const NetConnection* a, const NetConnection* b) {
    auto at = [](const NetConnection* c, std::size_t k) -> unsigned char {
      std::size_t n = c->instance.size();
      return k < n ? c->instance[k] : k == n ? '.' : c->pin[k - n - 1];
    };
    std::size_t la = a->instance.size() + 1 + a->pin.size();
    std::size_t lb = b->instance.size() + 1 + b->pin.size();
    for (std::size_t k = 0; k < la && k < lb; ++k)
      if (at(a, k) != at(b, k)) return at(a, k) < at(b, k);
    return la < lb;
  }

  std::string text(std::uint32_t id) const {
    std::string out;
    for (std::uint32_t k = begin_[id]; k < begin_[id + 1]; ++k) {
      if (k != begin_[id]) out += '|';
      out += parts_[k]->instance;
      out += '.';
      out += parts_[k]->pin;
    }
    return out;
  }

  std::vector<const NetConnection*> parts_;
  std::vector<std::uint32_t> begin_;  ///< per id, plus one past the last
  std::vector<std::uint64_t> hash_;
};

}  // namespace

std::vector<NetlistDiff> compare_netlists(const Netlist& golden,
                                          const Netlist& subject) {
  std::vector<NetlistDiff> diffs;

  // Anonymous nets match by connection signature; among subject nets with
  // one signature, the last in name order is the match. Subject signatures
  // are chained, in name order, per distinct hash.
  Signatures subject_sigs;
  base::DenseIds<std::int64_t> hash_ids;
  std::vector<std::uint32_t> hash_head, hash_tail, sig_next;
  std::vector<std::uint32_t> sig_pos;  ///< per signature: subject position
  std::vector<const ExtractedNet*> by_pos;  ///< subject nets in name order
  // A subject key's id is its position in name order.
  base::DenseIds<std::string_view> subject_ids;
  hash_ids.reserve(subject.nets.size());
  by_pos.reserve(subject.nets.size());
  subject_ids.reserve(subject.nets.size());
  for (const auto& [name, net] : subject.nets) {
    subject_ids.intern(name);
    by_pos.push_back(&net);
    if (!net.named) {
      std::uint32_t sig = subject_sigs.add(net);
      std::uint32_t h =
          hash_ids.intern(std::int64_t(subject_sigs.hash(sig)));
      if (h == hash_head.size()) {
        hash_head.push_back(kNone);
        hash_tail.push_back(kNone);
      }
      sig_next.push_back(kNone);
      chain(hash_head[h], hash_tail[h], sig_next, sig);
      sig_pos.push_back(std::uint32_t(by_pos.size() - 1));
    }
  }

  Signatures golden_sigs;
  // Subject position of the match for anonymous `gnet`, or kNone.
  auto find_anon = [&](const ExtractedNet& gnet) {
    std::uint32_t sig = golden_sigs.add(gnet);
    std::uint32_t h = hash_ids.find(std::int64_t(golden_sigs.hash(sig)));
    std::uint32_t found = kNone;
    if (h != kNone)
      for (std::uint32_t s = hash_head[h]; s != kNone; s = sig_next[s])
        if (golden_sigs.same(sig, subject_sigs, s)) found = sig_pos[s];
    return found;
  };

  // Subject nets matched so far, by position. A subject net counts as
  // matched when a matched net's canonical name is its key.
  std::vector<std::uint8_t> matched(subject.nets.size(), 0);

  for (const auto& [name, gnet] : golden.nets) {
    std::uint32_t spos =
        gnet.named ? subject_ids.find(name) : find_anon(gnet);
    const ExtractedNet* snet = spos == kNone ? nullptr : by_pos[spos];
    if (!snet) {
      // Single-connection anonymous nets (dangling pins) are noise; still
      // report named ones and multi-pin anonymous ones.
      if (gnet.named || gnet.connections.size() > 1)
        diffs.push_back({NetlistDiff::Kind::MissingNet, name,
                         "connections: " + Netlist::signature(gnet)});
      continue;
    }
    std::uint32_t mpos = subject_ids.find(snet->canonical);
    if (mpos != kNone) matched[mpos] = 1;
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

  std::uint32_t pos = 0;
  for (const auto& [name, snet] : subject.nets) {
    if (matched[pos++]) continue;
    bool matched_named = snet.named && golden.nets.count(name);
    if (matched_named) continue;  // handled above
    if (snet.named || snet.connections.size() > 1)
      diffs.push_back({NetlistDiff::Kind::ExtraNet, name,
                       "connections: " + Netlist::signature(snet)});
  }
  return diffs;
}

}  // namespace interop::sch

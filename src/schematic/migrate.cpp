#include "schematic/migrate.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <string_view>
#include <unordered_map>

#include "base/dense_ids.hpp"
#include "base/strings.hpp"

namespace interop::sch {

namespace {

// ---------------------------------------------------------------- scaling

struct Scaler {
  const base::Grid& from;
  const base::Grid& to;
  ScalePolicy policy;
  MigrationReport& report;

  std::int64_t coord(std::int64_t v) {
    if (policy == ScalePolicy::PreserveGridUnits) return v;
    ++report.points_rescaled;
    if (auto exact = base::rescale_exact(v, from, to)) return *exact;
    ++report.points_snapped;
    return base::rescale_snapped(v, from, to);
  }

  Point point(const Point& p) { return {coord(p.x), coord(p.y)}; }
  Segment segment(const Segment& s) { return {point(s.a), point(s.b)}; }
  Rect rect(const Rect& r) { return Rect(point(r.lo()), point(r.hi())); }
  Transform transform(const Transform& t) {
    return Transform(t.orient(), point(t.offset()));
  }
};

// Baseline offset in grid units for text of `height` under `font`.
std::int64_t baseline_units(const FontMetrics& font, std::int64_t height) {
  return (font.baseline_offset_centi * height + 50) / 100;
}

// -------------------------------------------------------- attach helper

/// Make `at` a legal pin-connection point on `sheet`: if it is interior to a
/// wire (not an endpoint), drop a junction dot there. `wires` indexes
/// `sheet` and learns the new dot.
void ensure_connectable(Sheet& sheet, WireIndex& wires, const Point& at) {
  if (!wires.ending_at(at).empty() || wires.touching(at).empty() ||
      wires.has_junction(at))
    return;
  sheet.junctions.push_back(at);
  wires.add_junction();
}

/// A connector chosen by steps 5 and 6, attached once both have run.
struct PendingConnector {
  Point at;
  Instance inst;
};

}  // namespace

MigrationResult migrate_design(const Design& src,
                               const MigrationConfig& config,
                               base::DiagnosticEngine& diags) {
  MigrationResult result{Design(config.target.grid), {}};
  Design& out = result.design;
  MigrationReport& report = result.report;

  Scaler scaler{src.grid(), config.target.grid, config.scale_policy, report};

  // ---- target library symbols ----
  for (const SymbolDef& def : config.target_symbols) out.add_symbol(def);

  // ---- source symbols that are not being replaced come along, rescaled ----
  for (const auto& [key, def] : src.symbols()) {
    if (config.symbol_map.find(key)) continue;  // replaced; target copy exists
    if (out.find_symbol(key)) continue;
    SymbolDef copy = def;
    copy.grid = config.target.grid;
    copy.body = scaler.rect(def.body);
    for (SymbolPin& pin : copy.pins) pin.pos = scaler.point(pin.pos);
    out.add_symbol(std::move(copy));
  }

  CallbackHost callbacks(config.al_engine);

  for (const auto& [cell, sch_src] : src.schematics()) {
    Schematic sch;
    sch.cell = cell;
    sch.props = sch_src.props;

    // Step 3 on schematic-level properties.
    apply_property_rules(config.property_rules, cell, sch.props, report.props,
                         diags);

    // Known buses for condensed-ref parsing (source dialect, whole cell).
    std::vector<std::string> known_buses;
    for (const Sheet& sheet : sch_src.sheets)
      for (const NetLabel& label : sheet.labels) {
        NetRef ref = parse_net_ref(label.text, config.source);
        if (ref.range) known_buses.push_back(ref.base);
      }
    std::sort(known_buses.begin(), known_buses.end());
    known_buses.erase(std::unique(known_buses.begin(), known_buses.end()),
                      known_buses.end());

    auto translate_text = [&](const std::string& text) {
      NetRef ref = parse_net_ref(text, config.source, known_buses);
      NetRef tref =
          translate_net_ref(ref, config.source, config.target, diags);
      return format_net_ref(tref, config.target);
    };

    // Canonical label name -> pages it appears on (for off-page connectors).
    std::map<std::string, std::set<int>> label_pages;

    for (const Sheet& sheet_src : sch_src.sheets) {
      ++report.sheets;
      Sheet sheet;
      sheet.number = sheet_src.number;
      sheet.frame = scaler.rect(sheet_src.frame);

      // ---- step 1: scale geometry while copying ----
      for (const Segment& w : sheet_src.wires)
        sheet.wires.push_back(scaler.segment(w));
      for (const Point& j : sheet_src.junctions)
        sheet.junctions.push_back(scaler.point(j));
      for (const Instance& inst_src : sheet_src.instances) {
        Instance inst = inst_src;
        inst.placement = scaler.transform(inst_src.placement);
        for (TextLabel& t : inst.attached_text) t.origin = scaler.point(t.origin);
        sheet.instances.push_back(std::move(inst));
      }
      for (const NetLabel& l : sheet_src.labels) {
        NetLabel label = l;
        label.at = scaler.point(l.at);
        label.visual.origin = scaler.point(l.visual.origin);
        sheet.labels.push_back(std::move(label));
      }
      for (const TextLabel& t : sheet_src.notes) {
        TextLabel note = t;
        note.origin = scaler.point(t.origin);
        sheet.notes.push_back(std::move(note));
      }

      // ---- step 2: instance property mapping + a/L callbacks ----
      for (Instance& inst : sheet.instances) {
        apply_property_rules(config.property_rules, inst.symbol.cell,
                             inst.props, report.props, diags);
        for (const CallbackRule& rule : config.property_rules.callbacks) {
          if (callbacks.run(rule, inst.symbol.cell, inst.props, diags))
            ++report.props.callbacks_run;
        }
      }

      // ---- step 3: symbol replacement with rip-up / reroute ----
      // Targets are chosen before any replacement rewrites a symbol. As in
      // replace_component, a name stands for the first instance carrying it.
      std::unordered_map<std::string, std::size_t> first_named;
      for (std::size_t i = 0; i < sheet.instances.size(); ++i)
        first_named.try_emplace(sheet.instances[i].name, i);
      std::vector<std::pair<std::size_t, const SymbolMapEntry*>> replacements;
      for (const Instance& inst : sheet.instances)
        if (const SymbolMapEntry* entry = config.symbol_map.find(inst.symbol))
          replacements.emplace_back(first_named.at(inst.name), entry);
      if (!replacements.empty()) {
        SheetRipup ripup(sheet);
        for (const auto& [inst, entry] : replacements) {
          const SymbolDef* to_def = out.find_symbol(entry->to);
          const SymbolDef* from_def = src.find_symbol(entry->from);
          if (!to_def || !from_def) {
            diags.error("replacement-symbol-missing",
                        "target library lacks symbol " + entry->to.str(),
                        {"sch.replace", sheet.instances[inst].name});
            continue;
          }
          // Pin positions must be located on the already-rescaled sheet.
          SymbolDef from_scaled = *from_def;
          for (SymbolPin& pin : from_scaled.pins)
            pin.pos = scaler.point(pin.pos);
          ripup.replace(inst, *entry, from_scaled, *to_def,
                        config.ripup_policy, report.ripup, diags);
        }
      }

      // ---- step 4: bus syntax translation on labels ----
      for (NetLabel& label : sheet.labels) {
        std::string translated = translate_text(label.text);
        if (translated != label.text) ++report.labels_translated;
        label.text = translated;
        label.visual.text = translated;
      }

      // ---- step 7 (part a): global symbol replacement ----
      for (Instance& inst : sheet.instances) {
        const SymbolDef* def = src.find_symbol(inst.symbol)
                                   ? src.find_symbol(inst.symbol)
                                   : out.find_symbol(inst.symbol);
        if (!def || def->role != SymbolRole::GlobalNet) continue;
        std::string net = def->default_props.get_text("global_net",
                                                      def->key.cell);
        const GlobalMapEntry* gm = config.global_map.find(net);
        if (!gm) {
          diags.warn("global-unmapped",
                     "no global mapping for net '" + net + "'",
                     {"sch.globals", inst.name});
          continue;
        }
        inst.symbol = gm->to_symbol;
        inst.placement = Transform(gm->rotation, gm->origin_offset) *
                         inst.placement;
        ++report.globals_replaced;
      }

      // Record label pages for step 6 (post-translation names).
      for (const NetLabel& label : sheet.labels) {
        NetRef ref = parse_net_ref(label.text, config.target);
        for (const std::string& bit : canonical_bits(ref))
          label_pages[bit].insert(sheet.number);
        // Track by base name too so bus labels of differing ranges join.
        label_pages[ref.base].insert(sheet.number);
      }

      sch.sheets.push_back(std::move(sheet));
    }

    // Place a connector so that its (single) pin lands exactly on `at`.
    auto connector_placement = [&out, &diags](const SymbolKey& key,
                                              const Point& at) {
      Point pin_local{0, 0};
      if (const SymbolDef* def = out.find_symbol(key)) {
        if (!def->pins.empty()) pin_local = def->pins.front().pos;
      } else {
        diags.error("connector-symbol-missing",
                    "target library lacks connector symbol " + key.str(),
                    {"sch.connect", key.str()});
      }
      return Transform(base::Orient::R0, at - pin_local);
    };

    // Connectors chosen by steps 5 and 6, per sheet, in placement order.
    std::vector<std::vector<PendingConnector>> connectors(sch.sheets.size());

    // ---- step 5: hierarchy connectors ----
    if (config.target.requires_hier_connectors) {
      const SymbolDef* cell_symbol = nullptr;
      for (const auto& [key, def] : src.symbols())
        if (key.cell == cell && def.role == SymbolRole::Component)
          cell_symbol = &def;
      if (cell_symbol) {
        for (const SymbolPin& pin : cell_symbol->pins) {
          std::string want = translate_text(pin.name);
          bool placed = false;
          for (std::size_t s = 0; s < sch.sheets.size() && !placed; ++s) {
            for (const NetLabel& label : sch.sheets[s].labels) {
              if (label.text != want) continue;
              SymbolKey key = pin.dir == PinDir::Input    ? config.hier_in
                              : pin.dir == PinDir::Output ? config.hier_out
                                                          : config.hier_inout;
              Instance conn;
              conn.name = "PORT_" + want;
              conn.symbol = key;
              conn.placement = connector_placement(key, label.at);
              conn.props.set("port", want);
              conn.props.set("dir", to_string(pin.dir));
              connectors[s].push_back({label.at, std::move(conn)});
              ++report.hier_connectors_added;
              placed = true;
              break;
            }
          }
          if (!placed)
            diags.warn("hier-port-unlabeled",
                       "cell " + cell + ": no labeled net found for port '" +
                           pin.name + "'; hierarchy connector not added",
                       {"sch.hier", cell});
        }
      }
    }

    // ---- step 6: off-page connectors ----
    if (config.target.requires_offpage_connectors) {
      for (const auto& [name, pages] : label_pages) {
        if (pages.size() < 2) continue;
        if (base::ends_with(name, config.target.global_suffix) &&
            !config.target.global_suffix.empty())
          continue;  // globals connect by themselves
        for (std::size_t s = 0; s < sch.sheets.size(); ++s) {
          const Sheet& sheet = sch.sheets[s];
          if (!pages.count(sheet.number)) continue;
          // Find the label with this name on this page.
          for (const NetLabel& label : sheet.labels) {
            NetRef ref = parse_net_ref(label.text, config.target);
            bool match = ref.base == name;
            if (!match) {
              for (const std::string& bit : canonical_bits(ref))
                if (bit == name) match = true;
            }
            if (!match) continue;
            Instance conn;
            conn.name = "OFFPAGE_" + name + "_p" +
                        std::to_string(sheet.number);
            conn.symbol = config.offpage;
            conn.placement = connector_placement(config.offpage, label.at);
            conn.props.set("net", label.text);
            connectors[s].push_back({label.at, std::move(conn)});
            ++report.offpage_connectors_added;
            break;
          }
        }
      }
    }

    // Attach the connectors, one wire index per sheet that gets any.
    for (std::size_t s = 0; s < sch.sheets.size(); ++s) {
      if (connectors[s].empty()) continue;
      Sheet& sheet = sch.sheets[s];
      WireIndex wires(sheet);
      for (PendingConnector& c : connectors[s]) {
        ensure_connectable(sheet, wires, c.at);
        sheet.instances.push_back(std::move(c.inst));
      }
    }

    // ---- step 8: cosmetics (fonts / baseline offsets) ----
    auto fix_text = [&](TextLabel& t) {
      std::int64_t src_bo = baseline_units(config.source.font, t.height);
      std::int64_t dst_bo = baseline_units(config.target.font, t.height);
      if (t.baseline_offset != dst_bo || src_bo != dst_bo) {
        // Preserve the visual baseline: baseline = origin.y - offset.
        t.origin.y = t.origin.y - t.baseline_offset + dst_bo;
        t.baseline_offset = dst_bo;
        ++report.texts_adjusted;
      }
    };
    for (Sheet& sheet : sch.sheets) {
      for (NetLabel& label : sheet.labels) fix_text(label.visual);
      for (TextLabel& note : sheet.notes) fix_text(note);
      for (Instance& inst : sheet.instances)
        for (TextLabel& t : inst.attached_text) fix_text(t);
    }

    out.add_schematic(std::move(sch));
  }

  return result;
}

Netlist map_golden_netlist(Netlist golden, const Schematic& sch_src,
                           const MigrationConfig& config) {
  // Rewrite a golden canonical name the way translation would have.
  auto normalize_name = [&config](std::string& name) {
    bool in_bits = false;
    for (char& c : name) {
      if (c == '[') in_bits = true;
      if (c == ']') in_bits = false;
      if (!in_bits && c != ']' && !config.target.legal_name_char(c)) c = '_';
    }
  };

  // The symbol-map entry of each source instance; a name stands for the
  // last instance carrying it.
  base::DenseIds<std::string_view> inst_ids;
  std::vector<const SymbolMapEntry*> inst_entry;
  std::size_t instances = 0;
  for (const Sheet& sheet : sch_src.sheets)
    instances += sheet.instances.size();
  inst_ids.reserve(instances);
  for (const Sheet& sheet : sch_src.sheets) {
    for (const Instance& inst : sheet.instances) {
      std::uint32_t id = inst_ids.intern(inst.name);
      if (id == inst_entry.size()) inst_entry.push_back(nullptr);
      inst_entry[id] = config.symbol_map.find(inst.symbol);
    }
  }
  auto renamed_pin = [&](const NetConnection& c) -> const std::string* {
    std::uint32_t id = inst_ids.find(c.instance);
    if (id == base::DenseIds<std::string_view>::kNone || !inst_entry[id])
      return nullptr;
    const auto& pin_map = inst_entry[id]->pin_map;
    auto pin = pin_map.find(c.pin);
    return pin == pin_map.end() || pin->second == c.pin ? nullptr
                                                        : &pin->second;
  };

  Netlist mapped;
  mapped.cell = std::move(golden.cell);
  while (!golden.nets.empty()) {
    auto node = golden.nets.extract(golden.nets.begin());
    ExtractedNet& net = node.mapped();
    normalize_name(node.key());
    net.canonical = node.key();
    // Map pin names through the symbol map. Renamed connections move their
    // set nodes across and back rather than being copied.
    std::set<NetConnection> renamed;
    for (auto it = net.connections.begin(); it != net.connections.end();) {
      const std::string* pin = renamed_pin(*it);
      if (!pin) {
        ++it;
        continue;
      }
      auto conn = net.connections.extract(it++);
      conn.value().pin = *pin;
      renamed.insert(std::move(conn));
    }
    net.connections.merge(renamed);
    // The end is the insertion point for as long as normalized names keep
    // their order.
    auto slot = mapped.nets.insert(mapped.nets.end(), std::move(node));
    if (!node) continue;
    // Normalization collided two names (itself a finding): the first net
    // stays and takes the other's connections.
    for (const NetConnection& c : node.mapped().connections)
      slot->second.connections.insert(c);
  }
  return mapped;
}

std::vector<NetlistDiff> verify_migration(const Design& src,
                                          const Design& migrated,
                                          const MigrationConfig& config,
                                          base::DiagnosticEngine& diags) {
  std::vector<NetlistDiff> all;
  for (const auto& [cell, sch_src] : src.schematics()) {
    const Schematic* sch_dst = migrated.find_schematic(cell);
    if (!sch_dst) {
      all.push_back({NetlistDiff::Kind::MissingNet, cell,
                     "whole cell missing from migrated design"});
      continue;
    }

    Netlist golden = extract_netlist(src, sch_src, config.source, diags);
    Netlist subject =
        extract_netlist(migrated, *sch_dst, config.target, diags);
    std::vector<NetlistDiff> diffs = compare_netlists(
        map_golden_netlist(std::move(golden), sch_src, config), subject);
    for (NetlistDiff& d : diffs) d.net = cell + "/" + d.net;
    all.insert(all.end(), diffs.begin(), diffs.end());
  }
  return all;
}

}  // namespace interop::sch

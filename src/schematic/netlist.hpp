#pragma once
// Connectivity extraction: derive a netlist from sheet geometry under a
// dialect's rules. This is how schematic tools really work, and it is why
// migrating drawings between tools can silently change the circuit — the
// same picture means different connectivity under different conventions.
//
// Rules implemented (per dialect flags):
//  - wire segments connect where endpoints coincide, or where an endpoint
//    lands on another segment's interior AND a junction dot is present;
//  - instance pins connect to any wire passing through the pin position;
//  - labels name the connected wire group they sit on; bus-range labels fan
//    the group out into per-bit nets;
//  - same-named groups on different pages join implicitly (Viewlogic) or
//    only through off-page connector instances (Composer);
//  - global-net symbols and global-suffix names join design-wide;
//  - hierarchy ports come from HierPort instances (Composer) or from labels
//    matching the cell's symbol pins (Viewlogic).
//
// Extraction is one flat connectivity pass per sheet: the sheet's WireIndex
// (wire_index.hpp) numbers the wire ends and junction dots and caches each
// wire's end nodes, pins and labels elsewhere get ids after them, and a
// union-find over those ids yields the wire groups, kept in a vector by
// root and ordered by anchor point. Labels are parsed once per cell, and
// the nets are collected by name and built into the Netlist map once, in
// name order. compare_netlists matches anonymous nets by a hash of their
// connection signature and builds signature text only for the diffs it
// reports. Netlist and NetlistDiff contents, diagnostic order and anon
// numbering are those of the straightforward per-query form, which
// tests/sch_netlist_oracle_test.cpp keeps as an oracle.

#include <map>
#include <set>
#include <string>
#include <vector>

#include "base/diagnostics.hpp"
#include "schematic/busref.hpp"
#include "schematic/dialect.hpp"
#include "schematic/model.hpp"

namespace interop::sch {

/// One (instance, pin) attachment.
struct NetConnection {
  std::string instance;
  std::string pin;

  friend bool operator==(const NetConnection&, const NetConnection&) = default;
  friend auto operator<=>(const NetConnection&, const NetConnection&) = default;
};

/// An extracted net (one canonical bit).
struct ExtractedNet {
  std::string canonical;            ///< canonical bit name ("A[3]", "clk")
  bool named = false;               ///< false for auto-named dangling groups
  bool global = false;
  bool is_port = false;
  PinDir port_dir = PinDir::Inout;
  std::set<NetConnection> connections;
};

/// Extraction result for one cell.
struct Netlist {
  std::string cell;
  /// Keyed by canonical name (auto names look like "$anon17").
  std::map<std::string, ExtractedNet> nets;

  /// Connection signature used to match anonymous nets between tools:
  /// sorted "inst.pin" list joined by '|'.
  static std::string signature(const ExtractedNet& net);
};

/// Extract the netlist of `sch` within `design` under `dialect` rules.
/// Dangling pins and floating labeled wires are reported through `diags`.
Netlist extract_netlist(const Design& design, const Schematic& sch,
                        const Dialect& dialect,
                        base::DiagnosticEngine& diags);

/// A single difference found by compare_netlists.
struct NetlistDiff {
  enum class Kind {
    MissingNet,        ///< net present in golden, absent in subject
    ExtraNet,          ///< net present in subject only
    ConnectionChange,  ///< same net, different pin set
    PortChange,        ///< port-ness or direction differs
    GlobalChange,      ///< global-ness differs
  };
  Kind kind;
  std::string net;
  std::string detail;
};

std::string to_string(NetlistDiff::Kind k);

/// Independent verification (the Exar requirement): compare two extracted
/// netlists. Named nets match by canonical name; anonymous nets match by
/// connection signature. Returns an empty vector when electrically equal.
std::vector<NetlistDiff> compare_netlists(const Netlist& golden,
                                          const Netlist& subject);

}  // namespace interop::sch

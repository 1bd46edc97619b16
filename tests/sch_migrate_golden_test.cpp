// Byte-level goldens for schematic migration.
//
// Every row pins what one migration produces: the FNV-1a digest of the
// written target design, every RipupStats field, the MigrationReport
// counters, the verification diff count, and a digest of all diagnostics
// (migrate and verify, in emission order). Rows cover the Exar generator at
// seeds 1-8, one 8x200-component design with 100 nets per sheet (the size
// interopd_bench's migrate_large sends), and a hand-drawn design whose
// source wiring has junction dots on tees and crossings, undotted
// crossings, duplicate, zero-length and diagonal wires, a wire joining two
// pins of one instance, and labels on wire interiors. Each runs under both
// rip-up policies.
//
// The values were captured from the whole-sheet-scan rip-up and netlist
// extraction that preceded the per-sheet wire index; any change to
// migration output (wire order included) shows up here.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "runtime/hash.hpp"
#include "schematic/generator.hpp"
#include "schematic/migrate.hpp"
#include "schematic/textio.hpp"

namespace interop::sch {
namespace {

struct Outcome {
  std::uint64_t design_hash = 0;
  std::uint64_t diag_hash = 0;
  std::size_t verify_diffs = 0;
  RipupStats ripup;
  MigrationReport report;
};

std::uint64_t diag_digest(const base::DiagnosticEngine& diags) {
  runtime::Fnv1a h;
  for (const base::Diagnostic& d : diags.all()) {
    h.update(base::to_string(d.severity));
    h.update(d.code);
    h.update(d.message);
    h.update(d.location.subsystem);
    h.update(d.location.object);
  }
  return h.digest();
}

Outcome run(const Design& source, MigrationConfig config, RipupPolicy policy) {
  config.ripup_policy = policy;
  base::DiagnosticEngine diags;
  MigrationResult result = migrate_design(source, config, diags);
  std::vector<NetlistDiff> diffs =
      verify_migration(source, result.design, config, diags);
  Outcome out;
  out.design_hash = runtime::fnv1a(write_design(result.design));
  out.diag_hash = diag_digest(diags);
  out.verify_diffs = diffs.size();
  out.ripup = result.report.ripup;
  out.report = result.report;
  return out;
}

/// The golden row for `o`, in the initializer syntax of kGoldens below, so
/// a deliberate output change can be re-pinned from the failure message.
std::string row(const std::string& name, RipupPolicy policy,
                const Outcome& o) {
  const RipupStats& r = o.ripup;
  const MigrationReport& m = o.report;
  std::ostringstream os;
  os << "{\"" << name << "\", "
     << (policy == RipupPolicy::Minimal ? "kMin" : "kFull") << ", 0x"
     << runtime::to_hex(o.design_hash) << "ULL, 0x"
     << runtime::to_hex(o.diag_hash) << "ULL, " << o.verify_diffs
     << ",\n     {" << r.instances_replaced << ", " << r.segments_ripped
     << ", " << r.segments_rerouted << ", " << r.fullnet_would_rip << ", "
     << r.reroute_length << ", " << r.next_rebuild_lane << "},\n     {"
     << m.sheets << ", " << m.points_rescaled << ", " << m.points_snapped
     << ", " << m.props.added << ", " << m.props.deleted << ", "
     << m.props.renamed << ", " << m.props.changed << ", "
     << m.props.callbacks_run << ", " << m.labels_translated << ", "
     << m.hier_connectors_added << ", "
     << m.offpage_connectors_added << ", " << m.globals_replaced << ", "
     << m.texts_adjusted << "}},";
  return os.str();
}

constexpr RipupPolicy kMin = RipupPolicy::Minimal;
constexpr RipupPolicy kFull = RipupPolicy::FullNet;

struct Golden {
  const char* scenario;
  RipupPolicy policy;
  std::uint64_t design_hash;
  std::uint64_t diag_hash;
  std::size_t verify_diffs;
  struct {
    std::size_t instances_replaced, segments_ripped, segments_rerouted,
        fullnet_would_rip;
    std::int64_t reroute_length, next_rebuild_lane;
  } ripup;
  struct {
    std::size_t sheets, points_rescaled, points_snapped, added, deleted,
        renamed, changed, callbacks_run, labels_translated, hier, offpage,
        globals, texts;
  } report;
};

constexpr Golden kGoldens[] = {
    {"exar1", kMin, 0x4d3c9f9eb520869dULL, 0x98416d12a00d21b2ULL, 0,
     {27, 60, 83, 380, 83, -1001},
     {2, 0, 0, 32, 11, 27, 15, 62, 4, 2, 12, 4, 55}},
    {"exar1", kFull, 0x3018717b086b024aULL, 0x98416d12a00d21b2ULL, 0,
     {27, 343, 321, 343, 252332, -1217},
     {2, 0, 0, 32, 11, 27, 15, 62, 4, 2, 12, 4, 55}},
    {"exar2", kMin, 0x6703b56fdaaa25ccULL, 0x8a7e538a8bd4e6adULL, 0,
     {27, 60, 85, 370, 87, -1001},
     {2, 0, 0, 32, 5, 27, 13, 62, 4, 2, 12, 4, 55}},
    {"exar2", kFull, 0xb51c643a6a6ce983ULL, 0xfab7cc7af3c9c3a5ULL, 0,
     {27, 335, 312, 335, 247238, -1213},
     {2, 0, 0, 32, 5, 27, 13, 62, 4, 2, 12, 4, 55}},
    {"exar3", kMin, 0x87d6e4191ebb05b5ULL, 0x3aa5f60030e30cebULL, 0,
     {28, 60, 86, 378, 89, -1001},
     {2, 0, 0, 33, 9, 28, 10, 64, 4, 2, 12, 4, 56}},
    {"exar3", kFull, 0xa0f8592040d6c6cdULL, 0x3aa5f60030e30cebULL, 0,
     {28, 344, 324, 344, 252536, -1217},
     {2, 0, 0, 33, 9, 28, 10, 64, 4, 2, 12, 4, 56}},
    {"exar4", kMin, 0xcf78b560c961476eULL, 0x1708dbf29a12856fULL, 0,
     {29, 60, 88, 411, 91, -1001},
     {2, 0, 0, 34, 7, 29, 11, 66, 4, 2, 12, 4, 57}},
    {"exar4", kFull, 0x0ea00251af98efbaULL, 0x58da477c667c3db6ULL, 0,
     {29, 366, 343, 366, 272465, -1233},
     {2, 0, 0, 34, 7, 29, 11, 66, 4, 2, 12, 4, 57}},
    {"exar5", kMin, 0x0bc9ff07a3be6646ULL, 0x4f2cd99845b0a7f2ULL, 0,
     {27, 60, 86, 394, 89, -1001},
     {2, 0, 0, 32, 8, 27, 13, 62, 4, 2, 12, 4, 55}},
    {"exar5", kFull, 0x7119a8890120ca62ULL, 0x4f2cd99845b0a7f2ULL, 0,
     {27, 356, 335, 356, 262203, -1225},
     {2, 0, 0, 32, 8, 27, 13, 62, 4, 2, 12, 4, 55}},
    {"exar6", kMin, 0xf2c493313cebe5a6ULL, 0xa6ec9ce4520cc1aeULL, 0,
     {28, 60, 83, 392, 85, -1001},
     {2, 0, 0, 33, 4, 28, 16, 64, 4, 2, 12, 4, 56}},
    {"exar6", kFull, 0xef1d9b9b8470764fULL, 0xcaba0ab49835c253ULL, 0,
     {28, 355, 334, 355, 263113, -1225},
     {2, 0, 0, 33, 4, 28, 16, 64, 4, 2, 12, 4, 56}},
    {"exar7", kMin, 0x23a498c41eb9d8f5ULL, 0xb534e0229f4385dcULL, 0,
     {27, 60, 86, 402, 89, -1001},
     {2, 0, 0, 32, 9, 27, 14, 62, 4, 2, 12, 4, 55}},
    {"exar7", kFull, 0x558d447ba6b0ec1dULL, 0x56a8f32011822f0fULL, 0,
     {27, 362, 342, 362, 267584, -1229},
     {2, 0, 0, 32, 9, 27, 14, 62, 4, 2, 12, 4, 55}},
    {"exar8", kMin, 0xe18b3bc367796ea0ULL, 0x74160bbaffaff575ULL, 0,
     {26, 60, 84, 386, 86, -1001},
     {2, 0, 0, 31, 9, 26, 11, 60, 4, 2, 12, 4, 54}},
    {"exar8", kFull, 0x71b38f658c881c40ULL, 0xe92709d0b1cd6c28ULL, 0,
     {26, 350, 330, 350, 257037, -1221},
     {2, 0, 0, 31, 9, 26, 11, 60, 4, 2, 12, 4, 54}},
    {"large8x200", kMin, 0x265b6898d80ebb95ULL, 0xeb45335b95891655ULL, 0,
     {1600, 1628, 2344, 11691, 2345, -1001},
     {8, 0, 0, 1605, 472, 1600, 811, 3208, 4, 2, 12, 4, 2412}},
    {"large8x200", kFull, 0xfd15d0f5c865ddfbULL, 0xfcbdca0dd46b7959ULL, 0,
     {1600, 10490, 9635, 10490, 30918665, -7485},
     {8, 0, 0, 1605, 472, 1600, 811, 3208, 4, 2, 12, 4, 2412}},
    {"junctions", kMin, 0x462be51f51c040cbULL, 0x00abdd12b562d7acULL, 0,
     {8, 12, 18, 40, 102, -1001},
     {2, 0, 0, 9, 0, 8, 0, 16, 0, 0, 4, 0, 0}},
    {"junctions", kFull, 0xd719087dd0d42a25ULL, 0x7de8ace875235e7aULL, 2,
     {8, 69, 84, 69, 62460, -1061},
     {2, 0, 0, 9, 0, 8, 0, 16, 0, 0, 4, 0, 0}},
};

bool matches(const Golden& g, const Outcome& o) {
  const RipupStats& r = o.ripup;
  const MigrationReport& m = o.report;
  return g.design_hash == o.design_hash && g.diag_hash == o.diag_hash &&
         g.verify_diffs == o.verify_diffs &&
         g.ripup.instances_replaced == r.instances_replaced &&
         g.ripup.segments_ripped == r.segments_ripped &&
         g.ripup.segments_rerouted == r.segments_rerouted &&
         g.ripup.fullnet_would_rip == r.fullnet_would_rip &&
         g.ripup.reroute_length == r.reroute_length &&
         g.ripup.next_rebuild_lane == r.next_rebuild_lane &&
         g.report.sheets == m.sheets &&
         g.report.points_rescaled == m.points_rescaled &&
         g.report.points_snapped == m.points_snapped &&
         g.report.added == m.props.added &&
         g.report.deleted == m.props.deleted &&
         g.report.renamed == m.props.renamed &&
         g.report.changed == m.props.changed &&
         g.report.callbacks_run == m.props.callbacks_run &&
         g.report.labels_translated == m.labels_translated &&
         g.report.hier == m.hier_connectors_added &&
         g.report.offpage == m.offpage_connectors_added &&
         g.report.globals == m.globals_replaced &&
         g.report.texts == m.texts_adjusted;
}

void check(const std::string& name, const Design& source,
           const MigrationConfig& config) {
  for (RipupPolicy policy : {kMin, kFull}) {
    Outcome o = run(source, config, policy);
    std::string got = row(name, policy, o);
    const Golden* golden = nullptr;
    for (const Golden& g : kGoldens)
      if (g.scenario == name && g.policy == policy) golden = &g;
    if (!golden)
      ADD_FAILURE() << "no golden row; got\n    " << got;
    else
      EXPECT_TRUE(matches(*golden, o)) << "golden mismatch; got\n    " << got;
  }
}

/// Source wiring the generator never draws: junction dots on a tee and on a
/// crossing, an undotted crossing and an undotted tee, a duplicate wire, a
/// zero-length and a diagonal wire, a wire joining two pins of one
/// instance, a pin on a dotted wire interior, and cross-page labels on wire
/// interiors (so off-page connectors need junctions).
Design junction_design() {
  Design design(viewlogic_dialect().grid);
  add_source_library(design, "top", {});
  auto place = [](Sheet& sheet, const std::string& name,
                  const std::string& cell, Point at) {
    Instance inst;
    inst.name = name;
    inst.symbol = {"vl_lib", cell, "sym"};
    inst.placement = Transform(base::Orient::R0, at);
    inst.props.set("REFDES", name);
    sheet.instances.push_back(std::move(inst));
  };
  auto label = [](Sheet& sheet, const std::string& text, Point at) {
    NetLabel l;
    l.text = text;
    l.at = at;
    l.visual.text = text;
    l.visual.origin = at;
    sheet.labels.push_back(std::move(l));
  };

  Schematic sch;
  sch.cell = "top";

  Sheet s1;
  s1.number = 1;
  s1.frame = Rect(Point{-20, -20}, Point{60, 40});
  place(s1, "U1", "vl_nand2", {0, 4});   // A(0,7) B(0,5) Y(6,6)
  place(s1, "U2", "vl_inv", {16, 4});    // A(16,6) Y(20,6)
  place(s1, "U3", "vl_res", {32, 4});    // P(32,5) N(36,5)
  place(s1, "U4", "vl_cap", {0, 16});    // P(0,17) N(4,17)
  place(s1, "U5", "vl_nand2", {16, 16}); // A(16,19) B(16,17) Y(22,18)
  place(s1, "U6", "vl_inv", {40, 14});   // A(40,16) Y(44,16)
  // Three-pin net: trunk along y=-4 with a dotted tee at (16,-4).
  s1.wires.push_back({{6, -4}, {36, -4}});
  s1.wires.push_back({{6, 6}, {6, -4}});
  s1.wires.push_back({{16, 6}, {16, -4}});
  s1.junctions.push_back({16, -4});
  s1.wires.push_back({{36, 5}, {36, -4}});
  label(s1, "tee", {36, -4});
  // Crossing net: H along y=10, V along x=24 crossing it at a dot.
  s1.wires.push_back({{-6, 10}, {40, 10}});
  s1.wires.push_back({{24, 2}, {24, 14}});
  s1.junctions.push_back({24, 10});
  s1.wires.push_back({{32, 5}, {32, 10}});   // dotted tee into H
  s1.junctions.push_back({32, 10});
  s1.wires.push_back({{16, 17}, {24, 17}});  // U5.B to V's end
  s1.wires.push_back({{24, 17}, {24, 14}});
  s1.wires.push_back({{24, 17}, {24, 14}});  // duplicate
  label(s1, "cx", {-6, 10});
  // Undotted crossing and undotted tee: neither joins H.
  s1.wires.push_back({{12, 0}, {12, 12}});
  s1.wires.push_back({{4, 17}, {4, 10}});
  // From H's end, a wire carrying U6.A on a dotted interior point.
  s1.wires.push_back({{40, 10}, {40, 20}});
  s1.junctions.push_back({40, 16});
  // A wire joining two pins of U1, and a zero-length wire on U2.Y.
  s1.wires.push_back({{0, 5}, {0, 7}});
  s1.wires.push_back({{20, 6}, {20, 6}});
  // A diagonal from U5.Y.
  s1.wires.push_back({{22, 18}, {30, 24}});
  label(s1, "dg", {30, 24});
  sch.sheets.push_back(std::move(s1));

  Sheet s2;
  s2.number = 2;
  s2.frame = Rect(Point{-20, -20}, Point{60, 40});
  place(s2, "U7", "vl_inv", {20, 0});    // A(20,2) Y(24,2)
  place(s2, "U8", "vl_res", {40, 0});    // P(40,1) N(44,1)
  s2.wires.push_back({{0, 0}, {10, 0}});
  s2.wires.push_back({{10, 0}, {20, 2}});  // diagonal into U7.A
  s2.wires.push_back({{24, 2}, {40, 2}});
  s2.wires.push_back({{40, 2}, {40, 1}});
  s2.wires.push_back({{30, -6}, {30, 8}});  // crosses (30,2) with a dot
  s2.junctions.push_back({30, 2});
  label(s2, "cx", {5, 0});   // interior label: off-page needs a junction
  label(s2, "tee", {30, 6}); // interior of the dotted crossing wire
  sch.sheets.push_back(std::move(s2));

  design.add_schematic(std::move(sch));
  return design;
}

TEST(MigrateGolden, ExarSeeds) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    GeneratorOptions opt;
    opt.seed = seed;
    Scenario sc = make_exar_scenario(opt);
    check("exar" + std::to_string(seed), sc.source, sc.config);
  }
}

TEST(MigrateGolden, LargeEightSheetDesign) {
  GeneratorOptions opt;
  opt.seed = 11;
  opt.sheets = 8;
  opt.components_per_sheet = 200;
  opt.nets_per_sheet = 100;
  Scenario sc = make_exar_scenario(opt);
  check("large8x200", sc.source, sc.config);
}

TEST(MigrateGolden, SourceJunctionsOnTeesAndCrossings) {
  GeneratorOptions opt;
  Scenario sc = make_exar_scenario(opt);
  check("junctions", junction_design(), sc.config);
}

}  // namespace
}  // namespace interop::sch

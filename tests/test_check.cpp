#include "check/check.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <vector>

#include "base/json.h"
#include "circuits/circuits.h"
#include "core/desynchronizer.h"
#include "ctl/protocol.h"
#include "flow/engine.h"
#include "mutants.h"
#include "netlist/builder.h"

namespace desyn::check {
namespace {

using cell::Kind;
using cell::Tech;
using cell::V;
using ctl::Protocol;
using nl::Builder;
using nl::CellId;
using nl::Netlist;
using nl::NetId;

const Tech& tech() { return Tech::generic90(); }

flow::DesyncResult run_flow(const circuits::Circuit& c, Protocol p) {
  flow::DesyncOptions opt;
  opt.protocol = p;
  return flow::desynchronize(c.netlist, c.clock, tech(), opt);
}

LintReport lint_of(const flow::DesyncResult& r) { return lint(r, tech()); }

/// A small design with one RAM macro (same shape as test_partition's) so
/// the reader->writer ordering arcs exist.
circuits::Circuit ram_design() {
  Netlist nl("ramd");
  Builder b(nl);
  NetId clk = b.input("clk");
  NetId din = b.input("din");
  std::vector<NetId> wa(2);
  for (int i = 0; i < 2; ++i) wa[i] = nl.add_net(cat("adr.q", i));
  NetId carry = b.hi();
  for (int i = 0; i < 2; ++i) {
    NetId sum = b.xor_(wa[i], carry);
    carry = b.and_({wa[i], carry});
    nl.add_cell(Kind::Dff, cat("adr.r", i), {sum, clk}, {wa[i]}, V::V0);
  }
  std::vector<NetId> wd = {din, b.inv(din)};
  std::vector<NetId> ra = {b.inv(wa[0]), wa[1]};
  auto rd = b.ram(clk, b.hi(), wa, wd, ra, 2, "mem");
  NetId q = b.dff(b.xor_(rd[0], rd[1]), clk, V::V0, "out.r");
  b.output(q);
  return {std::move(nl), clk};
}

// --------------------------------------------------------------------------
// Mutation helpers: all mutations are pure netlist edits on a DesyncResult
// copy, the same editing API the flow itself uses.
// --------------------------------------------------------------------------

/// The transition C-element driving bank `b`'s round net.
CellId round_c(const flow::DesyncResult& r, int b) {
  return r.netlist.net(r.ctrl.rounds[static_cast<size_t>(b)]).driver;
}

/// Controller terminal nets (round + fall transition nets) — the cone walk
/// below must not look through another bank's transition output.
std::set<uint32_t> terminal_nets(const flow::DesyncResult& r) {
  std::set<uint32_t> t;
  for (NetId n : r.ctrl.rounds) {
    if (n.valid()) t.insert(n.value());
  }
  for (NetId n : r.ctrl.falls) {
    if (n.valid()) t.insert(n.value());
  }
  return t;
}

/// Does `target` appear in the driver cone of `start`, walking through any
/// cell but stopping at controller terminals other than the target?
bool cone_has(const Netlist& nl, NetId start, NetId target,
              const std::set<uint32_t>& stops) {
  std::vector<NetId> stack = {start};
  std::set<uint32_t> seen;
  while (!stack.empty()) {
    NetId n = stack.back();
    stack.pop_back();
    if (!seen.insert(n.value()).second) continue;
    if (n == target) return true;
    if (stops.count(n.value())) continue;
    CellId d = nl.net(n).driver;
    if (!d.valid()) continue;
    for (NetId in : nl.cell(d).ins) stack.push_back(in);
  }
  return false;
}

/// The input pin of `c` whose cone contains `target` (-1 if none/ambiguous
/// selection is fine: the first one).
int input_tracing_to(const Netlist& nl, CellId c, NetId target,
                     const std::set<uint32_t>& stops) {
  const nl::CellData& cd = nl.cell(c);
  for (size_t i = 0; i < cd.ins.size(); ++i) {
    if (cone_has(nl, cd.ins[i], target, stops)) return static_cast<int>(i);
  }
  return -1;
}

/// Drop the controller arc carried by input `pin` of `c`: rewire it to a
/// sibling input whose cone does NOT contain `avoid` (duplicated C-element
/// inputs are legal — the synthesizer itself emits C(a,a)).
void drop_input(Netlist& nl, CellId c, int pin, NetId avoid,
                const std::set<uint32_t>& stops) {
  const nl::CellData& cd = nl.cell(c);
  for (size_t j = 0; j < cd.ins.size(); ++j) {
    if (static_cast<int>(j) == pin) continue;
    if (cone_has(nl, cd.ins[j], avoid, stops)) continue;
    nl.rewire_input(c, static_cast<uint16_t>(pin), cd.ins[j]);
    return;
  }
  FAIL() << "no sibling input to rewire to";
}

/// Like drop_input, but descends toward the source when every sibling of
/// the traced pin also sees `target` (pred legs merge in join trees before
/// the transition C-element; the drop must happen where the leg is still
/// separate).
bool drop_leg(Netlist& nl, CellId c, NetId target,
              const std::set<uint32_t>& stops) {
  int pin = input_tracing_to(nl, c, target, stops);
  if (pin < 0) return false;
  const nl::CellData& cd = nl.cell(c);
  for (size_t j = 0; j < cd.ins.size(); ++j) {
    if (static_cast<int>(j) == pin) continue;
    if (cone_has(nl, cd.ins[j], target, stops)) continue;
    nl.rewire_input(c, static_cast<uint16_t>(pin), cd.ins[j]);
    return true;
  }
  CellId d = nl.net(cd.ins[static_cast<size_t>(pin)]).driver;
  if (!d.valid()) return false;
  return drop_leg(nl, d, target, stops);
}

/// First control-graph edge between two real (non-environment) banks for
/// which `want_even_from` matches; asserts one exists.
ctl::ControlGraph::Edge real_edge(const flow::DesyncResult& r,
                                  bool want_even_from) {
  for (const auto& e : r.cg.edges()) {
    if (e.from == r.env_snk || e.from == r.env_src) continue;
    if (e.to == r.env_snk || e.to == r.env_src) continue;
    if (r.cg.bank(e.from).even == want_even_from) return e;
  }
  ADD_FAILURE() << "no real edge with even(from)=" << want_even_from;
  return r.cg.edges().front();
}

// --------------------------------------------------------------------------
// Diagnostics framework
// --------------------------------------------------------------------------

TEST(CheckCodes, TablesAndFormatting) {
  EXPECT_EQ(format_code(kArcMismatch), "DSN204");
  EXPECT_EQ(format_code(kFloatingNet), "DSN101");
  EXPECT_STREQ(code_pass(kCombCycle), "structure");
  EXPECT_STREQ(code_pass(kNotLive), "control");
  EXPECT_STREQ(code_pass(kDelayLineShort), "timing");
  EXPECT_STREQ(code_pass(kRamClosureLost), "handshake");
}

TEST(CheckCodes, ReportAccounting) {
  LintReport rep;
  EXPECT_TRUE(rep.clean());
  rep.diags.push_back({kDelayLineLong, Severity::Warning, "m", "", ""});
  rep.diags.push_back({kNotLive, Severity::Error, "m", "", ""});
  EXPECT_FALSE(rep.clean());
  EXPECT_EQ(rep.errors(), 1u);
  EXPECT_EQ(rep.warnings(), 1u);
  EXPECT_TRUE(rep.has(kNotLive));
  EXPECT_FALSE(rep.has(kNotSafe));
}

// --------------------------------------------------------------------------
// Zero false positives: every suite circuit x all four protocols is clean.
// --------------------------------------------------------------------------

TEST(CheckClean, SuiteAllProtocols) {
  for (const circuits::Suite& s : circuits::scaling_suite()) {
    for (Protocol p : ctl::kAllProtocols) {
      flow::DesyncResult r = run_flow(s.circuit, p);
      LintReport rep = lint_of(r);
      EXPECT_TRUE(rep.clean())
          << render_text(rep, cat(s.name, "/", ctl::protocol_name(p)));
      EXPECT_TRUE(rep.structure_clean);
      EXPECT_TRUE(rep.control_extracted);
      EXPECT_GT(rep.arcs_checked, 0u);
      EXPECT_GT(rep.paths_checked, 0u);
      EXPECT_GT(rep.edges_checked, 0u);
    }
  }
}

TEST(CheckClean, RamDesignAllProtocols) {
  circuits::Circuit c = ram_design();
  for (Protocol p : ctl::kAllProtocols) {
    flow::DesyncResult r = run_flow(c, p);
    LintReport rep = lint_of(r);
    EXPECT_TRUE(rep.clean())
        << render_text(rep, cat("ramd/", ctl::protocol_name(p)));
  }
}

TEST(CheckClean, DlxAllProtocols) {
  circuits::Circuit c = circuits::crc32();
  for (Protocol p : ctl::kAllProtocols) {
    LintReport rep = lint_of(run_flow(c, p));
    EXPECT_TRUE(rep.clean())
        << render_text(rep, cat("crc32/", ctl::protocol_name(p)));
  }
}

// --------------------------------------------------------------------------
// Pass 1 (structure) mutations
// --------------------------------------------------------------------------

TEST(CheckStructure, FloatingNetIsDSN101) {
  flow::DesyncResult r = run_flow(circuits::pipeline(4, 8, 2), Protocol::Pulse);
  CellId latch = r.banks.banks.at(0).latches.at(0);
  NetId orphan = r.netlist.add_net("mut.float");
  r.netlist.rewire_input(latch, 0, orphan);
  LintReport rep = lint_of(r);
  EXPECT_TRUE(rep.has(kFloatingNet)) << render_text(rep, "mut");
  EXPECT_FALSE(rep.clean());
}

TEST(CheckStructure, CombCycleIsDSN102AndGatesLaterPasses) {
  flow::DesyncResult r = run_flow(circuits::pipeline(4, 8, 2), Protocol::Pulse);
  NetId a = r.netlist.add_net("mut.cyc.a");
  NetId b = r.netlist.add_net("mut.cyc.b");
  r.netlist.add_cell(Kind::Inv, "mut.cyc.i0", {a}, {b});
  r.netlist.add_cell(Kind::Inv, "mut.cyc.i1", {b}, {a});
  LintReport rep = lint_of(r);
  EXPECT_TRUE(rep.has(kCombCycle)) << render_text(rep, "mut");
  ASSERT_EQ(rep.diags.size(), 1u) << render_text(rep, "mut");
  EXPECT_EQ(rep.diags[0].cell, "mut.cyc.i0");
  EXPECT_EQ(rep.diags[0].message,
            "combinational cycle through cell 'mut.cyc.i0' (not C-element "
            "feedback)");
  EXPECT_FALSE(rep.structure_clean);
  // STA/extraction need an acyclic netlist; the linter must degrade, not
  // crash, and must not claim the control network was verified.
  EXPECT_FALSE(rep.control_extracted);
}

TEST(CheckStructure, DanglingEnableIsDSN103) {
  flow::DesyncResult r =
      run_flow(circuits::pipeline(4, 8, 2), Protocol::SemiDecoupled);
  CellId latch = r.banks.banks.at(0).latches.at(0);
  // Feed the latch from a *different* bank's enable: still a control net,
  // but not the one its bank's controller drives.
  r.netlist.rewire_input(latch, 1, r.ctrl.enables.at(2));
  LintReport rep = lint_of(r);
  EXPECT_TRUE(rep.has(kDanglingEnable)) << render_text(rep, "mut");
}

TEST(CheckStructure, UnresolvedResetIsDSN104) {
  flow::DesyncResult r = run_flow(circuits::pipeline(4, 8, 2), Protocol::Pulse);
  r.netlist.set_init(round_c(r, 0), V::VX);
  LintReport rep = lint_of(r);
  EXPECT_TRUE(rep.has(kResetUnresolved)) << render_text(rep, "mut");
}

// --------------------------------------------------------------------------
// Pass 2 (control network) mutations
// --------------------------------------------------------------------------

TEST(CheckControl, DatapathIntoControllerIsDSN201) {
  flow::DesyncResult r = run_flow(circuits::pipeline(4, 8, 2), Protocol::Pulse);
  NetId latch_q = r.netlist.cell(r.banks.banks.at(0).latches.at(0)).outs[0];
  r.netlist.rewire_input(round_c(r, 2), 0, latch_q);
  LintReport rep = lint_of(r);
  EXPECT_TRUE(rep.has(kExtractionFailed)) << render_text(rep, "mut");
  EXPECT_FALSE(rep.control_extracted);
}

TEST(CheckControl, BypassedMarkingInverterIsDSN202) {
  flow::DesyncResult r =
      run_flow(circuits::pipeline(4, 8, 2), Protocol::Lockstep);
  // The shared marking inverter of (b, +) for an even bank b: removing it
  // unmarks every arc sourced at b+, including the alternation b+ -> b-,
  // leaving the b+ <-> b- cycle token-free (a genuine deadlock).
  CellId inv;
  NetId round;
  bool found = false;
  for (CellId c : r.netlist.cells()) {
    const nl::CellData& cd = r.netlist.cell(c);
    if (cd.kind != Kind::Inv) continue;
    for (size_t b = 0; b < r.cg.num_banks(); ++b) {
      int bi = static_cast<int>(b);
      if (bi == r.env_snk || bi == r.env_src) continue;
      if (!r.cg.bank(bi).even) continue;
      if (cd.ins[0] == r.ctrl.rounds[b]) {
        inv = c;
        round = r.ctrl.rounds[b];
        found = true;
      }
    }
    if (found) break;
  }
  ASSERT_TRUE(found) << "no marking inverter on an even bank round";
  std::vector<nl::Pin> pins = r.netlist.net(r.netlist.cell(inv).outs[0]).fanout;
  for (const nl::Pin& p : pins) r.netlist.rewire_input(p.cell, p.index, round);
  LintReport rep = lint_of(r);
  EXPECT_TRUE(rep.has(kNotLive)) << render_text(rep, "mut");
}

TEST(CheckControl, InjectedMarkingInverterIsDSN203) {
  flow::DesyncResult r =
      run_flow(circuits::pipeline(4, 8, 2), Protocol::SemiDecoupled);
  // Invert the b- -> a+ acknowledge leg: the arc's recovered marking flips
  // to marked, giving the a+ -> b- -> a+ handshake cycle two tokens.
  ctl::ControlGraph::Edge e = real_edge(r, /*want_even_from=*/true);
  std::set<uint32_t> stops = terminal_nets(r);
  CellId aplus = round_c(r, e.from);
  NetId bfall = r.ctrl.falls.at(static_cast<size_t>(e.to));
  int pin = input_tracing_to(r.netlist, aplus, bfall, stops);
  ASSERT_GE(pin, 0);
  NetId inverted = r.netlist.add_net("mut.mark");
  r.netlist.add_cell(Kind::Inv, "mut.mark.i",
                     {r.netlist.cell(aplus).ins[static_cast<size_t>(pin)]},
                     {inverted});
  r.netlist.rewire_input(aplus, static_cast<uint16_t>(pin), inverted);
  LintReport rep = lint_of(r);
  EXPECT_TRUE(rep.has(kNotSafe)) << render_text(rep, "mut");
}

TEST(CheckControl, DroppedPredArcIsDSN204) {
  flow::DesyncResult r =
      run_flow(circuits::pipeline(4, 8, 2), Protocol::SemiDecoupled);
  // Drop the p- -> a+ matched-delay (pred) arc at a+'s C-element.
  ctl::ControlGraph::Edge e = real_edge(r, /*want_even_from=*/false);
  std::set<uint32_t> stops = terminal_nets(r);
  CellId to_c = round_c(r, e.to);
  NetId from_fall = r.ctrl.falls.at(static_cast<size_t>(e.from));
  int pin = input_tracing_to(r.netlist, to_c, from_fall, stops);
  ASSERT_GE(pin, 0);
  drop_input(r.netlist, to_c, pin, from_fall, stops);
  LintReport rep = lint_of(r);
  EXPECT_TRUE(rep.has(kArcMismatch)) << render_text(rep, "mut");
}

TEST(CheckControl, SwappedCElementInputIsDSN204) {
  flow::DesyncResult r = run_flow(circuits::pipeline(4, 8, 2), Protocol::Pulse);
  // Cross-wire bank 0's C-element input into bank 5's controller: the
  // extracted arc set gains an edge the model does not have.
  CellId victim = round_c(r, 5);
  NetId foreign = r.netlist.cell(round_c(r, 0)).ins[0];
  r.netlist.rewire_input(victim, 0, foreign);
  LintReport rep = lint_of(r);
  EXPECT_TRUE(rep.has(kArcMismatch)) << render_text(rep, "mut");
}

TEST(CheckControl, Pr2LockstepArcSetRegressionIsDSN205) {
  // PR 2's real Lockstep bug: the synthesized arc set lost the a- -> b+
  // interlock, so a successor bank could open while its predecessor was
  // still transparent. Reproduce the defect class by dropping that leg at
  // b+'s C-element and assert the *contract* check fires — the non-overlap
  // property is verified on the extracted graph alone, so it catches this
  // class even when model and hardware share the same wrong arc list, and
  // without simulating a single event.
  flow::DesyncResult r =
      run_flow(circuits::pipeline(4, 8, 2), Protocol::Lockstep);
  ctl::ControlGraph::Edge e = real_edge(r, /*want_even_from=*/true);
  std::set<uint32_t> stops = terminal_nets(r);
  CellId bplus = round_c(r, e.to);
  NetId afall = r.ctrl.falls.at(static_cast<size_t>(e.from));
  int pin = input_tracing_to(r.netlist, bplus, afall, stops);
  ASSERT_GE(pin, 0);
  drop_input(r.netlist, bplus, pin, afall, stops);
  LintReport rep = lint_of(r);
  EXPECT_TRUE(rep.has(kProtocolContract)) << render_text(rep, "mut");
  EXPECT_TRUE(rep.has(kArcMismatch));
}

// --------------------------------------------------------------------------
// Pass 3 (matched-delay coverage) mutations
// --------------------------------------------------------------------------

using mutants::find_delay_pair;

TEST(CheckTiming, ShavedDelayLineIsDSN301) {
  CellId second, first;
  std::optional<flow::DesyncResult> r;
  for (const circuits::Suite& s : circuits::scaling_suite()) {
    r.emplace(run_flow(s.circuit, Protocol::Pulse));
    if (find_delay_pair(r->netlist, &second, &first)) break;
    r.reset();
  }
  ASSERT_TRUE(r.has_value()) << "no 2+ cell matched-delay line in the suite";
  // Splice one DELAY cell out of the chain: the line is now one unit
  // shorter than the recomputed launch->capture delay requires.
  r->netlist.rewire_input(second, 0, r->netlist.cell(first).ins[0]);
  LintReport rep = lint_of(*r);
  EXPECT_TRUE(rep.has(kDelayLineShort)) << render_text(rep, "mut");
  EXPECT_GT(rep.errors(), 0u);
}

TEST(CheckTiming, PaddedDelayLineIsDSN303WarningOnly) {
  CellId second, first;
  std::optional<flow::DesyncResult> r;
  for (const circuits::Suite& s : circuits::scaling_suite()) {
    r.emplace(run_flow(s.circuit, Protocol::Pulse));
    if (find_delay_pair(r->netlist, &second, &first)) break;
    r.reset();
  }
  ASSERT_TRUE(r.has_value());
  NetId mid = r->netlist.add_net("mut.pad");
  r->netlist.add_cell(Kind::Delay, "mut.pad.d",
                      {r->netlist.cell(second).ins[0]}, {mid});
  r->netlist.rewire_input(second, 0, mid);
  LintReport rep = lint_of(*r);
  EXPECT_TRUE(rep.has(kDelayLineLong)) << render_text(rep, "mut");
  // Over-provisioning wastes area but cannot corrupt data: warning only.
  EXPECT_EQ(rep.errors(), 0u);
  EXPECT_GT(rep.warnings(), 0u);
}

TEST(CheckTiming, UncoveredCrossBankPathIsDSN302) {
  flow::DesyncResult r =
      run_flow(circuits::pipeline(4, 8, 2), Protocol::SemiDecoupled);
  // Wire a latch D pin to the Q of a non-adjacent bank: a launch->capture
  // path no control-graph edge (hence no matched delay) covers.
  bool done = false;
  for (size_t o = 0; o < r.banks.banks.size() && !done; ++o) {
    if (r.cg.bank(static_cast<int>(o)).even) continue;
    for (size_t v = 0; v < r.banks.banks.size() && !done; ++v) {
      if (!r.cg.bank(static_cast<int>(v)).even) continue;
      bool adjacent = false;
      for (const auto& e : r.cg.edges()) {
        if (e.from == static_cast<int>(o) && e.to == static_cast<int>(v)) {
          adjacent = true;
        }
      }
      if (adjacent) continue;
      if (r.banks.banks[o].latches.empty() || r.banks.banks[v].latches.empty())
        continue;
      NetId q = r.netlist.cell(r.banks.banks[o].latches[0]).outs[0];
      r.netlist.rewire_input(r.banks.banks[v].latches[0], 0, q);
      done = true;
    }
  }
  ASSERT_TRUE(done) << "no non-adjacent bank pair";
  LintReport rep = lint_of(r);
  EXPECT_TRUE(rep.has(kUncoveredPath)) << render_text(rep, "mut");
}

// --------------------------------------------------------------------------
// Pass 4 (handshake completeness) mutations
// --------------------------------------------------------------------------

TEST(CheckHandshake, OrphanedAckIsDSN401) {
  flow::DesyncResult r = run_flow(circuits::pipeline(4, 8, 2), Protocol::Pulse);
  // Drop the b+ -> a+ acknowledge leg at a's round C-element: bank a's
  // request to b is no longer answered.
  ctl::ControlGraph::Edge e = real_edge(r, /*want_even_from=*/true);
  std::set<uint32_t> stops = terminal_nets(r);
  CellId a_c = round_c(r, e.from);
  NetId b_round = r.ctrl.rounds.at(static_cast<size_t>(e.to));
  int pin = input_tracing_to(r.netlist, a_c, b_round, stops);
  ASSERT_GE(pin, 0);
  drop_input(r.netlist, a_c, pin, b_round, stops);
  LintReport rep = lint_of(r);
  EXPECT_TRUE(rep.has(kMissingAck)) << render_text(rep, "mut");
}

TEST(CheckHandshake, LostRamOrderingIsDSN402) {
  flow::DesyncResult r = run_flow(ram_design(), Protocol::Pulse);
  // The writer bank (the odd bank holding the RAM macro) must keep an
  // incoming arc from every reader bank; drop its pred leg.
  int w = -1;
  for (size_t i = 0; i < r.banks.banks.size(); ++i) {
    if (!r.banks.banks[i].rams.empty()) w = static_cast<int>(i);
  }
  ASSERT_GE(w, 0);
  ASSERT_FALSE(r.cg.bank(w).even);
  int reader = -1;
  for (const auto& e : r.cg.edges()) {
    if (e.to == w && e.from != w && e.from != r.env_snk &&
        e.from != r.env_src && r.cg.bank(e.from).even) {
      reader = e.from;
    }
  }
  ASSERT_GE(reader, 0) << "no reader edge into the writer bank";
  std::set<uint32_t> stops = terminal_nets(r);
  NetId reader_round = r.ctrl.rounds.at(static_cast<size_t>(reader));
  // Sever every leg from the reader's round into the writer's controller
  // (the ordering pred leg and the returning ack leg share one transition
  // quad): the writer can then fire with no regard for the reader at all.
  while (drop_leg(r.netlist, round_c(r, w), reader_round, stops)) {
  }
  ASSERT_LT(input_tracing_to(r.netlist, round_c(r, w), reader_round, stops),
            0);
  LintReport rep = lint_of(r);
  EXPECT_TRUE(rep.has(kRamClosureLost)) << render_text(rep, "mut");
}

// --------------------------------------------------------------------------
// Renderers
// --------------------------------------------------------------------------

TEST(CheckRender, TextNamesCodesAndAnchors) {
  LintReport rep;
  rep.diags.push_back({kDelayLineShort, Severity::Error, "line too short",
                       "ctl.s1.d0_1", "ctl.s1+"});
  std::string text = render_text(rep, "pipe");
  EXPECT_NE(text.find("DSN301"), std::string::npos);
  EXPECT_NE(text.find("ctl.s1.d0_1"), std::string::npos);
  EXPECT_NE(text.find("timing"), std::string::npos);
}

TEST(CheckRender, JsonRoundTrips) {
  flow::DesyncResult r = run_flow(circuits::pipeline(4, 8, 2), Protocol::Pulse);
  r.netlist.set_init(round_c(r, 0), V::VX);
  LintReport rep = lint_of(r);
  ASSERT_FALSE(rep.clean());
  json::Value v =
      json::parse(render_json(rep, "pipe4x8", Protocol::Pulse, 1.1));
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.get_string("circuit"), "pipe4x8");
  EXPECT_EQ(v.get_string("protocol"), "pulse");
  EXPECT_FALSE(v.get_bool("clean", true));
  EXPECT_NEAR(v.get_number("margin", 0), 1.1, 1e-9);
  EXPECT_EQ(static_cast<size_t>(v.get_number("errors", -1)), rep.errors());
  const json::Value* diags = v.get("diags");
  ASSERT_NE(diags, nullptr);
  ASSERT_EQ(diags->array.size(), rep.diags.size());
  const json::Value& d0 = diags->array[0];
  EXPECT_EQ(d0.get_string("code"), format_code(rep.diags[0].code));
  EXPECT_EQ(d0.get_string("pass"), code_pass(rep.diags[0].code));
  EXPECT_FALSE(d0.get_string("message").empty());
  const json::Value* checked = v.get("checked");
  ASSERT_NE(checked, nullptr);
  EXPECT_EQ(static_cast<size_t>(checked->get_number("edges", -1)),
            rep.edges_checked);
}

// --------------------------------------------------------------------------
// Engine stage: content-addressed, cached resubmission skips the analysis.
// --------------------------------------------------------------------------

TEST(CheckEngine, LintIsACachedStage) {
  flow::Engine eng(tech());
  circuits::Circuit c = circuits::pipeline(3, 4, 2);
  flow::DesyncOptions opt;
  opt.protocol = Protocol::Lockstep;
  auto r1 = eng.lint(c.netlist, c.clock, opt);
  ASSERT_NE(r1, nullptr);
  EXPECT_TRUE(r1->clean());
  flow::StageCounters c1 = eng.counters();
  EXPECT_EQ(c1.lint_runs, 1u);
  EXPECT_EQ(c1.lint_hits, 0u);
  auto r2 = eng.lint(c.netlist, c.clock, opt);
  flow::StageCounters c2 = eng.counters();
  EXPECT_EQ(c2.lint_runs, 1u);
  EXPECT_EQ(c2.lint_hits, 1u);
  EXPECT_EQ(r1.get(), r2.get());  // the cached artifact is shared
  // A different protocol is a different key — and a fresh report.
  opt.protocol = Protocol::Pulse;
  auto r3 = eng.lint(c.netlist, c.clock, opt);
  EXPECT_TRUE(r3->clean());
  EXPECT_EQ(eng.counters().lint_runs, 2u);
}

}  // namespace
}  // namespace desyn::check

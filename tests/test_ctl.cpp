#include "ctl/protocol.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "ctl/conformance.h"
#include "ctl/controller.h"
#include "pn/analysis.h"
#include "pn/mcr.h"
#include "sim/sim.h"

namespace desyn::ctl {
namespace {

using cell::Tech;

/// Linear pipeline of `n` (even) banks alternating even/odd, starting even,
/// each edge with the given matched delay. Rings close directly; lines are
/// closed through an environment pair (as the flow does), so every bank has
/// a predecessor and a successor.
ControlGraph pipeline_cg(int n, Ps delay = 0, bool ring = false) {
  DESYN_ASSERT(n % 2 == 0);
  ControlGraph cg;
  for (int i = 0; i < n; ++i) {
    cg.add_bank(cat("B", i), i % 2 == 0);
  }
  for (int i = 0; i + 1 < n; ++i) cg.add_edge(i, i + 1, delay);
  if (ring) {
    cg.add_edge(n - 1, 0, delay);
  } else {
    int snk = cg.add_bank("env_snk", true);   // last bank is odd
    int src = cg.add_bank("env_src", false);  // first bank is even
    cg.add_edge(n - 1, snk, delay);
    cg.add_edge(snk, src, 0);
    cg.add_edge(src, 0, delay);
  }
  return cg;
}

constexpr auto& kAll = kAllProtocols;

TEST(ControlGraph, ParityEnforced) {
  ControlGraph cg;
  int a = cg.add_bank("a", true);
  int b = cg.add_bank("b", true);
  (void)b;
  EXPECT_DEATH(cg.add_edge(a, b), "opposite parity");
}

TEST(ControlGraph, DuplicateEdgeMergedWithMaxDelay) {
  ControlGraph cg;
  int a = cg.add_bank("a", true);
  int b = cg.add_bank("b", false);
  int e1 = cg.add_edge(a, b, 100);
  int e2 = cg.add_edge(a, b, 300);
  EXPECT_EQ(e1, e2);
  ASSERT_EQ(cg.edges().size(), 1u);
  EXPECT_EQ(cg.edges()[0].matched_delay, 300);
}

TEST(ControlGraph, PredsSuccs) {
  ControlGraph cg = pipeline_cg(4);
  // The env pair closes the line: B0's predecessor is env_src.
  EXPECT_EQ(cg.preds(0), std::vector<int>{cg.find_bank("env_src")});
  EXPECT_EQ(cg.succs(0), std::vector<int>{1});
  EXPECT_EQ(cg.preds(2), std::vector<int>{1});
  EXPECT_EQ(cg.find_bank("B2"), 2);
  EXPECT_EQ(cg.find_bank("nope"), -1);
}

class ProtocolProperties
    : public ::testing::TestWithParam<std::tuple<Protocol, int, bool>> {};

TEST_P(ProtocolProperties, LiveSafeAndCanonicallyAdmissible) {
  auto [proto, n, ring] = GetParam();
  ControlGraph cg = pipeline_cg(n, 0, ring);
  pn::MarkedGraph mg = protocol_mg(cg, proto);
  EXPECT_TRUE(pn::is_live(mg)) << protocol_name(proto) << " n=" << n;
  EXPECT_TRUE(pn::is_safe(mg)) << protocol_name(proto) << " n=" << n;
  auto seq = canonical_schedule(mg, cg, proto, 4);
  EXPECT_EQ(pn::admits_sequence(mg, seq), -1)
      << protocol_name(proto) << " n=" << n << " ring=" << ring;
}

INSTANTIATE_TEST_SUITE_P(
    Pipelines, ProtocolProperties,
    ::testing::Combine(::testing::ValuesIn(kAll),
                       ::testing::Values(2, 4, 6, 8, 12),
                       ::testing::Values(false, true)));

TEST(Protocol, Fig4PairwiseMarkings) {
  // The even->odd fragment of Fig. 4: a+ -> b- marked, b- -> a+ unmarked.
  ControlGraph cg;
  int a = cg.add_bank("A", true);
  int b = cg.add_bank("B", false);
  cg.add_edge(a, b, 0);
  pn::MarkedGraph mg = protocol_mg(cg, Protocol::FullyDecoupled);
  // Arcs: A+->A-, A-->A+, B+->B-, B-->B+, A+->B-, B-->A+.
  ASSERT_EQ(mg.num_arcs(), 6u);
  auto bt = bank_transitions(mg, cg);
  for (uint32_t i = 0; i < mg.num_arcs(); ++i) {
    const pn::Arc& arc = mg.arc(pn::ArcId(i));
    if (arc.from == bt[0].plus && arc.to == bt[1].minus) {
      EXPECT_EQ(arc.tokens, 1);  // a+ -> b- marked
    }
    if (arc.from == bt[1].minus && arc.to == bt[0].plus) {
      EXPECT_EQ(arc.tokens, 0);  // b- -> a+ unmarked
    }
  }
  // Alternation tokens follow transparency: A (even) has a+ -> a- marked.
  for (uint32_t i = 0; i < mg.num_arcs(); ++i) {
    const pn::Arc& arc = mg.arc(pn::ArcId(i));
    if (arc.from == bt[0].plus && arc.to == bt[0].minus) {
      EXPECT_EQ(arc.tokens, 1);
    }
    if (arc.from == bt[1].minus && arc.to == bt[1].plus) {
      EXPECT_EQ(arc.tokens, 1);
    }
    if (arc.from == bt[1].plus && arc.to == bt[1].minus) {
      EXPECT_EQ(arc.tokens, 0);
    }
  }
}

TEST(Protocol, ConcurrencyOrdering) {
  // Each protocol adds arcs to the next more concurrent one (Lockstep =
  // SemiDecoupled + same-sign rendezvous, SemiDecoupled = FullyDecoupled +
  // mirror arcs), so its behavior is a restriction: it can never reach
  // more markings.
  ControlGraph cg = pipeline_cg(4, 0, true);
  auto states = [&](Protocol p) {
    return pn::explore(protocol_mg(cg, p)).states;
  };
  EXPECT_LE(states(Protocol::Lockstep), states(Protocol::SemiDecoupled));
  EXPECT_LE(states(Protocol::SemiDecoupled), states(Protocol::FullyDecoupled));
  EXPECT_GT(states(Protocol::FullyDecoupled), 1u);
}

TEST(Protocol, TimedArcsCarryMatchedDelay) {
  ControlGraph cg = pipeline_cg(2, 500);
  pn::MarkedGraph mg = protocol_mg(cg, Protocol::FullyDecoupled, 55);
  auto bt = bank_transitions(mg, cg);
  bool found = false;
  for (uint32_t i = 0; i < mg.num_arcs(); ++i) {
    const pn::Arc& arc = mg.arc(pn::ArcId(i));
    if (arc.from == bt[0].plus && arc.to == bt[1].minus) {
      EXPECT_EQ(arc.delay, 555);  // matched + controller
      found = true;
    }
    if (arc.from == bt[1].minus && arc.to == bt[0].plus) {
      EXPECT_EQ(arc.delay, 55);  // controller only
    }
  }
  EXPECT_TRUE(found);
}

TEST(Protocol, McrThroughputOrdering) {
  // With per-edge delays, the decoupled protocols are at least as fast
  // (lower cycle ratio) as lockstep.
  ControlGraph cg = pipeline_cg(6, 300, true);
  auto period = [&](Protocol p) {
    return pn::max_cycle_ratio(protocol_mg(cg, p, 55)).ratio;
  };
  double lock = period(Protocol::Lockstep);
  double semi = period(Protocol::SemiDecoupled);
  double full = period(Protocol::FullyDecoupled);
  EXPECT_GE(lock + 1e-6, semi);
  EXPECT_GE(semi + 1e-6, full);
  EXPECT_GT(full, 0.0);
}

// ---- gate level -------------------------------------------------------------

struct GateCase {
  int banks;
  bool ring;
  Ps delay;
  bool alternating;  ///< alternate tiny/large delays (the M/S shape)
};

ControlGraph gate_cg(const GateCase& gc) {
  if (!gc.alternating) return pipeline_cg(gc.banks, gc.delay, gc.ring);
  ControlGraph cg;
  for (int i = 0; i < gc.banks; ++i) cg.add_bank(cat("B", i), i % 2 == 0);
  for (int i = 0; i + (gc.ring ? 0 : 1) < gc.banks; ++i) {
    cg.add_edge(i, (i + 1) % gc.banks, i % 2 == 0 ? 10 : gc.delay);
  }
  if (!gc.ring) {
    int snk = cg.add_bank("env_snk", true);
    int src = cg.add_bank("env_src", false);
    cg.add_edge(gc.banks - 1, snk, gc.delay);
    cg.add_edge(snk, src, 0);
    cg.add_edge(src, 0, gc.delay);
  }
  return cg;
}

class ControllerGates
    : public ::testing::TestWithParam<std::tuple<Protocol, GateCase>> {};

TEST_P(ControllerGates, OscillatesAndConforms) {
  auto [proto, gc] = GetParam();
  ControlGraph cg = gate_cg(gc);
  nl::Netlist nl("ctrl");
  nl::Builder b(nl);
  ControllerNetwork net =
      synthesize_controllers(b, cg, proto, Tech::generic90());
  nl.check();

  sim::Simulator sim(nl, Tech::generic90());
  TraceRecorder rec(sim, cg, net.enables);
  sim.run_until(400000);

  // Progress: every bank's enable toggles many times (no deadlock, no
  // inertially swallowed transparency window) — including under strongly
  // unbalanced delays.
  for (nl::NetId en : net.enables) {
    EXPECT_GT(sim.toggles(en), 20u)
        << protocol_name(proto) << " " << nl.net(en).name;
  }
  // Conformance to the protocol MG.
  EXPECT_EQ(check_conformance(cg, proto, rec.trace()), -1)
      << protocol_name(proto);
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, ControllerGates,
    ::testing::Combine(
        ::testing::ValuesIn(kAll),
        ::testing::Values(GateCase{2, false, 0, false},
                          GateCase{4, false, 200, false},
                          GateCase{4, true, 0, false},
                          GateCase{6, true, 500, false},
                          GateCase{8, false, 350, false},
                          GateCase{10, true, 150, false},
                          GateCase{8, true, 900, true},     // M/S alt. ring
                          GateCase{6, false, 700, true},    // M/S line + env
                          GateCase{8, true, 1200, true}))); // unbalanced

class MeasuredPeriod : public ::testing::TestWithParam<Protocol> {};

TEST_P(MeasuredPeriod, TracksMcrOfHardwareModel) {
  Protocol proto = GetParam();
  ControlGraph cg = pipeline_cg(4, 600, true);
  nl::Netlist nl("ctrl");
  nl::Builder b(nl);
  ControllerNetwork net =
      synthesize_controllers(b, cg, proto, Tech::generic90());

  sim::Simulator sim(nl, Tech::generic90());
  std::vector<Ps> rises;
  sim.watch(net.enables[0], [&](Ps at, sim::V v) {
    if (v == sim::V::V1) rises.push_back(at);
  });
  sim.run_until(500000);
  ASSERT_GT(rises.size(), 10u) << protocol_name(proto);
  Ps measured = (rises.back() - rises[rises.size() - 9]) / 8;

  // Analytic prediction: the hardware timed model, matched delays sized
  // and quantized exactly as the synthesis does.
  auto mcr = pn::max_cycle_ratio(
      hardware_model(cg, proto, Tech::generic90()).mg);
  // The MG is a lower bound (it abstracts fanout-dependent gate delays,
  // join trees and the token-gating AND); the gate level must stay within
  // 45% of it and never beat it by more than the abstraction slack.
  EXPECT_GT(static_cast<double>(measured), 0.75 * mcr.ratio)
      << protocol_name(proto);
  EXPECT_LT(static_cast<double>(measured), 1.45 * mcr.ratio)
      << protocol_name(proto);
}

INSTANTIATE_TEST_SUITE_P(Protocols, MeasuredPeriod, ::testing::ValuesIn(kAll),
                         [](const ::testing::TestParamInfo<Protocol>& info) {
                           std::string n = protocol_name(info.param);
                           n.erase(std::remove(n.begin(), n.end(), '-'),
                                   n.end());
                           return n;
                         });

TEST(Controller, EveryProtocolSynthesizesToGates) {
  // The protocol matrix after this change: all four protocols are hardware.
  for (Protocol p : kAll) {
    ControlGraph cg = pipeline_cg(4, 300);
    nl::Netlist nl("c");
    nl::Builder b(nl);
    ControllerNetwork net = synthesize_controllers(b, cg, p, Tech::generic90());
    nl.check();
    EXPECT_EQ(net.enables.size(), cg.num_banks()) << protocol_name(p);
    EXPECT_GE(net.delay_units, cg.edges().size() > 0 ? 1u : 0u);
    size_t celems = 0;
    for (nl::CellId c : nl.cells()) {
      if (nl.cell(c).kind == cell::Kind::CElem) ++celems;
    }
    // Pulse: one C per bank; level protocols: one C per transition (two
    // per bank) plus the reset kick.
    size_t min_c = p == Protocol::Pulse ? cg.num_banks() : 2 * cg.num_banks();
    EXPECT_GE(celems, min_c) << protocol_name(p);
  }
}

TEST(Controller, LevelEnablesStartAtSynchronousReset) {
  // Even banks (masters) are transparent at CLK=0 in the synchronous
  // reference; the level controllers must reproduce that reset state.
  ControlGraph cg = pipeline_cg(4, 100);
  nl::Netlist nl("c");
  nl::Builder b(nl);
  ControllerNetwork net = synthesize_controllers(
      b, cg, Protocol::FullyDecoupled, Tech::generic90());
  sim::Simulator sim(nl, Tech::generic90());
  for (size_t i = 0; i < cg.num_banks(); ++i) {
    EXPECT_EQ(sim.value(net.enables[i]),
              cg.bank(static_cast<int>(i)).even ? cell::V::V1 : cell::V::V0)
        << cg.bank(static_cast<int>(i)).name;
  }
}

TEST(Controller, DelayLineSizedFromMatchedDelay) {
  const Tech& t = Tech::generic90();
  const Ps credit = controller_response_credit(t);
  ControlGraph cg;
  int a = cg.add_bank("a", true);
  int bb = cg.add_bank("b", false);
  const Ps d = 3 * t.delay_unit() - 1 + credit;  // ceil -> exactly 3 cells
  cg.add_edge(a, bb, d);
  cg.add_edge(bb, a, 0);  // minimum 1 cell
  nl::Netlist nl("c");
  nl::Builder b(nl);
  ControllerNetwork net = synthesize_controllers(b, cg, Protocol::Pulse, t);
  EXPECT_EQ(net.delay_units, 4u);
}

/// One odd consumer fed by 11 even producers: exceeds max arity. The
/// environment chain closes the loop (sink -> envA -> envB -> sources).
ControlGraph wide_fanin_cg() {
  ControlGraph cg;
  int sink = cg.add_bank("sink", false);
  int env_a = cg.add_bank("envA", true);
  int env_b = cg.add_bank("envB", false);
  cg.add_edge(sink, env_a, 0);
  cg.add_edge(env_a, env_b, 0);
  for (int i = 0; i < 11; ++i) {
    int src = cg.add_bank(cat("s", i), true);
    cg.add_edge(src, sink, 0);
    cg.add_edge(env_b, src, 0);
  }
  return cg;
}

class WideFanin : public ::testing::TestWithParam<Protocol> {};

TEST_P(WideFanin, BuildsCelemTreeAndConforms) {
  // The synthesis must reduce the wide join with a C-element tree (for the
  // level protocols also splitting mixed reset-value classes: envB- sees
  // 11 marked successor arcs plus its unmarked alternation arc under
  // semi-decoupled), and the network must still run and conform.
  Protocol proto = GetParam();
  ControlGraph cg = wide_fanin_cg();
  int sink = cg.find_bank("sink");
  nl::Netlist nl("c");
  nl::Builder b(nl);
  ControllerNetwork net =
      synthesize_controllers(b, cg, proto, Tech::generic90());
  nl.check();
  // The join tree must exist: more C-elements than the per-protocol base
  // count (one per bank for Pulse, two per bank for the level protocols).
  size_t celems = 0;
  for (nl::CellId c : nl.cells()) {
    if (nl.cell(c).kind == cell::Kind::CElem) ++celems;
  }
  size_t base = proto == Protocol::Pulse ? cg.num_banks() : 2 * cg.num_banks();
  EXPECT_GT(celems, base) << protocol_name(proto);
  sim::Simulator sim(nl, Tech::generic90());
  TraceRecorder rec(sim, cg, net.enables);
  sim.run_until(400000);
  EXPECT_GT(sim.toggles(net.enables[static_cast<size_t>(sink)]), 20u)
      << protocol_name(proto);
  EXPECT_EQ(check_conformance(cg, proto, rec.trace()), -1)
      << protocol_name(proto);
}

INSTANTIATE_TEST_SUITE_P(Protocols, WideFanin, ::testing::ValuesIn(kAll));

}  // namespace
}  // namespace desyn::ctl

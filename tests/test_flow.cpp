#include "core/desynchronizer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "circuits/circuits.h"
#include "core/clocktree.h"
#include "ctl/conformance.h"
#include "core/report.h"
#include "dlx/cpu_builder.h"
#include "dlx/programs.h"
#include "flow/engine.h"
#include "mutants.h"
#include "netlist/builder.h"
#include "netlist/hash.h"
#include "netlist/reader.h"
#include "netlist/writer.h"
#include "pn/analysis.h"
#include "pn/mcr.h"
#include "sim/sim.h"
#include "verif/flow_equivalence.h"

namespace desyn::flow {
namespace {

using cell::Kind;
using cell::Tech;
using cell::V;
using nl::Builder;
using nl::Netlist;
using nl::NetId;

/// 3-stage XOR/INV pipeline: din -> r0 -> logic -> r1 -> logic -> r2 -> out.
Netlist pipeline3(NetId* clock_out) {
  Netlist nl("pipe3");
  Builder b(nl);
  NetId clk = b.input("clk");
  NetId d0 = b.input("din0");
  NetId d1 = b.input("din1");
  NetId q0a = b.dff(d0, clk, V::V0, "s0.a");
  NetId q0b = b.dff(d1, clk, V::V0, "s0.b");
  NetId x1 = b.xor_(q0a, q0b);
  NetId q1 = b.dff(x1, clk, V::V0, "s1.a");
  NetId q1b = b.dff(q0b, clk, V::V1, "s1.b");
  NetId x2 = b.and_({b.inv(q1), q1b});
  NetId q2 = b.dff(x2, clk, V::V0, "s2.a");
  b.output(q2);
  *clock_out = clk;
  return nl;
}

/// 4-bit ripple counter with enable: tests feedback loops through the flow.
Netlist counter4(NetId* clock_out) {
  Netlist nl("counter4");
  Builder b(nl);
  NetId clk = b.input("clk");
  NetId en = b.input("en");
  std::vector<NetId> q(4);
  // Build incrementer: q + en.
  std::vector<NetId> qnets(4);
  for (int i = 0; i < 4; ++i) qnets[i] = nl.add_net(cat("cnt.q", i));
  NetId carry = en;
  for (int i = 0; i < 4; ++i) {
    NetId sum = b.xor_(qnets[i], carry);
    carry = b.and_({qnets[i], carry});
    nl.add_cell(Kind::Dff, cat("cnt.r", i), {sum, clk}, {qnets[i]}, V::V0);
  }
  b.output(qnets[3]);
  *clock_out = clk;
  return nl;
}

/// Small design with a RAM macro: write counter data, read it back shifted.
Netlist ram_loop(NetId* clock_out) {
  Netlist nl("ramloop");
  Builder b(nl);
  NetId clk = b.input("clk");
  NetId din = b.input("din");
  // 2-bit write/read address counters (offset by constant wiring).
  std::vector<NetId> wa(2), ra(2);
  for (int i = 0; i < 2; ++i) wa[i] = nl.add_net(cat("adr.q", i));
  NetId carry = b.hi();
  for (int i = 0; i < 2; ++i) {
    NetId sum = b.xor_(wa[i], carry);
    carry = b.and_({wa[i], carry});
    nl.add_cell(Kind::Dff, cat("adr.r", i), {sum, clk}, {wa[i]}, V::V0);
  }
  ra[0] = b.inv(wa[0], "adr.ra0");
  ra[1] = wa[1];
  std::vector<NetId> wd = {din, b.inv(din)};
  auto rd = b.ram(clk, b.hi(), wa, wd, ra, 2, "mem");
  NetId q = b.dff(b.xor_(rd[0], rd[1]), clk, V::V0, "out.r");
  b.output(q);
  *clock_out = clk;
  return nl;
}

/// Random registered DAG: `regs` flip-flops, random logic between stages.
Netlist random_circuit(uint64_t seed, int regs, NetId* clock_out) {
  Rng rng(seed);
  Netlist nl(cat("rand", seed));
  Builder b(nl);
  NetId clk = b.input("clk");
  std::vector<NetId> pool;
  for (int i = 0; i < 3; ++i) pool.push_back(b.input(cat("in", i)));
  std::vector<std::pair<NetId, NetId>> pending;  // (d, q placeholder)
  std::vector<NetId> qnets;
  for (int i = 0; i < regs; ++i) qnets.push_back(nl.add_net(cat("g", i / 4, ".q", i)));
  for (NetId q : qnets) pool.push_back(q);
  for (int i = 0; i < regs; ++i) {
    // Build a random 2-3 level cone from the pool.
    NetId a = pool[rng.below(pool.size())];
    NetId c = pool[rng.below(pool.size())];
    NetId d = pool[rng.below(pool.size())];
    NetId x;
    switch (rng.below(4)) {
      case 0: x = b.xor_(a, c); break;
      case 1: x = b.and_({a, c, d}); break;
      case 2: x = b.mux2(a, c, d); break;
      default: x = b.nor_({a, c}); break;
    }
    nl.add_cell(Kind::Dff, cat("g", i / 4, ".r", i), {x, clk}, {qnets[static_cast<size_t>(i)]},
                rng.flip() ? V::V1 : V::V0);
  }
  b.output(qnets.back());
  (void)pending;
  *clock_out = clk;
  return nl;
}

TEST(Latchify, ConvertsFfsToLatchPairs) {
  NetId clk;
  Netlist nl = pipeline3(&clk);
  size_t ffs = 0;
  for (nl::CellId c : nl.cells()) {
    if (nl.cell(c).kind == Kind::Dff) ++ffs;
  }
  LatchifyResult lr = latchify(nl, clk, Partition::prefix(nl));
  nl.check();
  size_t latches = 0, masters = 0;
  for (nl::CellId c : nl.cells()) {
    if (nl.cell(c).kind == Kind::Dff) FAIL() << "DFF survived latchify";
    if (cell::is_latch(nl.cell(c).kind)) ++latches;
    if (nl.cell(c).kind == Kind::LatchN) ++masters;
  }
  EXPECT_EQ(latches, 2 * ffs);
  EXPECT_EQ(masters, ffs);
  // Prefix grouping: s0, s1, s2 -> 3 bank pairs.
  EXPECT_EQ(lr.banks.size(), 6u);
  EXPECT_TRUE(lr.banks[0].even);
  EXPECT_FALSE(lr.banks[1].even);
}

TEST(Latchify, LatchBasedSyncMatchesFfSync) {
  // The latchified netlist clocked by the same clock is cycle-equivalent to
  // the FF netlist (Fig. 1a vs 1b).
  NetId clk;
  Netlist ff = pipeline3(&clk);
  Netlist latched = ff;
  latchify(latched, clk, Partition::prefix(latched));

  const Tech& t = Tech::generic90();
  sim::Simulator s1(ff, t);
  sim::Simulator s2(latched, t);
  NetId out1 = ff.outputs()[0];
  NetId out2 = latched.outputs()[0];
  Rng rng(42);
  Ps period = 2000;
  for (sim::Simulator* s : {&s1, &s2}) {
    s->set_input(s->netlist().find_net("clk"), V::V0, 0);
  }
  std::vector<V> v1, v2;
  for (int k = 0; k < 30; ++k) {
    V a = rng.flip() ? V::V1 : V::V0;
    V bb = rng.flip() ? V::V1 : V::V0;
    for (sim::Simulator* s : {&s1, &s2}) {
      const Netlist& n = s->netlist();
      s->set_input(n.find_net("din0"), a, s->now());
      s->set_input(n.find_net("din1"), bb, s->now());
      s->run_until((k + 1) * period - 10);
      s->set_input(n.find_net("clk"), V::V1, (k + 1) * period);
      s->set_input(n.find_net("clk"), V::V0, (k + 1) * period + period / 2);
      s->run_until((k + 1) * period + period / 2 - 10);
    }
    v1.push_back(s1.value(out1));
    v2.push_back(s2.value(out2));
  }
  EXPECT_EQ(v1, v2);
}

TEST(ClockTree, FanoutBoundedAndRewired) {
  Netlist nl("t");
  Builder b(nl);
  NetId clk = b.input("clk");
  NetId d = b.input("d");
  std::vector<NetId> qs;
  for (int i = 0; i < 37; ++i) qs.push_back(b.dff(i ? qs.back() : d, clk, V::V0));
  b.output(qs.back());
  const Tech& t = Tech::generic90();
  ClockTree tree = build_clock_tree(nl, clk, t, 4);
  nl.check();
  EXPECT_GT(tree.buffers.size(), 9u);  // ceil(37/4)=10 leaves at least
  EXPECT_GT(tree.levels, 1);
  EXPECT_GT(tree.insertion_delay, 0);
  // Every net in the design now drives at most 4 clock-ish pins; in
  // particular the clock input itself.
  EXPECT_LE(nl.net(clk).fanout.size(), 4u);
  for (nl::CellId c : tree.buffers) {
    EXPECT_LE(nl.net(nl.cell(c).outs[0]).fanout.size(), 4u);
  }
}

TEST(Desynchronizer, BuildsWellFormedNetlist) {
  NetId clk;
  Netlist ff = pipeline3(&clk);
  const Tech& t = Tech::generic90();
  DesyncResult dr = desynchronize(ff, clk, t);
  dr.netlist.check();
  // No storage element is still clocked by the original clock.
  EXPECT_TRUE(dr.netlist.net(clk).fanout.empty());
  // Controllers exist: one C-element per bank at least.
  size_t celems = 0, delays = 0;
  for (nl::CellId c : dr.netlist.cells()) {
    if (dr.netlist.cell(c).kind == Kind::CElem) ++celems;
    if (dr.netlist.cell(c).kind == Kind::Delay) ++delays;
  }
  EXPECT_GE(celems, dr.cg.num_banks());
  EXPECT_GE(delays, dr.cg.edges().size());
  // The control graph is live and safe under the Pulse protocol.
  pn::MarkedGraph mg = ctl::protocol_mg(dr.cg, ctl::Protocol::Pulse);
  EXPECT_TRUE(pn::is_live(mg));
  EXPECT_TRUE(pn::is_safe(mg));
}

TEST(Desynchronizer, MatchedDelaysCoverCombinationalPaths) {
  NetId clk;
  Netlist ff = pipeline3(&clk);
  const Tech& t = Tech::generic90();
  DesyncOptions dopt;
  dopt.margin = 1.25;
  DesyncResult dr = desynchronize(ff, clk, t, dopt);
  // Every slave->master edge (real combinational logic) has a delay at
  // least the latch delay + setup.
  for (const auto& e : dr.cg.edges()) {
    if (e.from == dr.env_src || e.from == dr.env_snk || e.to == dr.env_src ||
        e.to == dr.env_snk) {
      continue;
    }
    EXPECT_GE(e.matched_delay, t.spec(Kind::Latch).delay + t.latch_setup())
        << dr.cg.bank(e.from).name << " -> " << dr.cg.bank(e.to).name;
  }
}

/// Leaf round nets feeding `net` through the Pulse controller's join
/// structure (C-element trees, delay lines, ack buffers, inverters), in
/// fan-in order.
void round_leaves(const Netlist& nl, const std::vector<char>& is_round,
                  NetId net, std::vector<NetId>& out) {
  if (is_round[net.value()]) {
    out.push_back(net);
    return;
  }
  const nl::CellData& cd = nl.cell(nl.net(net).driver);
  ASSERT_TRUE(cd.kind == Kind::CElem || cd.kind == Kind::Delay ||
              cd.kind == Kind::Buf || cd.kind == Kind::Inv)
      << nl.net(net).name;
  for (NetId in : cd.ins) round_leaves(nl, is_round, in, out);
}

/// The per-flip-flop graphs are where most banks have a neighbour and a
/// few park on the environment. The parking edges are the tail of the edge
/// list (zero-delay, exactly one env endpoint; every STA-timed edge has a
/// positive delay); replaying the parking rule on the edges before them,
/// with ControlGraph::preds/succs re-read after every addition, must give
/// back exactly the extracted graph. Pulse synthesis must join each bank's
/// predecessors, then its successors, in cg.edges() order.
TEST(Desynchronizer, PerFlipFlopParkingAndPulseFaninFollowEdgeOrder) {
  const Tech& tech = Tech::generic90();
  std::vector<circuits::Suite> designs;
  {
    Netlist nl("dlx");
    dlx::build_dlx(nl, dlx::DlxConfig{}, dlx::fibonacci_program(8));
    const NetId clk = nl.find_net("clk");
    designs.push_back({"dlx", {std::move(nl), clk}});
  }
  designs.push_back({"rpipe128x4", circuits::random_pipeline(13, 128, 4)});
  for (const circuits::Suite& d : designs) {
    Netlist latched = d.circuit.netlist;
    const LatchifyResult lr = latchify(
        latched, d.circuit.clock, Partition::per_flip_flop(d.circuit.netlist));
    for (ctl::Protocol proto : ctl::kAllProtocols) {
      const std::string what = cat(d.name, " ", ctl::protocol_name(proto));
      const AdjacencyResult r = extract_control_graph(
          latched, lr, d.circuit.clock, tech, 1.1, proto);
      const ctl::ControlGraph& cg = r.cg;
      const auto& edges = cg.edges();
      const int nbanks = static_cast<int>(lr.banks.size());
      std::vector<char> has_pred(cg.num_banks(), 0),
          has_succ(cg.num_banks(), 0);
      for (const auto& e : edges) {
        has_pred[static_cast<size_t>(e.to)] = 1;
        has_succ[static_cast<size_t>(e.from)] = 1;
      }
      for (int b = 0; b < nbanks; ++b) {
        EXPECT_TRUE(has_pred[static_cast<size_t>(b)] &&
                    has_succ[static_cast<size_t>(b)])
            << what << " bank " << cg.bank(b).name;
      }

      auto is_env = [&](int b) { return b == r.env_snk || b == r.env_src; };
      size_t kept = edges.size();
      while (kept > 0 && edges[kept - 1].matched_delay == 0 &&
             is_env(edges[kept - 1].from) != is_env(edges[kept - 1].to)) {
        --kept;
      }
      ctl::ControlGraph oracle;
      for (size_t b = 0; b < cg.num_banks(); ++b) {
        oracle.add_bank(cg.bank(static_cast<int>(b)).name,
                        cg.bank(static_cast<int>(b)).even);
      }
      for (size_t k = 0; k < kept; ++k) {
        oracle.add_edge(edges[k].from, edges[k].to, edges[k].matched_delay);
      }
      for (int b = 0; b < nbanks; ++b) {
        const bool even = cg.bank(b).even;
        if (oracle.preds(b).empty()) {
          oracle.add_edge(even ? r.env_src : r.env_snk, b, 0);
        }
        if (oracle.succs(b).empty()) {
          oracle.add_edge(b, even ? r.env_src : r.env_snk, 0);
        }
      }
      ASSERT_EQ(oracle.edges().size(), edges.size()) << what;
      for (size_t k = 0; k < edges.size(); ++k) {
        EXPECT_EQ(std::tie(oracle.edges()[k].from, oracle.edges()[k].to,
                           oracle.edges()[k].matched_delay),
                  std::tie(edges[k].from, edges[k].to, edges[k].matched_delay))
            << what << " edge " << k;
      }
      if (proto != ctl::Protocol::Pulse) continue;

      Netlist host("host");
      Builder b(host);
      const ctl::ControllerNetwork net =
          ctl::synthesize_controllers(b, cg, proto, tech);
      std::vector<char> is_round(host.num_nets(), 0);
      for (NetId n : net.rounds) is_round[n.value()] = 1;
      for (size_t i = 0; i < cg.num_banks(); ++i) {
        const int bank = static_cast<int>(i);
        std::vector<NetId> want;
        for (const auto& e : edges) {
          if (e.to == bank) {
            want.push_back(net.rounds[static_cast<size_t>(e.from)]);
          }
        }
        for (const auto& e : edges) {
          if (e.from == bank) {
            want.push_back(net.rounds[static_cast<size_t>(e.to)]);
          }
        }
        if (want.size() == 1) want.push_back(want[0]);  // C(a,a) follower
        const nl::CellData& round = host.cell(host.net(net.rounds[i]).driver);
        ASSERT_EQ(round.kind, Kind::CElem) << what;
        std::vector<NetId> got;
        for (NetId in : round.ins) round_leaves(host, is_round, in, got);
        EXPECT_EQ(got, want) << what << " bank " << cg.bank(bank).name;
      }
    }
  }
}

struct EqCase {
  const char* name;
  Netlist (*build)(NetId*);
  int rounds;
};

class FlowEquivalence : public ::testing::TestWithParam<EqCase> {};

TEST_P(FlowEquivalence, SyncAndDesyncCaptureSameStreams) {
  EqCase c = GetParam();
  NetId clk;
  Netlist ff = c.build(&clk);
  verif::FlowEqOptions opt;
  opt.rounds = c.rounds;
  auto res = verif::check_flow_equivalence(
      ff, clk, verif::random_stimulus(7), Tech::generic90(), opt);
  EXPECT_TRUE(res.equivalent) << res.mismatch;
  EXPECT_EQ(res.desync_setup_violations, 0u);
  EXPECT_GT(res.captures_compared, 0u);
  EXPECT_GT(res.desync_period, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Circuits, FlowEquivalence,
    ::testing::Values(EqCase{"pipe3", pipeline3, 40},
                      EqCase{"counter4", counter4, 40},
                      EqCase{"ramloop", ram_loop, 30}),
    [](const ::testing::TestParamInfo<EqCase>& info) {
      return info.param.name;
    });

constexpr auto& kProtocols = ctl::kAllProtocols;

std::string protocol_suffix(ctl::Protocol p) {
  std::string n = ctl::protocol_name(p);
  n.erase(std::remove(n.begin(), n.end(), '-'), n.end());
  return n;
}

class ProtocolFlowEquivalence
    : public ::testing::TestWithParam<std::tuple<ctl::Protocol, EqCase>> {};

TEST_P(ProtocolFlowEquivalence, EveryProtocolPreservesFlows) {
  auto [proto, c] = GetParam();
  NetId clk;
  Netlist ff = c.build(&clk);
  verif::FlowEqOptions opt;
  opt.rounds = c.rounds;
  opt.desync.protocol = proto;
  auto res = verif::check_flow_equivalence(
      ff, clk, verif::random_stimulus(7), Tech::generic90(), opt);
  EXPECT_TRUE(res.equivalent)
      << ctl::protocol_name(proto) << ": " << res.mismatch;
  EXPECT_EQ(res.desync_setup_violations, 0u) << ctl::protocol_name(proto);
  EXPECT_GT(res.captures_compared, 0u);
  EXPECT_GT(res.desync_period, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    ProtocolsByCircuits, ProtocolFlowEquivalence,
    ::testing::Combine(::testing::ValuesIn(kProtocols),
                       ::testing::Values(EqCase{"pipe3", pipeline3, 30},
                                         EqCase{"counter4", counter4, 30},
                                         EqCase{"ramloop", ram_loop, 25})),
    [](const ::testing::TestParamInfo<std::tuple<ctl::Protocol, EqCase>>&
           info) {
      return protocol_suffix(std::get<0>(info.param)) + "_" +
             std::get<1>(info.param).name;
    });

class FlowConformance : public ::testing::TestWithParam<ctl::Protocol> {};

TEST_P(FlowConformance, SynthesizedControllersConformInsideFullFlow) {
  // The densest control graph of the local circuit zoo (RAM read/write
  // ordering edges included): the controller network the flow instantiates
  // must trace a firing sequence of its own protocol MG.
  ctl::Protocol proto = GetParam();
  NetId clk;
  Netlist ff = ram_loop(&clk);
  DesyncOptions opt;
  opt.protocol = proto;
  DesyncResult dr = desynchronize(ff, clk, Tech::generic90(), opt);
  sim::Simulator sim(dr.netlist, Tech::generic90());
  ctl::TraceRecorder rec(sim, dr.cg, dr.ctrl.enables);
  sim.run_until(200000);
  for (nl::NetId en : dr.ctrl.enables) {
    EXPECT_GT(sim.toggles(en), 10u)
        << ctl::protocol_name(proto) << " " << dr.netlist.net(en).name;
  }
  EXPECT_EQ(ctl::check_conformance(dr.cg, proto, rec.trace()), -1)
      << ctl::protocol_name(proto);
}

INSTANTIATE_TEST_SUITE_P(Protocols, FlowConformance,
                         ::testing::ValuesIn(kProtocols),
                         [](const ::testing::TestParamInfo<ctl::Protocol>& i) {
                           return protocol_suffix(i.param);
                         });

TEST(Desynchronizer, MultiClockDesignRejectedWithTypedError) {
  Netlist nl("mc");
  Builder b(nl);
  NetId c1 = b.input("clk_a");
  NetId c2 = b.input("clk_b");
  NetId c3 = b.input("clk_c");
  NetId d = b.input("d");
  NetId q1 = b.dff(d, c1, V::V0, "r1");
  NetId q2 = b.dff(q1, c2, V::V0, "r2");
  NetId q3 = b.dff(q2, c3, V::V0, "r3");
  b.output(q3);
  try {
    desynchronize(nl, c1, Tech::generic90());
    FAIL() << "expected MultiClockError";
  } catch (const MultiClockError& e) {
    EXPECT_EQ(e.clocks(), (std::vector<std::string>{"clk_b", "clk_c"}));
    EXPECT_NE(std::string(e.what()).find("clk_b"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("clk_c"), std::string::npos);
  }
  // Still an Error subtype: existing catch sites keep working.
  EXPECT_THROW(desynchronize(nl, c1, Tech::generic90()), Error);
}

class RandomFlowEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomFlowEquivalence, RandomCircuitsStayFlowEquivalent) {
  NetId clk;
  Netlist ff = random_circuit(GetParam(), 12, &clk);
  verif::FlowEqOptions opt;
  opt.rounds = 25;
  auto res = verif::check_flow_equivalence(
      ff, clk, verif::random_stimulus(GetParam() * 13 + 5), Tech::generic90(),
      opt);
  EXPECT_TRUE(res.equivalent) << res.mismatch;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomFlowEquivalence,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(TimedModel, McrPredictsMeasuredPeriod) {
  NetId clk;
  Netlist ff = pipeline3(&clk);
  const Tech& t = Tech::generic90();
  DesyncResult dr = desynchronize(ff, clk, t);
  auto mcr = pn::max_cycle_ratio(timed_control_model(dr, t));
  EXPECT_GT(mcr.ratio, 0.0);

  verif::FlowEqOptions opt;
  opt.rounds = 30;
  auto res = verif::check_flow_equivalence(ff, clk, verif::random_stimulus(3),
                                           t, opt);
  ASSERT_TRUE(res.equivalent) << res.mismatch;
  // Analytic vs measured within 30%.
  EXPECT_NEAR(res.desync_period, mcr.ratio, 0.30 * mcr.ratio);
}

TEST(Report, ComparisonTableFormats) {
  ImplReport s{"Sync", 4400, 70.9, 20.0, 372656, 50000};
  ImplReport d{"Desync", 4450, 71.2, 4.0, 378058, 52000};
  std::string table = format_comparison(s, d);
  EXPECT_NE(table.find("Cycle Time"), std::string::npos);
  EXPECT_NE(table.find("4.40ns"), std::string::npos);
  EXPECT_NE(table.find("Area"), std::string::npos);
}

}  // namespace
}  // namespace desyn::flow

namespace desyn::flow {
namespace {

/// Random registered circuit with an embedded RAM macro.
Netlist random_ram_circuit(uint64_t seed, NetId* clock_out) {
  Rng rng(seed);
  Netlist nl(cat("randram", seed));
  Builder b(nl);
  NetId clk = b.input("clk");
  NetId din = b.input("din");
  // Two-bit address counter.
  std::vector<NetId> addr(2);
  for (int i = 0; i < 2; ++i) addr[i] = nl.add_net(cat("ctr.q", i));
  NetId carry = b.hi();
  for (int i = 0; i < 2; ++i) {
    NetId sum = b.xor_(addr[i], carry);
    carry = b.and_({addr[i], carry});
    nl.add_cell(Kind::Dff, cat("ctr.r", i), {sum, clk}, {addr[i]}, V::V0);
  }
  // Write a mix of din and counter bits; read back at a rotated address.
  std::vector<NetId> wd = {b.xor_(din, addr[0]), b.mux2(din, addr[1], addr[0]),
                           addr[rng.below(2)]};
  std::vector<NetId> ra = {addr[1], addr[0]};
  NetId we = rng.flip() ? b.hi() : b.inv(addr[0], "weql");
  auto rd = b.ram(clk, we, addr, wd, ra, 3, "m");
  NetId q0 = b.dff(b.xor_(rd[0], rd[2]), clk, V::V0, "out.a");
  NetId q1 = b.dff(b.and_({rd[1], q0}), clk, V::V1, "out.b");
  b.output(q1);
  *clock_out = clk;
  return nl;
}

class RamFlowEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RamFlowEquivalence, RamCircuitsStayFlowEquivalent) {
  NetId clk;
  Netlist ff = random_ram_circuit(GetParam(), &clk);
  verif::FlowEqOptions opt;
  opt.rounds = 30;
  auto res = verif::check_flow_equivalence(
      ff, clk, verif::random_stimulus(GetParam() + 99), Tech::generic90(), opt);
  EXPECT_TRUE(res.equivalent) << res.mismatch;
  EXPECT_EQ(res.desync_setup_violations, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RamFlowEquivalence,
                         ::testing::Range<uint64_t>(20, 28));

class StrategyFlowEquivalence
    : public ::testing::TestWithParam<const char*> {};

TEST_P(StrategyFlowEquivalence, AllBankGranularitiesWork) {
  NetId clk;
  Netlist ff = pipeline3(&clk);
  verif::FlowEqOptions opt;
  opt.rounds = 30;
  opt.desync.strategy = PartitionSpec::parse(GetParam());
  auto res = verif::check_flow_equivalence(ff, clk, verif::random_stimulus(4),
                                           Tech::generic90(), opt);
  EXPECT_TRUE(res.equivalent) << res.mismatch;
}

INSTANTIATE_TEST_SUITE_P(Strategies, StrategyFlowEquivalence,
                         ::testing::Values("prefix", "prefix:2", "perff",
                                           "single", "auto:1.05"),
                         [](const ::testing::TestParamInfo<const char*>& i) {
                           std::string n = i.param;
                           for (char& c : n) {
                             if (c == ':' || c == '.') c = '_';
                           }
                           return n;
                         });

TEST(Desynchronizer, PerFlipFlopSpecDrivesDesyncOptions) {
  // The BankStrategy enum shim is gone; the parsed spec is the one way to
  // pick a classic strategy through DesyncOptions.
  NetId clk;
  Netlist ff = pipeline3(&clk);
  DesyncOptions opt;
  opt.strategy = PartitionSpec::parse("perff");
  DesyncResult dr = desynchronize(ff, clk, Tech::generic90(), opt);
  EXPECT_EQ(dr.partition.num_groups(), 5u);  // one group per flip-flop
  EXPECT_EQ(dr.cg.num_banks(), 12u);         // 5 pairs + env pair
}

TEST(Desynchronizer, TightMarginStillEquivalent) {
  NetId clk;
  Netlist ff = pipeline3(&clk);
  verif::FlowEqOptions opt;
  opt.rounds = 30;
  opt.desync.margin = 1.0;  // exact delay models: quantization is the guard
  auto res = verif::check_flow_equivalence(ff, clk, verif::random_stimulus(8),
                                           Tech::generic90(), opt);
  EXPECT_TRUE(res.equivalent) << res.mismatch;
  EXPECT_EQ(res.desync_setup_violations, 0u);
}

TEST(Desynchronizer, VerilogRoundTripOfDesyncNetlist) {
  // The flow's output survives a Verilog write/read cycle bit-for-bit.
  NetId clk;
  Netlist ff = counter4(&clk);
  DesyncResult dr = desynchronize(ff, clk, cell::Tech::generic90());
  std::string v1 = nl::to_verilog(dr.netlist);
  Netlist back = nl::read_verilog(v1);
  back.check();
  EXPECT_EQ(nl::to_verilog(back), v1);
  EXPECT_EQ(back.num_live_cells(), dr.netlist.num_live_cells());
  // And it still runs: the round tokens oscillate.
  sim::Simulator sim(back, cell::Tech::generic90());
  nl::NetId r = back.find_net("ctl.cnt.m.r");
  ASSERT_TRUE(r.valid());
  sim.run_until(100000);
  EXPECT_GT(sim.toggles(r), 10u);
}

TEST(ClockTree, InsertionDelayMatchesSimulatedArrival) {
  Netlist nl("t");
  Builder b(nl);
  NetId clk = b.input("clk");
  NetId d = b.input("d");
  std::vector<NetId> qs;
  for (int i = 0; i < 70; ++i) qs.push_back(b.dff(i ? qs.back() : d, clk, V::V0));
  b.output(qs.back());
  const cell::Tech& t = cell::Tech::generic90();
  ClockTree tree = build_clock_tree(nl, clk, t);
  ASSERT_GT(tree.levels, 0);

  sim::Simulator sim(nl, t);
  // Measure the arrival of the rising edge at a leaf (any DFF CK net).
  nl::CellId ff = nl.net(qs[0]).driver;
  nl::NetId leaf = nl.cell(ff).ins[1];
  Ps seen = -1;
  sim.watch(leaf, [&](Ps at, sim::V v) {
    if (v == sim::V::V1 && seen < 0) seen = at;
  });
  sim.set_input(clk, sim::V::V0, 0);
  sim.set_input(clk, sim::V::V1, 1000);
  sim.run_until(3000);
  ASSERT_GE(seen, 0);
  EXPECT_EQ(seen - 1000, tree.insertion_delay);
}

}  // namespace
}  // namespace desyn::flow

// ---------------------------------------------------------------------------
// Flow-equivalence horizon: the desync simulation stops once the compared
// captures and the steady-state period window are in. These tests pin that
// the short horizon keeps every verdict on the suite, that the measured
// period is a property of the circuit (not of `rounds`), and that the
// watchdog fires.
// ---------------------------------------------------------------------------

namespace desyn::flow {
namespace {

using cell::Kind;
using cell::Tech;
using nl::CellId;
using nl::NetId;

/// What a flow-equivalence run decides, as the agreement tests compare it.
struct Verdict {
  bool equivalent;
  bool mismatch;
  bool violations;
  bool flagged() const { return !equivalent || violations; }
};

Verdict verdict_of(const verif::FlowEqResult& r) {
  return {r.equivalent, !r.mismatch.empty(), r.desync_setup_violations > 0};
}

/// `dr` checked at the default `rounds` (short) and at 600 rounds (long):
/// 15x the compared captures on the same code path.
struct Verdicts {
  Verdict shrt, lng;
};

Verdicts verdicts(const circuits::Suite& s, const DesyncResult& dr) {
  const Tech& tech = Tech::generic90();
  const verif::Stimulus stim = verif::random_stimulus(17);
  verif::FlowEqOptions opt;
  Verdicts v;
  v.shrt = verdict_of(verif::check_flow_equivalence(
      s.circuit.netlist, s.circuit.clock, stim, tech, dr, opt));
  opt.rounds = 600;
  v.lng = verdict_of(verif::check_flow_equivalence(
      s.circuit.netlist, s.circuit.clock, stim, tech, dr, opt));
  return v;
}

DesyncResult suite_flow(const circuits::Suite& s, ctl::Protocol p) {
  DesyncOptions dopt;
  dopt.protocol = p;
  dopt.margin = 1.0;
  return desynchronize(s.circuit.netlist, s.circuit.clock, Tech::generic90(),
                       dopt);
}

// One instance per protocol keeps each well inside the per-test timeout
// of the sanitizer builds.
class FlowEq : public ::testing::TestWithParam<ctl::Protocol> {};

TEST_P(FlowEq, ShortHorizonKeepsVerdicts) {
  // Every suite cell passes, and the long run finds no setup violation
  // past the short horizon either. The long run's equivalence is a deeper
  // proof (600 compared captures, not 40), so it is not an oracle for the
  // short one: on counters4x8 the synchronous reference itself breaks
  // setup from round 40 on and its stream goes wrong at round 373.
  for (const circuits::Suite& s : circuits::scaling_suite()) {
    const Verdicts v = verdicts(s, suite_flow(s, GetParam()));
    EXPECT_FALSE(v.shrt.flagged()) << s.name;
    EXPECT_EQ(v.shrt.violations, v.lng.violations) << s.name;
  }
}

TEST_P(FlowEq, CachedSetupMatchesFreshProof) {
  // The engine overload proves from the cached set-up; the prebuilt
  // overload builds the same set-up fresh. They must agree field for
  // field, and a repeat proof must build nothing: no set-up artifact, no
  // flow stage and no netlist hash.
  const Tech& tech = Tech::generic90();
  const verif::Stimulus stim = verif::random_stimulus(23);
  std::vector<circuits::Suite> designs = circuits::scaling_suite();
  circuits::Circuit dlx_cpu{Netlist("dlx"), {}};
  dlx_cpu.clock = dlx::build_dlx(dlx_cpu.netlist, dlx::DlxConfig{},
                                 dlx::fibonacci_program(6))
                      .clk;
  designs.push_back({"dlx", std::move(dlx_cpu)});
  Engine& engine = Engine::process(tech);
  for (const circuits::Suite& s : designs) {
    for (const char* strategy : {"prefix", "perff"}) {
      SCOPED_TRACE(cat(s.name, " / ", strategy));
      const Netlist& ff = s.circuit.netlist;
      verif::FlowEqOptions opt;
      opt.desync.protocol = GetParam();
      opt.desync.strategy = PartitionSpec::parse(strategy);
      const verif::FlowEqResult fresh = verif::check_flow_equivalence(
          ff, s.circuit.clock, stim, tech,
          desynchronize(ff, s.circuit.clock, tech, opt.desync), opt);
      EXPECT_TRUE(fresh.equivalent) << fresh.mismatch;
      EXPECT_GT(fresh.desync_power_mw, 0.0);

      const StageCounters c0 = engine.counters();
      const verif::FlowEqResult first =
          verif::check_flow_equivalence(ff, s.circuit.clock, stim, tech, opt);
      const StageCounters c1 = engine.counters();
      const uint64_t hashes = nl::hash_computations();
      const verif::FlowEqResult again =
          verif::check_flow_equivalence(ff, s.circuit.clock, stim, tech, opt);
      const StageCounters c2 = engine.counters();
      EXPECT_TRUE(first == fresh) << first.mismatch;
      EXPECT_TRUE(again == fresh) << again.mismatch;

      // The first engine proof of this coordinate builds its set-up; the
      // design's sync reference exists only after its first coordinate.
      EXPECT_EQ(c1.proof_runs, c0.proof_runs + 1);
      if (std::string(strategy) == "perff") {
        EXPECT_EQ(c1.sync_ref_runs, c0.sync_ref_runs);
        EXPECT_EQ(c1.sync_ref_hits, c0.sync_ref_hits + 1);
      }
      // The repeat is one set-up hit and nothing else.
      EXPECT_EQ(c2.proof_hits, c1.proof_hits + 1);
      EXPECT_EQ(c2.proof_runs, c1.proof_runs);
      EXPECT_EQ(c2.sync_ref_runs, c1.sync_ref_runs);
      EXPECT_EQ(c2.sync_ref_hits, c1.sync_ref_hits);
      EXPECT_EQ(c2.runs, c1.runs);
      EXPECT_EQ(c2.partition_hits + c2.latchify_hits + c2.adjacency_hits +
                    c2.synth_hits,
                c1.partition_hits + c1.latchify_hits + c1.adjacency_hits +
                    c1.synth_hits);
      EXPECT_EQ(nl::hash_computations(), hashes);
    }
  }
}

TEST(FlowEqCache, OtherProtocolReusesSyncReference) {
  // A design's sync reference (clock tree, STA period, compiled image)
  // does not depend on the protocol: a second protocol builds only its
  // own set-up.
  const Tech& tech = Tech::generic90();
  const circuits::Suite s = circuits::scaling_suite().front();
  Engine& engine = Engine::process(tech);
  verif::FlowEqOptions opt;
  opt.desync.protocol = ctl::Protocol::SemiDecoupled;
  const verif::Stimulus stim = verif::random_stimulus(29);
  EXPECT_TRUE(verif::check_flow_equivalence(s.circuit.netlist, s.circuit.clock,
                                            stim, tech, opt)
                  .equivalent);
  const StageCounters c0 = engine.counters();
  opt.desync.protocol = ctl::Protocol::Pulse;
  EXPECT_TRUE(verif::check_flow_equivalence(s.circuit.netlist, s.circuit.clock,
                                            stim, tech, opt)
                  .equivalent);
  const StageCounters c1 = engine.counters();
  EXPECT_EQ(c1.sync_ref_runs, c0.sync_ref_runs);
  EXPECT_EQ(c1.sync_ref_hits, c0.sync_ref_hits + 1);
  EXPECT_EQ(c1.proof_runs, c0.proof_runs + 1);
}

INSTANTIATE_TEST_SUITE_P(Protocols, FlowEq, ::testing::ValuesIn(kProtocols),
                         [](const ::testing::TestParamInfo<ctl::Protocol>& i) {
                           return protocol_suffix(i.param);
                         });

TEST(FlowEq, ShortHorizonMutantVerdicts) {
  // Short-delay-line mutants of the smaller suite cells: one DELAY cell
  // shaved off a line, and a whole line bypassed. The worst-case setup
  // check makes violation presence independent of how long the stimulus
  // takes to reach a broken path, so short and long runs agree on it.
  // They agree on the verdict wherever the long run is a valid oracle,
  // i.e. the unmutated cell passes it (counters4x8's synchronous
  // reference goes wrong at round 373, see ShortHorizonKeepsVerdicts).
  int mutants = 0, flagged = 0;
  for (const circuits::Suite& s : circuits::scaling_suite()) {
    for (ctl::Protocol p : kProtocols) {
      const DesyncResult dr = suite_flow(s, p);
      if (dr.netlist.num_live_cells() > 1500) continue;
      const bool oracle = !verdicts(s, dr).lng.flagged();
      std::vector<std::pair<std::string, DesyncResult>> muts;
      CellId second, first;
      if (mutants::find_delay_pair(dr.netlist, &second, &first)) {
        DesyncResult& shaved = muts.emplace_back("shaved", dr).second;
        shaved.netlist.rewire_input(second, 0,
                                    shaved.netlist.cell(first).ins[0]);
      }
      DesyncResult bypassed = dr;
      if (mutants::bypass_longest_line(bypassed.netlist)) {
        muts.emplace_back("bypassed", std::move(bypassed));
      }
      for (const auto& [kind, mut] : muts) {
        const std::string label =
            cat(s.name, " / ", ctl::protocol_name(p), " ", kind);
        const Verdicts m = verdicts(s, mut);
        EXPECT_EQ(m.shrt.violations, m.lng.violations) << label;
        if (oracle) {
          EXPECT_EQ(m.shrt.mismatch, m.lng.mismatch) << label;
          EXPECT_EQ(m.shrt.flagged(), m.lng.flagged()) << label;
        }
        ++mutants;
        flagged += m.shrt.flagged();
      }
    }
  }
  EXPECT_GT(mutants, 0);
  // The test has teeth: the short horizon catches at least one mutant.
  EXPECT_GT(flagged, 0);
}

TEST(FlowEq, LateSensitizedShortLineIsFlagged) {
  // counters4x8, fully-decoupled, margin 1.0, prefix banks, longest line
  // bypassed: the broken carry path first toggles after round 100 under
  // random_stimulus(17), so the simulated setup check alone passes the
  // default 40-round proof. The worst-case check flags it.
  for (const circuits::Suite& s : circuits::scaling_suite()) {
    if (s.name != "counters4x8") continue;
    DesyncResult dr = suite_flow(s, ctl::Protocol::FullyDecoupled);
    ASSERT_TRUE(mutants::bypass_longest_line(dr.netlist));
    const verif::FlowEqResult r = verif::check_flow_equivalence(
        s.circuit.netlist, s.circuit.clock, verif::random_stimulus(17),
        Tech::generic90(), dr);
    EXPECT_TRUE(r.equivalent) << r.mismatch;
    EXPECT_GT(r.desync_setup_violations, 0u);
    return;
  }
  FAIL() << "counters4x8 not in the scaling suite";
}

TEST(FlowEq, PeriodIndependentOfRounds) {
  const Tech& tech = Tech::generic90();
  for (const circuits::Suite& s : circuits::scaling_suite()) {
    if (s.name != "pipe4x8" && s.name != "crc32" && s.name != "mesh6x6x2") {
      continue;
    }
    for (ctl::Protocol p : ctl::kAllProtocols) {
      SCOPED_TRACE(cat(s.name, " / ", ctl::protocol_name(p)));
      verif::FlowEqOptions opt;
      opt.desync.protocol = p;
      std::vector<double> periods;
      for (int rounds : {8, 12, 40}) {
        opt.rounds = rounds;
        const verif::FlowEqResult r = verif::check_flow_equivalence(
            s.circuit.netlist, s.circuit.clock, verif::random_stimulus(17),
            tech, opt);
        EXPECT_TRUE(r.equivalent) << r.mismatch;
        periods.push_back(r.desync_period);
      }
      EXPECT_GT(periods[0], 0.0);
      EXPECT_EQ(periods[0], periods[1]);
      EXPECT_EQ(periods[0], periods[2]);
    }
  }
}

TEST(FlowEq, WatchdogReportsStall) {
  const circuits::Suite s = circuits::scaling_suite().front();
  verif::FlowEqOptions opt;
  opt.round_timeout = 10;  // far below one period: every step looks stalled
  const verif::FlowEqResult r = verif::check_flow_equivalence(
      s.circuit.netlist, s.circuit.clock, verif::random_stimulus(17),
      Tech::generic90(), opt);
  EXPECT_FALSE(r.equivalent);
  EXPECT_NE(r.mismatch.find("made no progress"), std::string::npos)
      << r.mismatch;
  // It gave up before the steady-state period window even filled.
  EXPECT_EQ(r.desync_period, 0.0);
  EXPECT_EQ(r.captures_compared, 0u);
}

TEST(FlowEq, WatchdogReportsDeadLeafEnable) {
  // One master latch's EN tied low: it never captures, while every other
  // bank keeps running. Progress is measured only on captures the stop
  // condition still needs, so the check reports the stall instead of
  // simulating forever.
  const circuits::Suite s = circuits::scaling_suite().front();
  DesyncResult dr = suite_flow(s, ctl::Protocol::SemiDecoupled);
  Netlist& nl = dr.netlist;
  CellId master;
  for (CellId c : nl.cells()) {
    const std::string& name = nl.cell(c).name;
    if (nl.cell(c).kind == Kind::Latch && name.size() > 2 &&
        name.substr(name.size() - 2) == ".m") {
      master = c;
      break;
    }
  }
  ASSERT_TRUE(master.valid());
  const NetId lo = nl.add_net("tied_en");
  nl.add_cell(Kind::TieLo, "tie_en", {}, {lo});
  nl.rewire_input(master, 1, lo);
  const verif::FlowEqResult r = verif::check_flow_equivalence(
      s.circuit.netlist, s.circuit.clock, verif::random_stimulus(17),
      Tech::generic90(), dr);
  EXPECT_FALSE(r.equivalent);
  EXPECT_NE(r.mismatch.find("made no progress"), std::string::npos)
      << r.mismatch;
}

TEST(FlowEq, WorstCaseSetupCountsPinned) {
  // Exact desync_setup_violations (the worst-case check dominates) and
  // verdicts of short-line mutants, recorded before flow::BankTiming
  // replaced the check's own STA loop. A presence check would miss a
  // shifted enable-tree insertion offset: the pipe cases have wide banks
  // (buffered enables), and dropping the launch or the capture offset
  // moves their counts. The DLX case is the one with a RAM bank. Margin
  // 1.0, random_stimulus(17), default FlowEqOptions.
  struct Case {
    const char* circuit;
    ctl::Protocol protocol;
    const char* strategy;
    bool bypass;  ///< longest line bypassed; else one DELAY shaved
    uint64_t violations;
    bool equivalent;
  };
  using P = ctl::Protocol;
  const Case cases[] = {
      {"counters4x8", P::FullyDecoupled, "prefix", true, 41, true},
      {"counters4x8", P::Pulse, "perff", true, 210, true},
      {"fir16x16", P::Pulse, "perff", false, 62, true},
      {"rpipe32x8", P::Pulse, "prefix", true, 4, true},
      {"pipe8x16", P::Pulse, "prefix", true, 41, false},
      {"pipe16x32", P::Pulse, "prefix", true, 50, false},
      {"dlx", P::FullyDecoupled, "prefix", true, 52, false},
  };
  const std::vector<circuits::Suite> suite = circuits::scaling_suite();
  circuits::Circuit dlx_cpu{Netlist("dlx"), {}};
  dlx_cpu.clock =
      dlx::build_dlx(dlx_cpu.netlist, dlx::DlxConfig{},
                     dlx::fibonacci_program(6))
          .clk;
  const Tech& tech = Tech::generic90();
  for (const Case& c : cases) {
    SCOPED_TRACE(cat(c.circuit, " / ", ctl::protocol_name(c.protocol), " / ",
                     c.strategy, c.bypass ? " / bypassed" : " / shaved"));
    const circuits::Circuit* circ = &dlx_cpu;
    for (const circuits::Suite& s : suite) {
      if (s.name == c.circuit) circ = &s.circuit;
    }
    DesyncOptions dopt;
    dopt.protocol = c.protocol;
    dopt.margin = 1.0;
    dopt.strategy = PartitionSpec::parse(c.strategy);
    DesyncResult dr =
        desynchronize(circ->netlist, circ->clock, tech, dopt);
    if (c.bypass) {
      ASSERT_TRUE(mutants::bypass_longest_line(dr.netlist));
    } else {
      CellId second, first;
      ASSERT_TRUE(mutants::find_delay_pair(dr.netlist, &second, &first));
      dr.netlist.rewire_input(second, 0, dr.netlist.cell(first).ins[0]);
    }
    const verif::FlowEqResult r = verif::check_flow_equivalence(
        circ->netlist, circ->clock, verif::random_stimulus(17), tech, dr);
    EXPECT_EQ(r.desync_setup_violations, c.violations);
    EXPECT_EQ(r.equivalent, c.equivalent) << r.mismatch;
  }
}

/// Two registers for driving the compare stage: "r0" samples input `d`,
/// `r1` samples a tie cell (a constant stream). Both are clocked by `clk`
/// unless `r1_on_ck2`, which clocks `r1` from input `ck2` instead.
circuits::Circuit two_registers(const std::string& r1, bool r1_on_ck2 = false,
                                Kind r1_tie = Kind::TieLo) {
  circuits::Circuit c{Netlist("two_registers"), {}};
  Netlist& nl = c.netlist;
  c.clock = nl.add_input("clk");
  const NetId d = nl.add_input("d");
  const NetId ck2 = nl.add_input("ck2");
  const NetId q0 = nl.add_net("q0");
  const NetId z = nl.add_net("z");
  const NetId q1 = nl.add_net("q1");
  nl.add_cell(Kind::Dff, "r0", {d, c.clock}, {q0});
  nl.add_cell(r1_tie, "tie", {}, {z});
  nl.add_cell(Kind::Dff, r1, {z, r1_on_ck2 ? ck2 : c.clock}, {q1});
  nl.mark_output(q0);
  nl.mark_output(q1);
  return c;
}

TEST(FlowEq, CompareStageMismatchTexts) {
  // Each mismatch path of the compare stage, through the DesyncResult
  // overload: the synchronous netlist and the desynchronized result are
  // built from circuits that differ in one register. The texts are pinned
  // as the map-based compare stage printed them.
  const Tech& tech = Tech::generic90();
  const circuits::Circuit ref = two_registers("r1");
  const DesyncResult dr = desynchronize(ref.netlist, ref.clock, tech);
  // Input 1 (`ck2`) rises every other round; input 0 (`d`) is random.
  const verif::Stimulus random = verif::random_stimulus(17);
  const verif::Stimulus stim = [&random](int round, size_t i) {
    return i == 1 ? cell::from_bool(round % 2 == 1) : random(round, i);
  };
  auto check = [&](const circuits::Circuit& sync, const DesyncResult& d) {
    return verif::check_flow_equivalence(sync.netlist, sync.clock, stim, tech,
                                         d);
  };

  const verif::FlowEqResult same = check(ref, dr);
  EXPECT_TRUE(same.equivalent) << same.mismatch;
  EXPECT_EQ(same.registers_compared, 2u);
  EXPECT_EQ(same.captures_compared, 80u);

  // r1's master is dropped from its bank, so it is no tap.
  DesyncResult untapped = dr;
  const nl::CellId m1 = untapped.netlist.find_cell("r1.m");
  ASSERT_TRUE(m1.valid());
  for (Bank& b : untapped.banks.banks) std::erase(b.latches, m1);
  verif::FlowEqResult r = check(ref, untapped);
  EXPECT_FALSE(r.equivalent);
  EXPECT_EQ(r.mismatch, "register count differs: sync=2 desync=1");
  EXPECT_EQ(r.registers_compared, 2u);

  // The desynchronized circuit calls the second register "r9".
  const circuits::Circuit renamed = two_registers("r9");
  r = check(ref, desynchronize(renamed.netlist, renamed.clock, tech));
  EXPECT_EQ(r.mismatch, "register r1 missing in desync streams");
  EXPECT_EQ(r.captures_compared, 40u);  // r0 compared in full

  // The synchronous r1 captures on ck2's rises only: its stream ends early.
  r = check(two_registers("r1", true), dr);
  EXPECT_EQ(r.mismatch,
            "register r1 has too few captures (sync=21, desync=41)");

  // The synchronous r1 samples a 1 where the desynchronized one samples 0.
  r = check(two_registers("r1", false, Kind::TieHi), dr);
  EXPECT_EQ(r.mismatch, "register r1 differs at round 0: sync=1 desync=0");
}

}  // namespace
}  // namespace desyn::flow

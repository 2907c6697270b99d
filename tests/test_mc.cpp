// Variation-aware timing: flow::mc_analysis and flow::optimize_margins.
//
// The acceptance contract of the margin optimizer: on real circuits it
// recovers delay-line area (or period) against the uniform-margin baseline
// at equal zero-violation yield, and the flow at the optimized per-bank
// margins stays flow-equivalent to the synchronous reference under every
// protocol.
#include "flow/mc.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "cell/tech.h"
#include "circuits/circuits.h"
#include "dlx/cpu_builder.h"
#include "dlx/programs.h"
#include "core/partition.h"
#include "flow/engine.h"
#include "pn/mcr.h"
#include "verif/flow_equivalence.h"

namespace desyn::flow {
namespace {

using cell::Tech;

/// The scaling-suite fir8x12 fabric: adder chains deep enough that the
/// 10% margin exceeds one DELAY quantum, so there is genuine slack for the
/// optimizer to recover. (On shallow fabrics like the register mesh the
/// margin is smaller than the variation spread and the optimizer correctly
/// shaves nothing — that case is covered by the mesh sweep tests staying
/// at zero violations.)
circuits::Circuit test_fabric() { return circuits::fir_filter(8, 12); }

McOptions quick_mc() {
  McOptions mc;
  mc.samples = 64;
  mc.seed = 7;
  return mc;
}

TEST(McAnalysis, NominalSampleReproducesTimedModel) {
  // Every consumer of ctl::hardware_model must read the same numbers: MC
  // sample 0, the flow's timed model, the optimizer's scoring rule and the
  // engine's MCR stage agree bit for bit on every suite circuit, protocol
  // and partition strategy.
  const Tech& t = Tech::generic90();
  Engine engine(t);
  McOptions mc = quick_mc();
  mc.samples = 8;
  for (const circuits::Suite& s : circuits::scaling_suite()) {
    for (ctl::Protocol p : ctl::kAllProtocols) {
      for (const char* strategy : {"prefix", "perff"}) {
        const std::string what =
            cat(s.name, " ", ctl::protocol_name(p), " ", strategy);
        DesyncOptions opt;
        opt.protocol = p;
        opt.strategy = PartitionSpec::parse(strategy);
        const nl::Netlist& ff = s.circuit.netlist;
        DesyncResult dr = desynchronize(ff, s.circuit.clock, t, opt);
        McReport rep =
            mc_analysis(dr, t, Margins(opt.margin, opt.margins), mc);
        ASSERT_EQ(rep.samples, 9u) << what;  // 1.0 corner + 8 statistical
        // Sample 0 is the 1.0 corner: every factor is exactly 1, so its
        // period is the nominal hardware timed model's max cycle ratio.
        const double nominal =
            pn::max_cycle_ratio(timed_control_model(dr, t)).ratio;
        EXPECT_EQ(rep.nominal_period, nominal) << what;
        EXPECT_EQ(rep.periods[0], nominal) << what;
        EXPECT_EQ(predicted_period(dr.cg, p, t), nominal) << what;
        EXPECT_EQ(engine.run(ff, s.circuit.clock, opt)
                      .stats.predicted_period_ps,
                  nominal)
            << what;
        // The nominal sample satisfies setup by construction (margin >=
        // 1), so it never counts as a violation and its worst slack is
        // non-negative.
        EXPECT_GE(rep.min_slacks[0], 0.0) << what;
        // Distribution sanity: percentiles are ordered and bracket the
        // samples.
        EXPECT_LE(rep.period.p50, rep.period.p95) << what;
        EXPECT_LE(rep.period.p95, rep.period.max) << what;
        EXPECT_LE(rep.period.min, rep.period.p50) << what;
        EXPECT_GE(rep.yield, 0.0) << what;
        EXPECT_LE(rep.yield, 1.0) << what;
      }
    }
  }
}

TEST(McAnalysis, ByteIdenticalAcrossMcJobs) {
  const Tech& t = Tech::generic90();
  circuits::Circuit c = test_fabric();
  DesyncResult dr = desynchronize(c.netlist, c.clock, t);
  McOptions mc = quick_mc();
  McReport serial = mc_analysis(dr, t, Margins(1.10), mc);
  for (int jobs : {2, 4}) {
    mc.jobs = jobs;
    McReport par = mc_analysis(dr, t, Margins(1.10), mc);
    EXPECT_EQ(par.periods, serial.periods) << "jobs " << jobs;
    EXPECT_EQ(par.min_slacks, serial.min_slacks) << "jobs " << jobs;
    EXPECT_EQ(par.violation_samples, serial.violation_samples);
  }
}

TEST(McAnalysis, CornersScaleThePeriod) {
  const Tech& t = Tech::generic90();
  circuits::Circuit c = circuits::pipeline(4, 6, 2);
  DesyncResult dr = desynchronize(c.netlist, c.clock, t);
  McOptions mc;
  mc.samples = 0;
  mc.corners = {0.9, 1.0, 1.1};
  McReport rep = mc_analysis(dr, t, Margins(1.10), mc);
  ASSERT_EQ(rep.samples, 3u);
  // A global slow corner can only slow the circuit down.
  EXPECT_LT(rep.periods[0], rep.periods[1]);
  EXPECT_LT(rep.periods[1], rep.periods[2]);
}

TEST(McAnalysis, EngineCachesReports) {
  const Tech& t = Tech::generic90();
  Engine engine(t);
  circuits::Circuit c = circuits::pipeline(4, 6, 2);
  DesyncOptions opt;
  McOptions mc = quick_mc();
  auto first = engine.mc(c.netlist, c.clock, opt, mc);
  EXPECT_EQ(engine.counters().mc_runs, 1u);
  EXPECT_EQ(engine.counters().mc_hits, 0u);
  // Same coordinates (jobs differ — excluded from the key): pure hit.
  mc.jobs = 4;
  auto second = engine.mc(c.netlist, c.clock, opt, mc);
  EXPECT_EQ(engine.counters().mc_runs, 1u);
  EXPECT_EQ(engine.counters().mc_hits, 1u);
  EXPECT_EQ(second->periods, first->periods);
  // A different seed is a different distribution: the stage re-runs.
  mc.seed = 99;
  auto third = engine.mc(c.netlist, c.clock, opt, mc);
  EXPECT_EQ(engine.counters().mc_runs, 2u);
  EXPECT_NE(third->periods, first->periods);
}

/// The headline: per-bank margins recover delay-line area at equal
/// zero-violation yield on the mesh fabric and on the DLX processor.
class OptimizeMargins : public ::testing::TestWithParam<ctl::Protocol> {};

TEST_P(OptimizeMargins, RecoversAreaAtEqualYieldOnFabric) {
  const Tech& t = Tech::generic90();
  circuits::Circuit c = test_fabric();
  DesyncOptions opt;
  opt.protocol = GetParam();
  MarginOptResult res =
      optimize_margins(c.netlist, c.clock, t, opt, quick_mc());

  // Measurable delay-line area recovery...
  EXPECT_GT(res.banks_shaved, 0u);
  EXPECT_LT(res.delay_cells_after, res.delay_cells_before);
  // ... at equal (and on these circuits, perfect) yield.
  EXPECT_EQ(res.baseline.violation_samples, 0u);
  EXPECT_EQ(res.optimized.violation_samples, 0u);
  EXPECT_EQ(res.optimized.yield, res.baseline.yield);
  // Every produced margin is a legal DesyncOptions::margins entry, never
  // above the global it replaces.
  for (double m : res.margins) {
    EXPECT_TRUE(m == 0.0 || (m >= 1.0 && m <= opt.margin)) << m;
  }
  // Shaving lines cannot slow the handshake down.
  EXPECT_LE(res.optimized.nominal_period, res.baseline.nominal_period);
}

TEST_P(OptimizeMargins, FlowEquivalentAtOptimizedMargins) {
  const Tech& t = Tech::generic90();
  circuits::Circuit c = test_fabric();
  DesyncOptions opt;
  opt.protocol = GetParam();
  MarginOptResult res =
      optimize_margins(c.netlist, c.clock, t, opt, quick_mc());
  ASSERT_GT(res.banks_shaved, 0u);

  verif::FlowEqOptions feq;
  feq.rounds = 30;
  feq.desync.protocol = GetParam();
  feq.desync.margins = res.margins;
  auto eq = verif::check_flow_equivalence(
      c.netlist, c.clock, verif::random_stimulus(11), t, feq);
  EXPECT_TRUE(eq.equivalent)
      << ctl::protocol_name(GetParam()) << ": " << eq.mismatch;
  EXPECT_EQ(eq.desync_setup_violations, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, OptimizeMargins, ::testing::ValuesIn(ctl::kAllProtocols),
    [](const ::testing::TestParamInfo<ctl::Protocol>& info) {
      std::string n = ctl::protocol_name(info.param);
      n.erase(std::remove(n.begin(), n.end(), '-'), n.end());
      return n;
    });

TEST(OptimizeMarginsDlx, RecoversAreaAndStaysFlowEquivalent) {
  const Tech& t = Tech::generic90();
  dlx::DlxConfig cfg;
  cfg.regs = 8;  // compact config keeps the double simulation quick
  cfg.imem_bits = 7;
  cfg.dmem_bits = 5;
  nl::Netlist nl("dlx");
  dlx::build_dlx(nl, cfg, dlx::fibonacci_program(6));
  nl::NetId clk = nl.find_net("clk");
  ASSERT_TRUE(clk.valid());

  DesyncOptions opt;
  MarginOptResult res = optimize_margins(nl, clk, t, opt, quick_mc());
  EXPECT_GT(res.banks_shaved, 0u);
  EXPECT_LT(res.delay_cells_after, res.delay_cells_before);
  EXPECT_EQ(res.baseline.violation_samples, 0u);
  EXPECT_EQ(res.optimized.violation_samples, 0u);

  verif::FlowEqOptions feq;
  feq.rounds = 60;
  feq.desync.margins = res.margins;
  auto eq = verif::check_flow_equivalence(
      nl, clk, verif::constant_stimulus(cell::V::V0), t, feq);
  EXPECT_TRUE(eq.equivalent) << eq.mismatch;
  EXPECT_EQ(eq.desync_setup_violations, 0u);
}

}  // namespace
}  // namespace desyn::flow

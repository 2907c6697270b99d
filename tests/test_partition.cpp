#include "core/partition.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>

#include "base/rng.h"
#include "base/sha256.h"
#include "circuits/circuits.h"
#include "core/certificate.h"
#include "core/cluster_rank.h"
#include "core/desynchronizer.h"
#include "ctl/controller.h"
#include "dlx/cpu_builder.h"
#include "dlx/programs.h"
#include "flow/engine.h"
#include "netlist/builder.h"
#include "pn/mcr.h"
#include "verif/flow_equivalence.h"

namespace desyn::flow {
namespace {

using cell::Kind;
using cell::Tech;
using cell::V;
using nl::Builder;
using nl::Netlist;
using nl::NetId;

/// 3-stage pipeline with hierarchical names (same shape as test_flow's).
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

/// A small design with one RAM macro (for the RAM-integrity tests).
Netlist ram_design(NetId* clock_out) {
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
  *clock_out = clk;
  return nl;
}

std::vector<nl::CellId> dffs_of(const Netlist& nl) {
  std::vector<nl::CellId> out;
  for (nl::CellId c : nl.cells()) {
    if (nl.cell(c).kind == Kind::Dff) out.push_back(c);
  }
  return out;
}

TEST(BankPrefix, DepthAndFallbacks) {
  EXPECT_EQ(bank_prefix("ifid.pc_q3"), "ifid");
  EXPECT_EQ(bank_prefix("st3.d.r0"), "st3.d");
  EXPECT_EQ(bank_prefix("st3.d.r0", 2), "st3");
  EXPECT_EQ(bank_prefix("a.b.c.d", 2), "a.b");
  // Depth beyond the hierarchy keeps at least the first segment.
  EXPECT_EQ(bank_prefix("a.b", 5), "a");
  EXPECT_EQ(bank_prefix("flat"), "core");
  EXPECT_EQ(bank_prefix("flat", 3), "core");
  EXPECT_EQ(bank_prefix(".odd"), "core");
  // Verilog escaped identifiers are atomic: dots are not hierarchy.
  EXPECT_EQ(bank_prefix("\\weird.name"), "core");
  EXPECT_EQ(bank_prefix("\\weird.name", 2), "core");
}

TEST(Partition, ConstructorsMatchLegacyStrategies) {
  NetId clk;
  Netlist nl = pipeline3(&clk);
  Partition pfx = Partition::prefix(nl);
  EXPECT_EQ(pfx.num_groups(), 3u);  // s0, s1, s2
  EXPECT_EQ(pfx.groups()[0].name, "s0");
  EXPECT_EQ(pfx.groups()[0].cells.size(), 2u);
  Partition perff = Partition::per_flip_flop(nl);
  EXPECT_EQ(perff.num_groups(), 5u);
  Partition single = Partition::single(nl);
  ASSERT_EQ(single.num_groups(), 1u);
  EXPECT_EQ(single.groups()[0].name, "all");
  EXPECT_EQ(single.groups()[0].cells.size(), 5u);

  // The prefix constructor builds the same banks as an explicit partition
  // listing the same groups.
  Netlist via_ctor = nl, via_part = nl;
  LatchifyResult a = latchify(via_ctor, clk, Partition::prefix(via_ctor));
  LatchifyResult b = latchify(via_part, clk, pfx);
  ASSERT_EQ(a.banks.size(), b.banks.size());
  for (size_t i = 0; i < a.banks.size(); ++i) {
    EXPECT_EQ(a.banks[i].name, b.banks[i].name);
    EXPECT_EQ(a.banks[i].even, b.banks[i].even);
    EXPECT_EQ(a.banks[i].latches.size(), b.banks[i].latches.size());
  }
}

TEST(Partition, PrefixDepthCoarsens) {
  Netlist nl("deep");
  Builder b(nl);
  NetId clk = b.input("clk");
  NetId d = b.input("d");
  NetId q1 = b.dff(d, clk, V::V0, "u0.a.r0");
  NetId q2 = b.dff(q1, clk, V::V0, "u0.a.r1");
  NetId q3 = b.dff(q2, clk, V::V0, "u0.b.r0");
  NetId q4 = b.dff(q3, clk, V::V0, "u1.a.r0");
  b.output(q4);
  EXPECT_EQ(Partition::prefix(nl, 1).num_groups(), 3u);  // u0.a u0.b u1.a
  Partition d2 = Partition::prefix(nl, 2);
  EXPECT_EQ(d2.num_groups(), 2u);  // u0, u1
  EXPECT_EQ(d2.groups()[0].name, "u0");
  EXPECT_EQ(d2.groups()[0].cells.size(), 3u);
}

TEST(Partition, RejectsEmptyGroup) {
  NetId clk;
  Netlist nl = pipeline3(&clk);
  auto ffs = dffs_of(nl);
  try {
    Partition::from_groups(nl, {{ffs[0], ffs[1], ffs[2], ffs[3], ffs[4]}, {}});
    FAIL() << "expected PartitionError";
  } catch (const PartitionError& e) {
    EXPECT_EQ(e.kind(), PartitionError::Kind::EmptyGroup);
  }
}

TEST(Partition, RejectsForeignCell) {
  NetId clk;
  Netlist nl = pipeline3(&clk);
  auto ffs = dffs_of(nl);
  // A combinational cell id is not a storage cell.
  nl::CellId foreign;
  for (nl::CellId c : nl.cells()) {
    if (nl.cell(c).kind == Kind::Xor) foreign = c;
  }
  ASSERT_TRUE(foreign.valid());
  std::vector<std::vector<nl::CellId>> groups = {
      {ffs[0], ffs[1], ffs[2], ffs[3], ffs[4], foreign}};
  try {
    Partition::from_groups(nl, groups);
    FAIL() << "expected PartitionError";
  } catch (const PartitionError& e) {
    EXPECT_EQ(e.kind(), PartitionError::Kind::ForeignCell);
  }
  // So is an id from another netlist entirely (out of range).
  groups = {{ffs[0], ffs[1], ffs[2], ffs[3], ffs[4],
             nl::CellId(static_cast<uint32_t>(nl.num_cells()) + 7)}};
  try {
    Partition::from_groups(nl, groups);
    FAIL() << "expected PartitionError";
  } catch (const PartitionError& e) {
    EXPECT_EQ(e.kind(), PartitionError::Kind::ForeignCell);
  }
}

TEST(Partition, RejectsDuplicateAndUncovered) {
  NetId clk;
  Netlist nl = pipeline3(&clk);
  auto ffs = dffs_of(nl);
  try {
    Partition::from_groups(nl, {{ffs[0], ffs[1]}, {ffs[1], ffs[2], ffs[3], ffs[4]}});
    FAIL() << "expected PartitionError";
  } catch (const PartitionError& e) {
    EXPECT_EQ(e.kind(), PartitionError::Kind::DuplicateCell);
  }
  try {
    Partition::from_groups(nl, {{ffs[0], ffs[1], ffs[2], ffs[3]}});  // ffs[4] missing
    FAIL() << "expected PartitionError";
  } catch (const PartitionError& e) {
    EXPECT_EQ(e.kind(), PartitionError::Kind::UncoveredCell);
  }
}

TEST(Partition, RejectsSplitRamPair) {
  NetId clk;
  Netlist nl = ram_design(&clk);
  auto ffs = dffs_of(nl);
  nl::CellId ram;
  for (nl::CellId c : nl.cells()) {
    if (nl.cell(c).kind == Kind::Ram) ram = c;
  }
  ASSERT_TRUE(ram.valid());
  // Grouping the RAM with flip-flops would split its bank pair's
  // write-port/read-data ownership across unrelated storage.
  std::vector<std::vector<nl::CellId>> groups = {{ffs.begin(), ffs.end()}};
  groups[0].push_back(ram);
  try {
    Partition::from_groups(nl, groups);
    FAIL() << "expected PartitionError";
  } catch (const PartitionError& e) {
    EXPECT_EQ(e.kind(), PartitionError::Kind::MixedRamGroup);
  }
  // Listed alone it is fine, and equals the auto-appended form.
  Partition listed = Partition::from_groups(
      nl, {{ffs.begin(), ffs.end()}, {ram}});
  Partition implied = Partition::from_groups(nl, {{ffs.begin(), ffs.end()}});
  EXPECT_EQ(listed, implied);
  EXPECT_TRUE(listed.groups().back().ram);
}

TEST(Partition, ExplicitPartitionDrivesTheWholeFlow) {
  NetId clk;
  Netlist nl = pipeline3(&clk);
  auto ffs = dffs_of(nl);
  // A deliberately odd clustering: {s0.a, s1.b, s2.a} + {s0.b, s1.a}.
  Partition p = Partition::from_groups(
      nl, {{ffs[0], ffs[3], ffs[4]}, {ffs[1], ffs[2]}});
  verif::FlowEqOptions opt;
  opt.rounds = 25;
  opt.desync.strategy = PartitionSpec::explicit_(p);
  auto res = verif::check_flow_equivalence(nl, clk, verif::random_stimulus(11),
                                           Tech::generic90(), opt);
  EXPECT_TRUE(res.equivalent) << res.mismatch;
  EXPECT_EQ(res.desync_setup_violations, 0u);
  EXPECT_EQ(res.banks, 6u);  // 2 groups + env pair
}

TEST(Partition, CoarsePartitionWithRamStaysEquivalentEveryProtocol) {
  // Merging every FF into one bank around a RAM exercises the RAM
  // read-before-write and command-stability ordering edges over merged
  // banks — the riskiest quotient case.
  NetId clk;
  Netlist nl = ram_design(&clk);
  Partition p = Partition::from_groups(nl, {dffs_of(nl)});
  for (ctl::Protocol proto : ctl::kAllProtocols) {
    verif::FlowEqOptions opt;
    opt.rounds = 20;
    opt.desync.protocol = proto;
    opt.desync.strategy = PartitionSpec::explicit_(p);
    auto res = verif::check_flow_equivalence(
        nl, clk, verif::random_stimulus(23), Tech::generic90(), opt);
    EXPECT_TRUE(res.equivalent)
        << ctl::protocol_name(proto) << ": " << res.mismatch;
    EXPECT_EQ(res.desync_setup_violations, 0u) << ctl::protocol_name(proto);
  }
}

TEST(PartitionSpec, ParseAndLabelRoundTrip) {
  EXPECT_EQ(PartitionSpec::parse("prefix").label(), "prefix");
  EXPECT_EQ(PartitionSpec::parse("prefix:3").label(), "prefix:3");
  EXPECT_EQ(PartitionSpec::parse("perff").label(), "perff");
  EXPECT_EQ(PartitionSpec::parse("single").label(), "single");
  EXPECT_EQ(PartitionSpec::parse("auto").label(), "auto:1.05");
  EXPECT_EQ(PartitionSpec::parse("auto:1.2").label(), "auto:1.2");
  EXPECT_EQ(PartitionSpec::parse("auto:1.2").mode, PartitionSpec::Mode::Auto);
  EXPECT_DOUBLE_EQ(PartitionSpec::parse("auto:1.2").auto_budget, 1.2);
  EXPECT_EQ(PartitionSpec::parse("prefix:2").prefix_depth, 2);
  EXPECT_THROW(PartitionSpec::parse("bogus"), Error);
  EXPECT_THROW(PartitionSpec::parse("prefix:0"), Error);
  EXPECT_THROW(PartitionSpec::parse("prefix:x"), Error);
  EXPECT_THROW(PartitionSpec::parse("auto:0.5"), Error);
  EXPECT_THROW(PartitionSpec::parse("auto:"), Error);
  // The optimizer reads the budget as the exact decimal fraction of its
  // shortest round-trip text.
  using Frac = std::pair<int64_t, int64_t>;
  EXPECT_EQ(exact_decimal(PartitionSpec::parse("auto:1.0").auto_budget),
            Frac(1, 1));
  EXPECT_EQ(exact_decimal(PartitionSpec::parse("auto:1.02").auto_budget),
            Frac(51, 50));
  EXPECT_EQ(exact_decimal(PartitionSpec::parse("auto:1.05").auto_budget),
            Frac(21, 20));
  EXPECT_EQ(exact_decimal(PartitionSpec::parse("auto:100").auto_budget),
            Frac(100, 1));
}

// ---------------------------------------------------------------------------
// Property: seeded random valid partitions stay flow-equivalent with zero
// setup violations, across all four protocols, on suite circuits.
// ---------------------------------------------------------------------------

/// Deterministic random grouping of the DFFs of `nl` into ~`target` groups.
Partition random_partition(const Netlist& nl, uint64_t seed, size_t target) {
  auto ffs = dffs_of(nl);
  Rng rng(seed);
  // Deterministic shuffle (Fisher-Yates with the project Rng).
  for (size_t i = ffs.size(); i > 1; --i) {
    std::swap(ffs[i - 1], ffs[static_cast<size_t>(rng.below(i))]);
  }
  target = std::max<size_t>(1, std::min(target, ffs.size()));
  std::vector<std::vector<nl::CellId>> groups(target);
  for (size_t i = 0; i < ffs.size(); ++i) {
    groups[rng.below(target)].push_back(ffs[i]);
  }
  groups.erase(std::remove_if(groups.begin(), groups.end(),
                              [](const auto& g) { return g.empty(); }),
               groups.end());
  return Partition::from_groups(nl, groups);
}

class RandomPartitionFlowEq
    : public ::testing::TestWithParam<std::tuple<ctl::Protocol, const char*>> {
};

TEST_P(RandomPartitionFlowEq, SeededRandomPartitionsStayEquivalent) {
  auto [proto, name] = GetParam();
  circuits::Circuit circ{Netlist("none"), NetId()};
  for (circuits::Suite& s : circuits::scaling_suite()) {
    if (s.name == name) circ = std::move(s.circuit);
  }
  ASSERT_TRUE(circ.clock.valid()) << name;
  for (uint64_t seed : {3u, 17u}) {
    Partition p = random_partition(circ.netlist, seed, 5);
    verif::FlowEqOptions opt;
    opt.rounds = 12;
    opt.desync.protocol = proto;
    opt.desync.strategy = PartitionSpec::explicit_(p);
    auto res = verif::check_flow_equivalence(circ.netlist, circ.clock,
                                             verif::random_stimulus(seed + 1),
                                             Tech::generic90(), opt);
    EXPECT_TRUE(res.equivalent)
        << name << " seed " << seed << ": " << res.mismatch;
    EXPECT_EQ(res.desync_setup_violations, 0u) << name << " seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ProtocolsByCircuits, RandomPartitionFlowEq,
    ::testing::Combine(::testing::ValuesIn(ctl::kAllProtocols),
                       ::testing::Values("pipe4x8", "lfsr16", "counters4x8")),
    [](const ::testing::TestParamInfo<std::tuple<ctl::Protocol, const char*>>&
           info) {
      std::string n = ctl::protocol_name(std::get<0>(info.param));
      n.erase(std::remove(n.begin(), n.end(), '-'), n.end());
      return n + "_" + std::get<1>(info.param);
    });

// ---------------------------------------------------------------------------
// The MCR-guided optimizer: acceptance on the large designs.
// ---------------------------------------------------------------------------

void expect_optimized(const Netlist& nl, NetId clk, const char* what) {
  const Tech& tech = Tech::generic90();
  PartitionOptOptions opt;
  opt.period_budget = 1.05;
  opt.protocol = ctl::Protocol::SemiDecoupled;
  PartitionOptResult r = optimize_partition(nl, clk, tech, opt);
  // Measurably cheaper than the flow's own per-flip-flop result...
  DesyncOptions perff;
  perff.strategy = PartitionSpec::parse("perff");
  perff.protocol = opt.protocol;
  perff.margin = opt.margin;
  Engine engine(tech);
  const FlowStats st = engine.run(nl, clk, perff).stats;
  EXPECT_LT(r.cost, (st.controller_cells + st.delay_cells) / 2) << what;
  EXPECT_GT(r.merges, 0) << what;
  // ...within the stated budget of the Prefix baseline.
  EXPECT_LE(r.period,
            1.05 * std::max(r.baseline_period, r.perff_period) + 1e-6)
      << what;
  // Deterministic: a second run yields the identical partition.
  PartitionOptResult r2 = optimize_partition(nl, clk, tech, opt);
  EXPECT_TRUE(r.partition == r2.partition) << what;
  EXPECT_EQ(r.stats.warm_solves, r2.stats.warm_solves) << what;
  EXPECT_EQ(r.stats.cold_solves, r2.stats.cold_solves) << what;

  // The optimized partition drives the real flow and stays flow-equivalent
  // under every protocol, with zero setup violations.
  for (ctl::Protocol proto : ctl::kAllProtocols) {
    verif::FlowEqOptions feq;
    feq.rounds = 10;
    feq.desync.protocol = proto;
    feq.desync.strategy = PartitionSpec::explicit_(r.partition);
    auto res = verif::check_flow_equivalence(
        nl, clk, verif::random_stimulus(5), tech, feq);
    EXPECT_TRUE(res.equivalent)
        << what << " under " << ctl::protocol_name(proto) << ": "
        << res.mismatch;
    EXPECT_EQ(res.desync_setup_violations, 0u)
        << what << " under " << ctl::protocol_name(proto);
  }
}

TEST(Optimizer, BeatsPerFlipFlopWithinBudgetOnRpipe32x8) {
  circuits::Circuit c = circuits::random_pipeline(7, 32, 8);
  expect_optimized(c.netlist, c.clock, "rpipe32x8");
}

TEST(Optimizer, BeatsPerFlipFlopWithinBudgetOnMesh6x6x2) {
  circuits::Circuit c = circuits::register_mesh(6, 6, 2);
  expect_optimized(c.netlist, c.clock, "mesh6x6x2");
}

TEST(Optimizer, BeatsPerFlipFlopWithinBudgetOnDlx) {
  dlx::DlxConfig cfg;
  cfg.regs = 8;  // compact config keeps the double simulations quick
  cfg.imem_bits = 7;
  cfg.dmem_bits = 5;
  Netlist nl("dlx");
  dlx::build_dlx(nl, cfg, dlx::fibonacci_program(6));
  expect_optimized(nl, nl.find_net("clk"), "dlx");
}

// ---------------------------------------------------------------------------
// The incremental search vs the cold oracle: identical results.
// ---------------------------------------------------------------------------

/// The incremental optimizer (delta quotients + the potential certificate
/// + bound pruning) must return exactly the partition the
/// cold reference search does — same merges, same final period and
/// synthesized cost. The oracle deliberately skips bound
/// pruning and re-solves every candidate from scratch, so an invalid
/// monotone bound or a certificate/cold solver divergence shows up here as
/// a different committed merge.
void expect_matches_reference(const Netlist& nl, NetId clk, double budget,
                              ctl::Protocol proto, const char* name) {
  const Tech& tech = Tech::generic90();
  PartitionOptOptions opt;
  opt.period_budget = budget;
  opt.protocol = proto;
  opt.jobs = 3;  // accepted and ignored
  PartitionOptResult inc = optimize_partition(nl, clk, tech, opt);
  PartitionOptResult ref = optimize_partition_reference(nl, clk, tech, opt);
  const std::string what =
      cat(name, " ", ctl::protocol_name(proto), " budget ", budget);
  EXPECT_TRUE(inc.partition == ref.partition)
      << what << ":\n  incremental: " << inc.partition.describe(nl)
      << "\n  reference:   " << ref.partition.describe(nl);
  EXPECT_EQ(inc.merges, ref.merges) << what;
  EXPECT_EQ(inc.period, ref.period) << what;
  EXPECT_EQ(inc.cost, ref.cost) << what;
  EXPECT_EQ(inc.perff_period, ref.perff_period) << what;
  // The whole point: the incremental search spends a handful of cold
  // solves where the oracle spends one per candidate.
  EXPECT_LE(inc.stats.cold_solves * 20, ref.stats.cold_solves) << what;
}

TEST(OptimizerEquivalence, Rpipe32x8MatchesReference) {
  circuits::Circuit c = circuits::random_pipeline(7, 32, 8);
  for (ctl::Protocol proto : ctl::kAllProtocols) {
    expect_matches_reference(c.netlist, c.clock, 1.05, proto, "rpipe32x8");
    expect_matches_reference(c.netlist, c.clock, 1.0, proto, "rpipe32x8");
  }
}

TEST(OptimizerEquivalence, Mesh6x6x2MatchesReference) {
  circuits::Circuit c = circuits::register_mesh(6, 6, 2);
  for (ctl::Protocol proto : ctl::kAllProtocols) {
    expect_matches_reference(c.netlist, c.clock, 1.05, proto, "mesh6x6x2");
    expect_matches_reference(c.netlist, c.clock, 1.0, proto, "mesh6x6x2");
  }
}

TEST(OptimizerEquivalence, SuiteCircuitsMatchReference) {
  for (circuits::Suite& s : circuits::scaling_suite()) {
    if (s.name != "pipe4x8" && s.name != "counters4x8" && s.name != "crc32") {
      continue;
    }
    for (ctl::Protocol proto : ctl::kAllProtocols) {
      expect_matches_reference(s.circuit.netlist, s.circuit.clock, 1.02,
                               proto, s.name.c_str());
    }
  }
}

TEST(OptimizerEquivalence, DlxMatchesReferenceUnderTightBudget) {
  dlx::DlxConfig cfg;
  cfg.regs = 8;
  cfg.imem_bits = 7;
  cfg.dmem_bits = 5;
  Netlist nl("dlx");
  dlx::build_dlx(nl, cfg, dlx::fibonacci_program(6));
  // budget 1.0 is the fail-heavy regime: candidates bust the budget, the
  // bound cache prunes — the riskiest path to pin.
  expect_matches_reference(nl, nl.find_net("clk"), 1.0,
                           ctl::Protocol::SemiDecoupled, "dlx");
}

TEST(Optimizer, ByteIdenticalForAnyJobCount) {
  circuits::Circuit c = circuits::random_pipeline(7, 32, 8);
  const Tech& tech = Tech::generic90();
  PartitionOptOptions opt;
  opt.period_budget = 1.0;
  opt.protocol = ctl::Protocol::SemiDecoupled;
  opt.jobs = 1;
  PartitionOptResult serial = optimize_partition(c.netlist, c.clock, tech, opt);
  opt.jobs = 8;
  PartitionOptResult par = optimize_partition(c.netlist, c.clock, tech, opt);
  EXPECT_TRUE(serial.partition == par.partition);
  EXPECT_EQ(serial.period, par.period);
  EXPECT_EQ(serial.cost, par.cost);
  // The job count is ignored, so even the counters agree.
  EXPECT_EQ(serial.stats.candidates, par.stats.candidates);
  EXPECT_EQ(serial.stats.pruned, par.stats.pruned);
  EXPECT_EQ(serial.stats.warm_solves, par.stats.warm_solves);
  EXPECT_EQ(serial.stats.cold_solves, par.stats.cold_solves);
}

// ---------------------------------------------------------------------------
// BudgetCertificate: every verdict agrees with a cold solve of the
// candidate quotient, and every failure carries a real over-budget cycle.
// ---------------------------------------------------------------------------

/// The optimizer's starting point for `nl`: the per-flip-flop control graph
/// and the mergeable (non-RAM) groups.
struct FineGraph {
  AdjacencyResult adj;
  std::vector<char> merge_ok;
};

FineGraph fine_graph(const Netlist& nl, NetId clk, ctl::Protocol proto) {
  Netlist latched = nl;
  const Partition perff = Partition::per_flip_flop(nl);
  const LatchifyResult lr = latchify(latched, clk, perff);
  FineGraph f{extract_control_graph(latched, lr, clk, Tech::generic90(), 1.10,
                                    proto),
              {}};
  for (const PartitionGroup& g : perff.groups()) f.merge_ok.push_back(!g.ram);
  return f;
}

/// The critical cycle of `cg`'s timed model, with its exact sums.
pn::CycleRatioResult critical(const ctl::ControlGraph& cg,
                              ctl::Protocol proto) {
  return pn::max_cycle_ratio(
      ctl::hardware_model(cg, proto, Tech::generic90()).mg);
}

/// Check that `cycle` (certificate transition space, under clustering
/// `cand`) is a closed cycle of real arcs of `cand`'s timed model and that
/// its exact delay and token sums are `delay` and `tokens`.
void expect_real_cycle(const IncrementalQuotient& cand, ctl::Protocol proto,
                       const std::vector<BudgetCertificate::CycleArc>& cycle,
                       Ps delay_sum, int64_t token_sum,
                       const std::string& what) {
  ASSERT_FALSE(cycle.empty()) << what;
  const Tech& tech = Tech::generic90();
  const pn::MarkedGraph mg =
      ctl::hardware_model(cand.materialize(), proto, tech).mg;
  const std::vector<int> bank_map = cand.bank_map(nullptr);
  const size_t G = cand.num_groups();
  auto model_trans = [&](uint32_t t) {
    const uint32_t qb = t >> 1;
    const size_t fine_bank =
        qb >= 2 * G ? qb
                    : 2 * static_cast<size_t>(cand.members(
                              static_cast<int>(qb / 2))[0]) +
                          (qb & 1);
    return pn::TransId(2 * static_cast<uint32_t>(bank_map[fine_bank]) +
                       (t & 1));
  };
  Ps delay = 0;
  int64_t tokens = 0;
  for (size_t i = 0; i < cycle.size(); ++i) {
    const BudgetCertificate::CycleArc& a = cycle[i];
    EXPECT_EQ(a.to, cycle[(i + 1) % cycle.size()].from) << what;
    bool found = false;
    for (pn::ArcId out : mg.transition(model_trans(a.from)).out) {
      const pn::Arc& arc = mg.arc(out);
      found = found || (arc.to == model_trans(a.to) &&
                        arc.tokens == a.tokens && arc.delay == a.delay);
    }
    EXPECT_TRUE(found) << what << ": cycle arc " << a.from << " -> " << a.to
                       << " is not an arc of the candidate's model";
    delay += a.delay;
    tokens += a.tokens;
  }
  ASSERT_GT(tokens, 0) << what;
  EXPECT_EQ(delay, delay_sum) << what;
  EXPECT_EQ(tokens, token_sum) << what;
}

TEST(BudgetCertificate, VerdictsMatchColdSolvesOnRandomDeltas) {
  const Tech& tech = Tech::generic90();
  size_t passes = 0, failures = 0;
  for (circuits::Suite& s : circuits::scaling_suite()) {
    if (s.name != "pipe4x8" && s.name != "counters4x8" &&
        s.name != "lfsr16" && s.name != "rpipe32x8") {
      continue;
    }
    for (ctl::Protocol proto :
         {ctl::Protocol::Pulse, ctl::Protocol::SemiDecoupled}) {
      const FineGraph f =
          fine_graph(s.circuit.netlist, s.circuit.clock, proto);
      const pn::CycleRatioResult start = critical(f.adj.cg, proto);
      for (double budget : {1.0, 1.05}) {
        // The exact limit budget * start: the start's cycle fits it.
        const auto [bn, bd] = exact_decimal(budget);
        const int64_t ln = bn * start.delay, ld = bd * start.tokens;
        IncrementalQuotient cq(f.adj.cg, f.merge_ok);
        BudgetCertificate cert(f.adj.cg, cq, proto, tech, ln, ld);
        Rng rng(0x5eed ^ std::hash<std::string>()(s.name) ^
                static_cast<uint64_t>(budget * 100));
        const size_t G = cq.num_groups();
        for (int step = 0; step < 80; ++step) {
          std::vector<int> live;
          for (size_t c = 0; c < G; ++c) {
            if (cq.live(static_cast<int>(c)) &&
                cq.mergeable(static_cast<int>(c))) {
              live.push_back(static_cast<int>(c));
            }
          }
          if (live.size() < 2) break;
          const int x = live[rng.below(live.size())];
          const int y = live[rng.below(live.size())];
          if (x == y) continue;
          const int keep = std::min(x, y), drop = std::max(x, y);
          IncrementalQuotient cand = cq;
          cand.merge(keep, drop);
          const pn::CycleRatioResult cold = critical(cand.materialize(), proto);
          const std::string what =
              cat(s.name, " ", ctl::protocol_name(proto), " budget ", budget,
                  " step ", step, " merge ", keep, "+", drop);
          const bool pass = cert.probe_merge(keep, drop);
          EXPECT_EQ(pass, !pn::ratio_greater(cold.delay, cold.tokens, ln, ld))
              << what << ": cold period " << cold.delay << "/" << cold.tokens;
          if (!pass) {
            ++failures;
            const Ps fd = cert.failure_delay();
            const int64_t ft = cert.failure_tokens();
            EXPECT_TRUE(pn::ratio_greater(fd, ft, ln, ld)) << what;
            EXPECT_FALSE(pn::ratio_greater(fd, ft, cold.delay, cold.tokens))
                << what;
            expect_real_cycle(cand, proto, cert.failure_cycle(), fd, ft, what);
            EXPECT_TRUE(cert.consistent()) << what;
            continue;
          }
          ++passes;
          if (rng.below(3) != 0) {  // commit most passing merges
            cert.commit_merge(keep, drop);
            EXPECT_TRUE(cert.consistent()) << what;
          }
        }
      }
    }
  }
  // The sweep exercised both verdicts.
  EXPECT_GT(passes, 100u);
  EXPECT_GT(failures, 100u);
}

/// The verdict flips exactly at the candidate's period D/T: that limit
/// passes, and the next smaller fraction fails. A simple cycle carries at
/// most one token per transition, so with N transitions no cycle ratio
/// lies strictly between (D*N - 1)/(T*N) and D/T.
TEST(BudgetCertificate, VerdictFlipsExactlyAtThePeriod) {
  const Tech& tech = Tech::generic90();
  size_t checked = 0;
  for (circuits::Suite& s : circuits::scaling_suite()) {
    if (s.name != "pipe4x8" && s.name != "lfsr16" && s.name != "crc32") {
      continue;
    }
    for (ctl::Protocol proto :
         {ctl::Protocol::Pulse, ctl::Protocol::SemiDecoupled}) {
      const FineGraph f =
          fine_graph(s.circuit.netlist, s.circuit.clock, proto);
      const pn::CycleRatioResult start = critical(f.adj.cg, proto);
      const int64_t N = 2 * static_cast<int64_t>(f.adj.cg.num_banks());
      Rng rng(0xb0a7 ^ std::hash<std::string>()(s.name));
      const int G = static_cast<int>(f.merge_ok.size());
      for (int trial = 0; trial < 12; ++trial) {
        const int a = static_cast<int>(rng.below(static_cast<uint64_t>(G)));
        const int b = static_cast<int>(rng.below(static_cast<uint64_t>(G)));
        if (a == b || !f.merge_ok[static_cast<size_t>(a)] ||
            !f.merge_ok[static_cast<size_t>(b)]) {
          continue;
        }
        const int keep = std::min(a, b), drop = std::max(a, b);
        IncrementalQuotient cand(f.adj.cg, f.merge_ok);
        cand.merge(keep, drop);
        const pn::CycleRatioResult period = critical(cand.materialize(), proto);
        const int64_t below_num = period.delay * N - 1;
        const int64_t below_den = period.tokens * N;
        if (pn::ratio_greater(start.delay, start.tokens, below_num,
                              below_den)) {
          continue;  // the start itself must fit
        }
        const std::string what = cat(s.name, " ", ctl::protocol_name(proto),
                                     " merge ", keep, "+", drop);
        for (const auto& [num, den, fits] :
             {std::tuple{period.delay, period.tokens, true},
              std::tuple{below_num, below_den, false}}) {
          IncrementalQuotient cq(f.adj.cg, f.merge_ok);
          BudgetCertificate cert(f.adj.cg, cq, proto, tech, num, den);
          EXPECT_EQ(cert.probe_merge(keep, drop), fits)
              << what << " at limit " << num << "/" << den;
        }
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 20u);
}

// ---------------------------------------------------------------------------
// Golden: the standard DLX case study, as recorded before the certificate
// replaced the warm Howard probes. The candidates/pruned columns pin the
// search order itself, not just its result: OptimizerEquivalence runs the
// same rank structure as the oracle, so only these counts see a reordering.
// ---------------------------------------------------------------------------

TEST(Optimizer, StandardDlxMatchesGoldenPartitions) {
  Netlist nl("dlx");
  dlx::build_dlx(nl, dlx::DlxConfig{}, dlx::fibonacci_program(8));
  const NetId clk = nl.find_net("clk");
  struct Golden {
    double budget;
    ctl::Protocol proto;
    const char* describe_sha256;
    int merges;
    size_t groups, cost;
    double period;
    size_t candidates, pruned;
  };
  const char* kB100 =
      "55fecba49057eb8d5cbfb17f559f2134c19dc95b7db246512c1ae871f8a7583c";
  const char* kB102 =
      "58985d618b76c6ccf7ac5d2723803d30086b699a57b5eed22445e5cd286decbb";
  const char* kB105 =
      "e585adb363b6bf7380ce5a102696b6066e70698c132df97e0163ff8c4bdcded3";
  const Golden golden[] = {
      {1.0, ctl::Protocol::Pulse, kB100, 763, 4, 143, 3272, 1616, 796},
      {1.0, ctl::Protocol::SemiDecoupled, kB100, 763, 4, 219, 3452, 1616, 796},
      {1.02, ctl::Protocol::Pulse, kB102, 764, 3, 121, 3332, 984, 218},
      {1.02, ctl::Protocol::SemiDecoupled, kB102, 764, 3, 190, 3512, 984, 218},
      {1.05, ctl::Protocol::Pulse, kB105, 765, 2, 78, 3392, 765, 0},
      {1.05, ctl::Protocol::SemiDecoupled, kB105, 765, 2, 119, 3572, 765, 0},
  };
  for (const Golden& g : golden) {
    PartitionOptOptions opt;
    opt.period_budget = g.budget;
    opt.protocol = g.proto;
    const PartitionOptResult r =
        optimize_partition(nl, clk, Tech::generic90(), opt);
    const std::string what =
        cat("auto:", g.budget, " ", ctl::protocol_name(g.proto));
    EXPECT_EQ(sha256(r.partition.describe(nl)).hex(), g.describe_sha256)
        << what;
    EXPECT_EQ(r.merges, g.merges) << what;
    EXPECT_EQ(r.partition.num_groups(), g.groups) << what;
    EXPECT_EQ(r.cost, g.cost) << what;
    EXPECT_EQ(r.period, g.period) << what;
    EXPECT_EQ(r.stats.candidates, g.candidates) << what;
    EXPECT_EQ(r.stats.pruned, g.pruned) << what;
  }
}

/// Goldens beyond the DLX, recorded before the rank structure ranked
/// clusters instead of pairs. At auto:1.05 the DLX never fails a probe,
/// and neither do the mesh and random pipelines here, even rpipe32x8 at
/// auto:1.0: they pin the pop order on sparse graphs. fir16x16 at auto:1.0
/// fails or prunes nine pops in ten, so it pins the failure marks and
/// their re-activation by folds.
TEST(Optimizer, GoldenPartitionsBeyondTheDlx) {
  struct Golden {
    const char* name;
    circuits::Circuit circuit;
    double budget;
    const char* describe_sha256;
    int merges;
    size_t groups, candidates, pruned;
  };
  const Golden golden[] = {
      {"mesh16x16x1", circuits::register_mesh(16, 16, 1), 1.05,
       "8147c75ed719d9d7119ef47a07d40edb96c01601202e55352e46a82df6c01886",
       255, 1, 255, 0},
      {"rpipe128x4", circuits::random_pipeline(3, 128, 4), 1.05,
       "7042f60f88621e0fa920c5157807d6b7c0c336eacbf1c2369b3724641a9bdcdd",
       511, 1, 511, 0},
      {"rpipe32x8", circuits::random_pipeline(7, 32, 8), 1.0,
       "ff208e11da60dd2c225a62a27ab01d46a4dbd83517655ba6c83aa82a291e50da",
       255, 1, 255, 0},
      {"fir16x16", circuits::fir_filter(16, 16), 1.0,
       "ceaa52370c60104432b24b04bb351965312f14963e07814c8ffbb2de19d61f42",
       321, 15, 3632, 3205},
  };
  for (const Golden& g : golden) {
    for (ctl::Protocol proto :
         {ctl::Protocol::Pulse, ctl::Protocol::SemiDecoupled}) {
      PartitionOptOptions opt;
      opt.period_budget = g.budget;
      opt.protocol = proto;
      const nl::Netlist& nl = g.circuit.netlist;
      const PartitionOptResult r =
          optimize_partition(nl, g.circuit.clock, Tech::generic90(), opt);
      const std::string what = cat(g.name, " auto:", g.budget, " ",
                                   ctl::protocol_name(proto));
      EXPECT_EQ(sha256(r.partition.describe(nl)).hex(), g.describe_sha256)
          << what;
      EXPECT_EQ(r.merges, g.merges) << what;
      EXPECT_EQ(r.partition.num_groups(), g.groups) << what;
      EXPECT_EQ(r.stats.candidates, g.candidates) << what;
      EXPECT_EQ(r.stats.pruned, g.pruned) << what;
    }
  }
}

/// The optimizer takes its Prefix baseline from a quotient of the
/// per-flip-flop graph it already extracted. The oracle is the flow's own
/// path: latchify the Prefix partition and extract its control graph. The
/// bank count is checked too: a lost merge can leave the period unchanged.
TEST(Optimizer, PrefixBaselineMatchesExtractedPrefixGraph) {
  const Tech& tech = Tech::generic90();
  std::vector<circuits::Suite> designs = circuits::scaling_suite();
  {
    Netlist nl("dlx");
    dlx::build_dlx(nl, dlx::DlxConfig{}, dlx::fibonacci_program(8));
    const NetId clk = nl.find_net("clk");
    designs.push_back({"dlx", {std::move(nl), clk}});
  }
  for (const circuits::Suite& d : designs) {
    const Netlist& ff = d.circuit.netlist;
    for (ctl::Protocol proto : ctl::kAllProtocols) {
      for (double margin : {1.0, 1.1}) {
        Netlist latched = ff;
        const Partition prefix = Partition::prefix(ff);
        const LatchifyResult lr = latchify(latched, d.circuit.clock, prefix);
        const double oracle = predicted_period(
            extract_control_graph(latched, lr, d.circuit.clock, tech, margin,
                                  proto)
                .cg,
            proto, tech);
        PartitionOptOptions opt;
        opt.margin = margin;
        opt.protocol = proto;
        const PartitionOptResult r =
            optimize_partition(ff, d.circuit.clock, tech, opt);
        const std::string what = cat(d.name, " ", ctl::protocol_name(proto),
                                     " margin ", margin);
        EXPECT_EQ(r.baseline_period, oracle) << what;
        EXPECT_EQ(r.baseline_banks, prefix.num_groups()) << what;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// ClusterRank: the optimizer's rank structure against a brute-force argmax
// over every live pair.
// ---------------------------------------------------------------------------

/// Seeded random weight graphs, sparse and dense, with weights drawn from
/// {1, 2} so that most pops are weight ties the tie hash decides. Every
/// pop is settled at random: merge, or reject (a failed or pruned probe).
/// The model applies the same rules to a dense pair matrix. Each pop must
/// be its argmax under (weight desc, tie hash asc, pair asc), and after
/// each settle every live cluster's best must be its argmax among that
/// cluster's pairs: a stale best may hide behind its partner's for many
/// pops before it changes one.
TEST(ClusterRank, PopsMatchBruteForceArgmax) {
  struct Pair {
    int weight = 0;  // 0: no pair
    bool active = false, failed = false;
  };
  auto tie_hash = [](int a, int b) {
    return splitmix64(1 ^ ((uint64_t(a) << 32) | uint64_t(b)));
  };
  Rng rng(0xc105);
  size_t pops = 0, ties = 0, merges = 0, refolded_failures = 0;
  for (int graph = 0; graph < 300; ++graph) {
    const int n = 2 + static_cast<int>(rng.below(60));
    const bool dense = graph % 2 == 1;
    // One pop in `odds` merges: rare merges let a lost pair surface
    // before a fold re-adds it, frequent ones stress the fold.
    const uint64_t odds = graph % 3 == 0 ? 2 : graph % 3 == 1 ? 4 : 16;
    std::vector<std::vector<Pair>> m(n, std::vector<Pair>(n));
    std::vector<char> live(n, 1);
    auto at = [&](int a, int b) -> Pair& {
      return a < b ? m[a][b] : m[b][a];
    };
    // The model's best active pair per cluster (index n: over all).
    using Best = std::optional<std::pair<int, int>>;
    auto argmax = [&] {
      std::vector<Best> best(n + 1);
      auto offer = [&](Best& into, int a, int b) {
        if (into) {
          const auto [qa, qb] = *into;
          const int w = m[a][b].weight, qw = m[qa][qb].weight;
          if (w < qw || (w == qw && tie_hash(a, b) > tie_hash(qa, qb))) {
            return;
          }
        }
        into = {a, b};
      };
      for (int a = 0; a < n; ++a) {
        for (int b = a + 1; b < n; ++b) {
          if (!m[a][b].active) continue;
          offer(best[a], a, b);
          offer(best[b], a, b);
          offer(best[n], a, b);
        }
      }
      return best;
    };
    ClusterRank rank(static_cast<size_t>(n));
    for (int a = 0; a < n; ++a) {
      for (int b = a + 1; b < n; ++b) {
        if (rng.below(10) >= (dense ? 9u : 1u)) continue;
        m[a][b] = {1 + static_cast<int>(rng.below(2)), true, false};
        for (int w = 0; w < m[a][b].weight; ++w) rank.bump(a, b);
      }
    }
    bool settled = false;  // bests are computed at the first pop
    for (std::vector<Best> want = argmax();; want = argmax()) {
      // Every live cluster's best, exact after each settle.
      for (int x = 0; x < n && settled; ++x) {
        const auto got = rank.best(x);
        ASSERT_EQ(got.has_value(), want[x].has_value())
            << "graph " << graph << " pop " << pops << " cluster " << x;
        if (got) {
          ASSERT_EQ(std::pair(got->a, got->b), *want[x])
              << "graph " << graph << " pop " << pops << " cluster " << x;
        }
      }
      const std::optional<ClusterRank::Candidate> c = rank.pop();
      if (!want[n]) {
        ASSERT_FALSE(c.has_value()) << "graph " << graph;
        break;
      }
      const auto [ba, bb] = *want[n];
      ASSERT_TRUE(c.has_value()) << "graph " << graph;
      ASSERT_EQ(std::pair(c->a, c->b), *want[n])
          << "graph " << graph << " pop " << pops;
      ASSERT_EQ(c->failed, m[ba][bb].failed) << "graph " << graph;
      ++pops;
      settled = true;
      m[ba][bb].active = false;
      // The tie hash decided if another active pair weighs the same.
      bool tie = false;
      for (int a = 0; a < n && !tie; ++a) {
        for (int b = a + 1; b < n && !tie; ++b) {
          tie = m[a][b].active && m[a][b].weight == m[ba][bb].weight;
        }
      }
      ties += tie;
      if (rng.below(odds) != 0) {
        m[ba][bb].failed = true;
        rank.reject();
        continue;
      }
      // Fold bb into ba.
      rank.merge();
      ++merges;
      live[bb] = 0;
      m[ba][bb] = {};
      for (int x = 0; x < n; ++x) {
        if (!live[x] || x == ba) continue;
        Pair& bx = at(bb, x);
        if (bx.weight == 0) continue;
        Pair& ax = at(ba, x);
        if (ax.weight > 0 && ax.failed && !ax.active) ++refolded_failures;
        ax = {ax.weight + bx.weight, true, ax.failed || bx.failed};
        bx = {};
      }
    }
  }
  EXPECT_GT(pops, 20000u);
  EXPECT_GT(ties, pops / 4);  // the tie hash decides many pops
  EXPECT_GT(merges, 5000u);
  EXPECT_GT(refolded_failures, 5000u);  // rejected pairs come back
}

// ---------------------------------------------------------------------------
// IncrementalQuotient: deltas and undo against from-scratch quotients.
// ---------------------------------------------------------------------------

std::vector<std::tuple<int, int, Ps>> edge_list(const ctl::ControlGraph& cg) {
  std::vector<std::tuple<int, int, Ps>> out;
  for (const auto& e : cg.edges()) out.push_back({e.from, e.to, e.matched_delay});
  return out;
}

TEST(IncrementalQuotient, MergeUndoRoundTrip) {
  NetId clk;
  Netlist nl = pipeline3(&clk);
  Netlist latched = nl;
  Partition perff = Partition::per_flip_flop(nl);
  LatchifyResult lr = latchify(latched, clk, perff);
  AdjacencyResult fine = extract_control_graph(latched, lr, clk,
                                               Tech::generic90(), 1.1);
  std::vector<char> ok(perff.num_groups(), 1);
  IncrementalQuotient q(fine.cg, ok);
  auto before = edge_list(q.materialize());
  ASSERT_EQ(q.num_live(), perff.num_groups());

  q.merge(0, 2);
  EXPECT_EQ(q.num_live(), perff.num_groups() - 1);
  EXPECT_EQ(q.cluster_of(2), 0);
  auto merged_once = edge_list(q.materialize());
  // materialize() re-derives edges from the labels alone; the worst-in
  // pair the certificate sizes lines from must be restored by undo too.
  const Ps wi_even = q.worst_in(1, true), wi_odd = q.worst_in(1, false);
  const Ps wi3_even = q.worst_in(3, true), wi3_odd = q.worst_in(3, false);
  q.merge(1, 3);
  EXPECT_EQ(q.cluster_of(3), 1);
  EXPECT_EQ(q.worst_in(1, true), std::max(wi_even, wi3_even));
  EXPECT_EQ(q.worst_in(1, false), std::max(wi_odd, wi3_odd));
  q.undo();
  EXPECT_EQ(q.cluster_of(3), 3);
  EXPECT_EQ(q.worst_in(1, true), wi_even);
  EXPECT_EQ(q.worst_in(1, false), wi_odd);
  EXPECT_EQ(edge_list(q.materialize()), merged_once);
  q.undo();
  EXPECT_EQ(q.cluster_of(2), 2);
  EXPECT_EQ(edge_list(q.materialize()), before);
  EXPECT_EQ(q.num_live(), perff.num_groups());
}

TEST(Optimizer, AutoSpecResolvesInsideDesynchronize) {
  circuits::Circuit c = circuits::register_mesh(6, 6, 2);
  DesyncOptions opt;
  opt.strategy = PartitionSpec::parse("auto:1.05");
  opt.protocol = ctl::Protocol::SemiDecoupled;
  DesyncResult dr =
      desynchronize(c.netlist, c.clock, Tech::generic90(), opt);
  // The optimizer collapses the 72 per-cell banks to a handful.
  EXPECT_LT(dr.partition.num_groups(), 36u);
  EXPECT_EQ(dr.cg.num_banks(), 2 * dr.partition.num_groups() + 2);
  dr.netlist.check();
}

}  // namespace
}  // namespace desyn::flow

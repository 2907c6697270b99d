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
#include <cmath>

#include "cell/tech.h"
#include "circuits/circuits.h"
#include "dlx/cpu_builder.h"
#include "dlx/programs.h"
#include "core/partition.h"
#include "base/rng.h"
#include "base/sha256.h"
#include "flow/engine.h"
#include "pn/mcr.h"
#include "sta/variation.h"
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

/// Field-by-field report identity (doubles compared bit for bit).
void expect_same_report(const McReport& a, const McReport& b,
                        const std::string& what) {
  EXPECT_EQ(a.samples, b.samples) << what;
  EXPECT_EQ(a.corner_samples, b.corner_samples) << what;
  EXPECT_EQ(a.mcr_arcs, b.mcr_arcs) << what;
  EXPECT_EQ(a.nominal_period, b.nominal_period) << what;
  for (auto [x, y] : {std::pair{a.period, b.period},
                      std::pair{a.min_slack, b.min_slack}}) {
    EXPECT_EQ(x.p50, y.p50) << what;
    EXPECT_EQ(x.p95, y.p95) << what;
    EXPECT_EQ(x.min, y.min) << what;
    EXPECT_EQ(x.max, y.max) << what;
  }
  EXPECT_EQ(a.violation_samples, b.violation_samples) << what;
  EXPECT_EQ(a.yield, b.yield) << what;
  EXPECT_EQ(a.periods, b.periods) << what;
  EXPECT_EQ(a.min_slacks, b.min_slacks) << what;
}

/// The draw formulas written out in full, one element at a time: the
/// oracle the prepared (per-stream key, then per-sample) draw path must
/// reproduce bit for bit.
double reference_factor(const cell::VariationModel& vm, uint64_t stream,
                        size_t sample) {
  if (sample < vm.corners.size()) return vm.corners[sample];
  const uint64_t z = vm.seed + 0x9e3779b97f4a7c15ull * (sample + 1);
  const uint64_t draw =
      splitmix64(z ^ splitmix64(stream + 0xbf58476d1ce4e5b9ull));
  const double u = (static_cast<double>(draw >> 11) + 0.5) * 0x1.0p-53;
  const double g = std::clamp(cell::inverse_normal_cdf(u), -3.0, 3.0);
  return std::max(0.01, 1.0 + vm.sigma * g);
}

Ps reference_path_delay(Ps nominal, Ps unit, const cell::VariationModel& vm,
                        uint64_t stream, size_t sample) {
  if (nominal <= 0) return nominal;
  const int64_t stages = unit > 0 ? (nominal + unit - 1) / unit : 1;
  const double per_stage =
      static_cast<double>(nominal) / static_cast<double>(stages);
  double acc = 0.0;
  for (int64_t i = 0; i < stages; ++i) {
    const uint64_t seg = splitmix64(
        stream + 0x9e3779b97f4a7c15ull * static_cast<uint64_t>(i + 1));
    acc += per_stage * reference_factor(vm, seg, sample);
  }
  return static_cast<Ps>(std::llround(acc));
}

TEST(McDraws, PreparedStreamsReproduceTheFullDrawBitForBit) {
  const cell::VariationModel vm{0x5eedull, 0.07, {0.9, 1.0, 1.1}};
  const Ps unit = Tech::generic90().delay_unit();
  CounterRng pick(17);
  for (int i = 0; i < 200; ++i) {
    const uint64_t stream = pick.next();
    const uint64_t key = cell::VariationModel::prepare(stream);
    EXPECT_EQ(key, rng_prepare(stream));
    // Corner samples 0..2, then statistical ones, near and far.
    for (size_t s : {size_t{0}, size_t{1}, size_t{2}, size_t{3}, size_t{4},
                     size_t{63}, size_t{64}, size_t{200},
                     static_cast<size_t>(pick.below(1u << 20))}) {
      EXPECT_EQ(rng_draw_prepared(vm.seed, key, s),
                rng_draw(vm.seed, stream, s));
      const double ref = reference_factor(vm, stream, s);
      EXPECT_EQ(vm.factor_prepared(key, s), ref) << stream << " " << s;
      EXPECT_EQ(vm.factor(stream, s), ref) << stream << " " << s;
      // Paths from empty to many stages; the prepared keys of the longest
      // path serve every shorter one of the same stream.
      const std::vector<uint64_t> keys = sta::path_stage_keys(stream, 40);
      for (Ps nominal : {Ps{-5}, Ps{0}, Ps{1}, unit - 1, unit, unit + 1,
                         Ps{7} * unit + 3, Ps{40} * unit}) {
        const Ps want = reference_path_delay(nominal, unit, vm, stream, s);
        EXPECT_EQ(sta::sample_path_delay(nominal, unit, vm, stream, s), want)
            << nominal;
        EXPECT_EQ(sta::sample_path_delay(nominal, unit, vm, keys, s), want)
            << nominal;
      }
    }
  }
}

/// The block draw kernel against the scalar draw, bit for bit: blocks
/// inside, across and after the corner rows, full and partial, at a sigma
/// that never truncates and one that hits the +/-3 sigma clamp and the
/// 0.01 floor, with tail uniforms on both sides of both tail cut-offs.
TEST(Variation, BlockKernelMatchesFactorPrepared) {
  constexpr size_t kB = cell::VariationModel::kDrawBlock;
  constexpr double kPlow = 0.02425;  // Acklam's tail cut-off
  struct Window {
    size_t first, count;
  };
  const Window windows[] = {{0, kB},      {0, 1},      {1, 2},
                            {2, 5},       {3, kB},     {kB, kB},
                            {61, 7},      {100, kB - 1}, {5000, kB},
                            {123456, kB / 2 + 1}};
  const Ps unit = Tech::generic90().delay_unit();
  for (double sigma : {0.05, 0.4}) {
    const cell::VariationModel vm{0x5eedull, sigma, {0.9, 1.0, 1.1}};
    size_t draws = 0, clamped = 0, floored = 0;
    // Nearest uniform seen below and above each tail cut-off.
    double below_lo = 0, above_lo = 1, below_hi = 0, above_hi = 1;
    CounterRng pick(29);
    for (int e = 0; e < 1400; ++e) {
      const uint64_t key = cell::VariationModel::prepare(pick.next());
      for (const Window& w : windows) {
        double f[kB];
        vm.factors(key, w.first, w.count, f);
        for (size_t i = 0; i < w.count; ++i) {
          const size_t s = w.first + i;
          ASSERT_EQ(f[i], vm.factor_prepared(key, s))
              << "sigma " << sigma << " sample " << s;
          if (s < vm.corners.size()) continue;
          ++draws;
          const double u =
              (static_cast<double>(rng_draw_prepared(vm.seed, key, s) >> 11) +
               0.5) *
              0x1.0p-53;
          const double z = cell::inverse_normal_cdf(u);
          clamped += std::abs(z) > 3.0;
          floored += 1.0 + sigma * std::clamp(z, -3.0, 3.0) < 0.01;
          (u < kPlow ? below_lo : above_lo) =
              u < kPlow ? std::max(below_lo, u) : std::min(above_lo, u);
          (u < 1 - kPlow ? below_hi : above_hi) =
              u < 1 - kPlow ? std::max(below_hi, u) : std::min(above_hi, u);
        }
        // The block path sampler sums the same factors per sample.
        const std::vector<uint64_t> stages = sta::path_stage_keys(key, 9);
        for (Ps nominal : {Ps{0}, unit - 1, Ps{9} * unit}) {
          Ps out[kB];
          sta::sample_path_delays(nominal, unit, vm, stages, w.first,
                                  w.count, out);
          for (size_t i = 0; i < w.count; ++i) {
            ASSERT_EQ(out[i], sta::sample_path_delay(nominal, unit, vm,
                                                     stages, w.first + i))
                << nominal << " sample " << w.first + i;
          }
        }
      }
    }
    EXPECT_GE(draws, 128000u);
    EXPECT_LT(kPlow - below_lo, 1e-4) << sigma;
    EXPECT_LT(above_lo - kPlow, 1e-4) << sigma;
    EXPECT_LT(1 - kPlow - below_hi, 1e-4) << sigma;
    EXPECT_LT(above_hi - (1 - kPlow), 1e-4) << sigma;
    EXPECT_GT(clamped, 0u) << sigma;
    // 1 + sigma * z reaches the floor only below z = -0.99 / sigma.
    EXPECT_EQ(floored > 0, sigma == 0.4) << sigma;
  }
}

/// The draws themselves, pinned: the SHA-256 of 96k scalar factors
/// (corner and statistical samples, both sigmas), recorded before the
/// inverse CDF's central branch was shared with the block kernel. A
/// regrouping of its arithmetic moves factors by an ulp, which whole-ps
/// reports rarely show.
TEST(Variation, ScalarDrawsMatchRecordedHash) {
  Sha256 h;
  for (double sigma : {0.05, 0.4}) {
    const cell::VariationModel vm{0x5eedull, sigma, {0.9, 1.0, 1.1}};
    CounterRng pick(41);
    for (int e = 0; e < 2000; ++e) {
      const uint64_t key = cell::VariationModel::prepare(pick.next());
      for (size_t s = 0; s < 24; ++s) h.field_f64(vm.factor_prepared(key, s));
    }
  }
  EXPECT_EQ(h.digest().hex(),
            "294f38b1e82a8896ef850229d5df4d22ac3a5394830d505d3170396a4a01d659");
}

TEST(Variation, RoundHalfUpIsLlround) {
  std::vector<double> xs = {0.0,
                            0.5,
                            1.5,
                            2.5,
                            0.49999999999999994,
                            std::nextafter(0.5, 1.0),
                            std::nextafter(2.5, 0.0),
                            4503599627370495.5,
                            4503599627370494.5,
                            123456.49999999999};
  CounterRng pick(5);
  for (int i = 0; i < 20000; ++i) {
    const double nominal = static_cast<double>(pick.below(5000));
    xs.push_back(nominal * (0.01 + 2.0 * rng_unit(5, 1, i)));
    xs.push_back(std::floor(xs.back()) + 0.5);
  }
  for (double x : xs) {
    EXPECT_EQ(cell::round_half_up(x), static_cast<double>(std::llround(x)))
        << std::hexfloat << x;
    EXPECT_EQ(cell::round_delay(x), std::llround(x)) << std::hexfloat << x;
  }
}

/// Every field of a report, doubles by bit pattern.
void hash_report(Sha256& h, const McReport& r) {
  h.field_u64(r.samples).field_u64(r.corner_samples).field_u64(r.mcr_arcs);
  h.field_f64(r.nominal_period);
  for (const McStats& st : {r.period, r.min_slack}) {
    h.field_f64(st.p50).field_f64(st.p95).field_f64(st.min).field_f64(st.max);
  }
  h.field_u64(r.violation_samples).field_f64(r.yield);
  for (double p : r.periods) h.field_f64(p);
  for (double s : r.min_slacks) h.field_f64(s);
}

/// Golden reports, recorded before the draws ran in blocks and the samples
/// were solved where they are drawn: per design, the SHA-256 of
/// mc_analysis and optimize_margins at 1, 63, 64, 65 and 257 samples
/// (around one and four 64-sample blocks) under every protocol. lfsr16 and
/// lfsr64 share a control graph (one bank each), hence a hash.
TEST(McAnalysis, GoldenReportsAcrossBlockBoundaries) {
  const Tech& t = Tech::generic90();
  struct Golden {
    std::string name;
    circuits::Circuit circuit;
    const char* sha256;
  };
  std::vector<Golden> golden;
  const char* kHash[] = {
      "b1d589af4ae240d82e0855c21bb63d05341bd9274369809697ac6c03ca2f53ed",
      "6b19ae1ffd52ae7f8527e0498735f60dd525be8039328ea3bc07c5cb2896fa2b",
      "a3406fed90b874f4defc8323ffbef9422a8829a379fecca72586a6ac493c9cb1",
      "87166ebb5944a95546ee926ece2051c3a74dba1bd573efd273b8da78f9aa43d1",
      "87166ebb5944a95546ee926ece2051c3a74dba1bd573efd273b8da78f9aa43d1",
      "a8c21fa02b22cbccb3a2f6c49378d6a1e2b13712212e9fca7ebe5af4c21d147a",
      "ffd24ece7d3607a84093a6977bb8bcf9498d5dba60afbeaf567d8c4d7e85e252",
      "cfb33fa567fd2bc4ec3cb55bca8b2e99e16f0e196495d161766ec8974fcdf73b",
      "c5f8cc4e549548a12b20c0f3d1c3db873914e316fc9b39a0e3a3bd59264080af",
      "62a8f5bb63cfc3a5a86ce9143b7877d80c9404f0d055a36b5bf26b7082e32bca",
      "6353d78d4381fcd1e6e15191fce3dfd2f0f1b8e2bf6c41d40f134b447060885b",
  };
  std::vector<circuits::Suite> suite = circuits::scaling_suite();
  ASSERT_EQ(suite.size(), std::size(kHash));
  for (size_t i = 0; i < suite.size(); ++i) {
    golden.push_back({suite[i].name, std::move(suite[i].circuit), kHash[i]});
  }
  {
    nl::Netlist nl("dlx");
    dlx::build_dlx(nl, dlx::DlxConfig{}, dlx::fibonacci_program(8));
    const nl::NetId clk = nl.find_net("clk");
    golden.push_back(
        {"dlx", {std::move(nl), clk},
         "4ee138fb0f7434fea7d41648aa21e17180094e3e0ea330870d118c7ffcc0ad00"});
  }
  for (const Golden& g : golden) {
    const nl::Netlist& ff = g.circuit.netlist;
    Sha256 h;
    for (ctl::Protocol p : ctl::kAllProtocols) {
      DesyncOptions opt;
      opt.protocol = p;
      const std::shared_ptr<const DesyncResult> dr =
          Engine::process(t).desynchronize(ff, g.circuit.clock, opt);
      for (size_t total : {1, 63, 64, 65, 257}) {
        McOptions mc;
        mc.seed = 7;
        mc.samples = total - mc.corners.size();
        hash_report(h, mc_analysis(*dr, t, Margins(opt.margin, opt.margins),
                                   mc));
        const MarginOptResult r =
            optimize_margins(ff, g.circuit.clock, t, opt, mc);
        for (double m : r.margins) h.field_f64(m);
        h.field_u64(r.banks_shaved)
            .field_u64(r.delay_cells_before)
            .field_u64(r.delay_cells_after);
        hash_report(h, r.baseline);
        hash_report(h, r.optimized);
      }
    }
    EXPECT_EQ(h.digest().hex(), g.sha256) << g.name;
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

TEST(McAnalysis, ByteIdenticalAcrossMcJobsOverManyBlocks) {
  // 3 corners + 200 statistical samples span four solver blocks (the last
  // one partial), so every worker count splits the fill differently.
  const Tech& t = Tech::generic90();
  circuits::Circuit c = test_fabric();
  DesyncResult dr = desynchronize(c.netlist, c.clock, t);
  McOptions mc = quick_mc();
  mc.samples = 200;
  mc.corners = {0.9, 1.0, 1.1};
  ASSERT_GE(203u, 3 * pn::McrBatch::kBlock);
  const McReport serial = mc_analysis(dr, t, Margins(1.10), mc);
  ASSERT_EQ(serial.samples, 203u);
  for (int jobs : {2, 3, 4}) {
    mc.jobs = jobs;
    expect_same_report(mc_analysis(dr, t, Margins(1.10), mc), serial,
                       cat("jobs ", jobs));
  }
  // Sample i is a function of i alone: a short run is a prefix of the long
  // one, whichever block each sample falls in.
  mc.samples = 10;
  const McReport prefix = mc_analysis(dr, t, Margins(1.10), mc);
  ASSERT_EQ(prefix.samples, 13u);
  for (size_t s = 0; s < prefix.samples; ++s) {
    EXPECT_EQ(prefix.periods[s], serial.periods[s]) << s;
    EXPECT_EQ(prefix.min_slacks[s], serial.min_slacks[s]) << s;
  }
  EXPECT_LT(serial.periods[0], serial.periods[1]);
  EXPECT_LT(serial.periods[1], serial.periods[2]);
  for (double p : serial.periods) EXPECT_GT(p, 0.0);
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

TEST_P(OptimizeMargins, ByteIdenticalAcrossMcJobs) {
  const Tech& t = Tech::generic90();
  circuits::Circuit c = test_fabric();
  DesyncOptions opt;
  opt.protocol = GetParam();
  McOptions mc = quick_mc();
  mc.samples = 200;
  const MarginOptResult serial =
      optimize_margins(c.netlist, c.clock, t, opt, mc);
  ASSERT_GT(serial.banks_shaved, 0u);
  mc.jobs = 4;
  const MarginOptResult par = optimize_margins(c.netlist, c.clock, t, opt, mc);
  EXPECT_EQ(par.margins, serial.margins);
  EXPECT_EQ(par.banks_shaved, serial.banks_shaved);
  EXPECT_EQ(par.delay_cells_before, serial.delay_cells_before);
  EXPECT_EQ(par.delay_cells_after, serial.delay_cells_after);
  expect_same_report(par.baseline, serial.baseline, "baseline");
  expect_same_report(par.optimized, serial.optimized, "optimized");
}

TEST(OptimizeMarginsUnshaved, OptimizedIsAColdAnalysisAtTheReturnedMargins) {
  // The register mesh's margin is smaller than the variation spread, so
  // no bank is shaved and the baseline analysis stands for the optimized
  // one. It must equal what a cold engine computes at the returned vector.
  const Tech& t = Tech::generic90();
  circuits::Circuit c = circuits::register_mesh(6, 6, 2);
  DesyncOptions opt;
  const McOptions mc = quick_mc();
  const MarginOptResult res = optimize_margins(c.netlist, c.clock, t, opt, mc);
  ASSERT_EQ(res.banks_shaved, 0u);
  EXPECT_EQ(res.delay_cells_after, res.delay_cells_before);

  DesyncOptions at = opt;
  at.margins = res.margins;
  Engine cold(t);
  const std::shared_ptr<const DesyncResult> dr =
      cold.desynchronize(c.netlist, c.clock, at);
  EXPECT_EQ(res.margins.size(), dr->cg.num_banks());
  EXPECT_EQ(res.delay_cells_after, dr->ctrl.delay_units);
  expect_same_report(res.optimized,
                     mc_analysis(*dr, t, Margins(at.margin, at.margins), mc),
                     "optimized");
  expect_same_report(res.optimized, res.baseline, "baseline");
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

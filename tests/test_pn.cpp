#include "pn/petri.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "base/rng.h"

#include "cell/tech.h"
#include "circuits/circuits.h"
#include "core/desynchronizer.h"
#include "flow/mc.h"
#include "mcr_reference.h"
#include "pn/analysis.h"
#include "pn/mcr.h"

namespace desyn::pn {
namespace {

/// Two-transition ring: a -> b -> a with tokens/delays as given.
MarkedGraph ring2(int t_ab, int t_ba, Ps d_ab = 0, Ps d_ba = 0) {
  MarkedGraph mg("ring2");
  TransId a = mg.add_transition("a");
  TransId b = mg.add_transition("b");
  mg.add_arc(a, b, t_ab, d_ab);
  mg.add_arc(b, a, t_ba, d_ba);
  return mg;
}

TEST(MarkedGraph, TokenGameBasics) {
  MarkedGraph mg = ring2(1, 0);
  TransId a = mg.find("a");
  TransId b = mg.find("b");
  Marking m = mg.initial_marking();
  EXPECT_FALSE(mg.enabled(a, m));
  EXPECT_TRUE(mg.enabled(b, m));
  mg.fire(b, m);
  EXPECT_TRUE(mg.enabled(a, m));
  EXPECT_FALSE(mg.enabled(b, m));
  mg.fire(a, m);
  EXPECT_EQ(m, mg.initial_marking());  // ring returns to start
}

TEST(MarkedGraph, EnabledSetAndFind) {
  MarkedGraph mg = ring2(1, 1);
  Marking m = mg.initial_marking();
  EXPECT_EQ(mg.enabled_set(m).size(), 2u);
  EXPECT_TRUE(mg.find("a").valid());
  EXPECT_FALSE(mg.find("zz").valid());
}

TEST(Analysis, LivenessDetectsTokenFreeCycle) {
  EXPECT_TRUE(is_live(ring2(1, 0)));
  EXPECT_TRUE(is_live(ring2(1, 1)));
  EXPECT_FALSE(is_live(ring2(0, 0)));
}

TEST(Analysis, LivenessOnChordedGraph) {
  // Cycle a->b->c->a with token only on c->a, plus token-free chord a->c...
  // the chord creates cycle a->c->a which needs the c->a token: live.
  MarkedGraph mg("g");
  TransId a = mg.add_transition("a");
  TransId b = mg.add_transition("b");
  TransId c = mg.add_transition("c");
  mg.add_arc(a, b, 0);
  mg.add_arc(b, c, 0);
  mg.add_arc(c, a, 1);
  mg.add_arc(a, c, 0);
  EXPECT_TRUE(is_live(mg));
  // A token-free chord c->b closes token-free cycle b->c->b: dead.
  mg.add_arc(c, b, 0);
  EXPECT_FALSE(is_live(mg));
}

TEST(Analysis, PlaceBoundsAndSafety) {
  MarkedGraph mg1 = ring2(1, 0);
  EXPECT_EQ(place_bound(mg1, ArcId(0)), 1);
  EXPECT_EQ(place_bound(mg1, ArcId(1)), 1);
  EXPECT_TRUE(is_safe(mg1));

  MarkedGraph mg2 = ring2(2, 0);  // two tokens circulate: 2-bounded
  EXPECT_EQ(place_bound(mg2, ArcId(0)), 2);
  EXPECT_FALSE(is_safe(mg2));

  // Arc on no cycle: unbounded.
  MarkedGraph mg3("g");
  TransId a = mg3.add_transition("a");
  TransId b = mg3.add_transition("b");
  ArcId dangling = mg3.add_arc(a, b, 0);
  EXPECT_EQ(place_bound(mg3, dangling), -1);
  EXPECT_FALSE(is_safe(mg3));
}

/// Seeded random live marked graphs, safe and unsafe alike: a ring through
/// every transition carrying one token (sometimes more), chords with 0-2
/// tokens, and now and then an arc into a sink (on no cycle). The
/// per-head BFS of is_safe must agree with the per-arc place_bound oracle,
/// and so must the shared MinTokenSearch distances on every arc of every
/// graph, live or not.
TEST(Analysis, IsSafeMatchesPlaceBoundsOnRandomLiveGraphs) {
  int safe = 0, unsafe = 0;
  for (uint64_t seed = 0; seed < 400; ++seed) {
    Rng rng(seed * 0x9e3779b97f4a7c15ull + 3);
    const uint32_t n = 2 + static_cast<uint32_t>(rng.below(10));
    MarkedGraph mg(cat("safety", seed));
    for (uint32_t i = 0; i < n; ++i) mg.add_transition(cat("t", i));
    for (uint32_t i = 0; i < n; ++i) {
      const int extra = rng.below(8) == 0 ? 1 : 0;
      mg.add_arc(TransId(i), TransId((i + 1) % n), (i == 0 ? 1 : 0) + extra);
    }
    const uint64_t chords = rng.below(2 * n);
    for (uint64_t c = 0; c < chords; ++c) {
      const int tokens =
          rng.below(10) < 6 ? 0 : (rng.below(6) == 0 ? 2 : 1);
      mg.add_arc(TransId(static_cast<uint32_t>(rng.below(n))),
                 TransId(static_cast<uint32_t>(rng.below(n))), tokens);
    }
    if (rng.below(10) == 0) {
      TransId sink = mg.add_transition("sink");
      mg.add_arc(TransId(static_cast<uint32_t>(rng.below(n))), sink, 0);
    }
    MinTokenSearch search(mg);
    for (uint32_t a = 0; a < mg.num_arcs(); ++a) {
      const Arc& arc = mg.arc(ArcId(a));
      const int d = search.from(arc.to)[arc.from.value()];
      EXPECT_EQ(d == MinTokenSearch::kUnreachable ? -1 : d + arc.tokens,
                place_bound(mg, ArcId(a)))
          << "arc " << a << "\n" << mg.to_dot();
    }
    // The search is_safe runs, bounded at one token, agrees with the
    // unbounded one on every distance up to 1 and reports the rest as
    // unreachable.
    for (uint32_t t = 0; t < mg.num_transitions(); ++t) {
      const std::vector<int> full = search.from(TransId(t));
      const std::vector<int>& bounded = search.from(TransId(t), 1);
      for (uint32_t w = 0; w < mg.num_transitions(); ++w) {
        EXPECT_EQ(bounded[w],
                  full[w] <= 1 ? full[w] : MinTokenSearch::kUnreachable)
            << "from t" << t << " to t" << w << "\n" << mg.to_dot();
      }
    }
    if (!is_live(mg)) continue;
    bool all_one = true;
    for (uint32_t a = 0; a < mg.num_arcs(); ++a) {
      all_one = all_one && place_bound(mg, ArcId(a)) == 1;
    }
    EXPECT_EQ(is_safe(mg), all_one) << mg.to_dot();
    ++(all_one ? safe : unsafe);
  }
  // Both verdicts are well represented.
  EXPECT_GE(safe, 40);
  EXPECT_GE(unsafe, 40);
}

TEST(Analysis, ExploreCountsReachableMarkings) {
  // Safe 2-ring: exactly 2 markings.
  auto res = explore(ring2(1, 0));
  EXPECT_TRUE(res.complete);
  EXPECT_EQ(res.states, 2u);
  EXPECT_EQ(res.max_tokens, 1);

  // 2 tokens in a 2-ring: markings (2,0),(1,1),(0,2) = 3.
  auto res2 = explore(ring2(2, 0));
  EXPECT_TRUE(res2.complete);
  EXPECT_EQ(res2.states, 3u);
  EXPECT_EQ(res2.max_tokens, 2);
}

TEST(Analysis, ExploreHitsStateLimit) {
  auto res = explore(ring2(2, 0), 2);
  EXPECT_FALSE(res.complete);
  EXPECT_EQ(res.states, 2u);
}

TEST(Analysis, AdmitsSequenceReplay) {
  MarkedGraph mg = ring2(1, 0);
  TransId a = mg.find("a");
  TransId b = mg.find("b");
  std::vector<TransId> good = {b, a, b, a};
  std::vector<TransId> bad = {b, b};
  EXPECT_EQ(admits_sequence(mg, good), -1);
  EXPECT_EQ(admits_sequence(mg, bad), 1);
  std::vector<TransId> bad0 = {a};
  EXPECT_EQ(admits_sequence(mg, bad0), 0);
}

TEST(Mcr, SimpleRingRatio) {
  // One token, total delay 300: period 300.
  auto r = max_cycle_ratio(ring2(1, 0, 100, 200));
  EXPECT_NEAR(r.ratio, 300.0, 0.01);
  EXPECT_FALSE(r.cycle.empty());

  // Two tokens, same delays: period 150.
  auto r2 = max_cycle_ratio(ring2(1, 1, 100, 200));
  EXPECT_NEAR(r2.ratio, 150.0, 0.01);
}

TEST(Mcr, MaxOverCyclesWins) {
  // Two rings sharing transition a; slower ring dominates.
  MarkedGraph mg("g");
  TransId a = mg.add_transition("a");
  TransId b = mg.add_transition("b");
  TransId c = mg.add_transition("c");
  mg.add_arc(a, b, 1, 100);
  mg.add_arc(b, a, 0, 100);  // ratio 200
  mg.add_arc(a, c, 1, 500);
  mg.add_arc(c, a, 0, 400);  // ratio 900
  auto r = max_cycle_ratio(mg);
  EXPECT_NEAR(r.ratio, 900.0, 0.01);
}

TEST(Mcr, ZeroDelayGraph) {
  auto r = max_cycle_ratio(ring2(1, 0, 0, 0));
  EXPECT_NEAR(r.ratio, 0.0, 1e-9);
}

TEST(Mcr, EarliestScheduleMatchesRatio) {
  MarkedGraph mg = ring2(1, 0, 120, 180);
  auto sched = earliest_schedule(mg, 50);
  // Steady-state period between consecutive firings of "a".
  const auto& fa = sched[mg.find("a").value()];
  Ps period = fa[49] - fa[48];
  auto r = max_cycle_ratio(mg);
  EXPECT_EQ(period, static_cast<Ps>(r.ratio + 0.5));
}

TEST(Mcr, EarliestScheduleRespectsCausality) {
  MarkedGraph mg = ring2(1, 0, 100, 50);
  auto sched = earliest_schedule(mg, 3);
  TransId a = mg.find("a");
  TransId b = mg.find("b");
  // b fires first (token on a->b available at 0): b@0, a@50, b@150, ...
  EXPECT_EQ(sched[b.value()][0], 0);
  EXPECT_EQ(sched[a.value()][0], 50);
  EXPECT_EQ(sched[b.value()][1], 150);
  EXPECT_EQ(sched[a.value()][1], 200);
}

TEST(Mcr, ReferenceAgreesOnClassicCases) {
  auto r = max_cycle_ratio_reference(ring2(1, 0, 100, 200));
  EXPECT_EQ(r.ratio, 300.0);
  auto r2 = max_cycle_ratio_reference(ring2(1, 1, 100, 200));
  EXPECT_EQ(r2.ratio, 150.0);
  auto rz = max_cycle_ratio_reference(ring2(1, 0, 0, 0));
  EXPECT_EQ(rz.ratio, 0.0);
  EXPECT_FALSE(rz.cycle_arcs.empty());
}

/// Both solvers must return a *genuine* critical cycle: a closed arc walk
/// whose exact delay/token ratio equals the reported ratio, bit for bit.
void expect_genuine_critical_cycle(const MarkedGraph& mg,
                                   const CycleRatioResult& r) {
  ASSERT_FALSE(r.cycle_arcs.empty()) << mg.name();
  ASSERT_EQ(r.cycle.size(), r.cycle_arcs.size()) << mg.name();
  for (size_t i = 0; i < r.cycle_arcs.size(); ++i) {
    const Arc& a = mg.arc(r.cycle_arcs[i]);
    EXPECT_EQ(a.from, r.cycle[i]) << mg.name();
    EXPECT_EQ(a.to, r.cycle[(i + 1) % r.cycle.size()]) << mg.name();
  }
  EXPECT_EQ(cycle_ratio(flatten(mg).view(), r.cycle_arcs), r.ratio)
      << mg.name();
  // The exact sums are the returned arcs' sums, and the ratio is their one
  // division.
  Ps delay = 0;
  int64_t tokens = 0;
  for (ArcId a : r.cycle_arcs) {
    delay += mg.arc(a).delay;
    tokens += mg.arc(a).tokens;
  }
  EXPECT_EQ(r.delay, delay) << mg.name();
  EXPECT_EQ(r.tokens, tokens) << mg.name();
  EXPECT_EQ(r.ratio, static_cast<double>(r.delay) /
                         static_cast<double>(r.tokens))
      << mg.name();
}

TEST(Mcr, CriticalCycleIsGenuine) {
  // Two rings sharing a; the slow ring (ratio 900) must be the one handed
  // back, not merely *a* positive cycle like the fast ring (ratio 200).
  MarkedGraph mg("g");
  TransId a = mg.add_transition("a");
  TransId b = mg.add_transition("b");
  TransId c = mg.add_transition("c");
  mg.add_arc(a, b, 1, 100);
  mg.add_arc(b, a, 0, 100);
  ArcId slow1 = mg.add_arc(a, c, 1, 500);
  ArcId slow2 = mg.add_arc(c, a, 0, 400);
  for (auto solve : {&max_cycle_ratio, &max_cycle_ratio_reference}) {
    auto r = solve(mg);
    EXPECT_EQ(r.ratio, 900.0);
    expect_genuine_critical_cycle(mg, r);
    std::vector<ArcId> sorted = r.cycle_arcs;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, (std::vector<ArcId>{slow1, slow2}));
  }
}

TEST(Dot, ContainsTransitionsAndTokens) {
  MarkedGraph mg = ring2(1, 0, 10, 0);
  std::string dot = mg.to_dot();
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("\"a\""), std::string::npos);
  EXPECT_NE(dot.find("*"), std::string::npos);   // token bullet
  EXPECT_NE(dot.find("10ps"), std::string::npos);
}

}  // namespace
}  // namespace desyn::pn

namespace desyn::pn {
namespace {

/// Random strongly-connected marked graphs: a ring plus random chords.
MarkedGraph random_mg(uint64_t seed, int n, int chords) {
  Rng rng(seed);
  MarkedGraph mg(cat("rand", seed));
  for (int i = 0; i < n; ++i) mg.add_transition(cat("t", i));
  for (int i = 0; i < n; ++i) {
    mg.add_arc(TransId(static_cast<uint32_t>(i)),
               TransId(static_cast<uint32_t>((i + 1) % n)),
               rng.flip(0.6) ? 1 : 0);
  }
  for (int c = 0; c < chords; ++c) {
    mg.add_arc(TransId(static_cast<uint32_t>(rng.below(static_cast<uint64_t>(n)))),
               TransId(static_cast<uint32_t>(rng.below(static_cast<uint64_t>(n)))),
               static_cast<int>(rng.below(2)));
  }
  return mg;
}

class RandomMg : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomMg, StructuralAnalysesAgreeWithExploration) {
  MarkedGraph mg = random_mg(GetParam(), 6, 4);
  bool live = is_live(mg);
  auto reach = explore(mg, 1 << 16);
  if (!reach.complete) return;  // unbounded: skip behavioural comparison

  // Safety (all place bounds == 1) must agree with the max token count
  // seen during exhaustive exploration, provided the net is live (dead
  // sub-structures never exercise their bounds).
  if (live) {
    EXPECT_EQ(is_safe(mg), reach.max_tokens <= 1) << mg.to_dot();
  }

  // Structural place bounds are upper bounds on observed token counts.
  int max_bound = 0;
  bool unbounded = false;
  for (uint32_t a = 0; a < mg.num_arcs(); ++a) {
    int b = place_bound(mg, ArcId(a));
    if (b < 0) {
      unbounded = true;
    } else {
      max_bound = std::max(max_bound, b);
    }
  }
  if (!unbounded && live) {
    EXPECT_LE(reach.max_tokens, max_bound) << mg.to_dot();
  }

  // A live safe MG admits an earliest schedule in which every transition
  // fires every round. Simultaneous (equal-time) firings are concurrent,
  // so replay greedily: repeatedly fire the earliest pending firing that is
  // enabled; the token game must never get stuck.
  if (live && is_safe(mg)) {
    auto sched = earliest_schedule(mg, 3);
    struct Firing {
      Ps at;
      uint32_t t;
      bool done;
    };
    std::vector<Firing> fires;
    for (uint32_t t = 0; t < mg.num_transitions(); ++t) {
      for (int k = 0; k < 3; ++k) {
        fires.push_back({sched[t][static_cast<size_t>(k)], t, false});
      }
    }
    std::stable_sort(fires.begin(), fires.end(),
                     [](const Firing& x, const Firing& y) { return x.at < y.at; });
    Marking m = mg.initial_marking();
    size_t remaining = fires.size();
    while (remaining > 0) {
      bool progressed = false;
      for (Firing& f : fires) {
        if (f.done || !mg.enabled(TransId(f.t), m)) continue;
        mg.fire(TransId(f.t), m);
        f.done = true;
        --remaining;
        progressed = true;
        break;
      }
      ASSERT_TRUE(progressed) << "schedule replay stuck:\n" << mg.to_dot();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomMg,
                         ::testing::Range<uint64_t>(1, 40));

/// Random *live* timed marked graphs: every arc carries at least one
/// token, so every cycle does too. Seeds ending in 0 draw all delays zero
/// (zero-delay-cycle edge case); seeds ending in 1 draw a plain single
/// ring (one-cycle edge case).
MarkedGraph random_timed_mg(uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 1);
  const int n = 4 + static_cast<int>(rng.below(12));
  const bool zero_delay = seed % 10 == 0;
  const bool single_ring = seed % 10 == 1;
  const int chords = single_ring ? 0 : 2 + static_cast<int>(rng.below(8));
  MarkedGraph mg(cat("randtimed", seed));
  for (int i = 0; i < n; ++i) mg.add_transition(cat("t", i));
  auto delay = [&]() -> Ps {
    return zero_delay ? 0 : static_cast<Ps>(rng.below(1000));
  };
  for (int i = 0; i < n; ++i) {
    mg.add_arc(TransId(static_cast<uint32_t>(i)),
               TransId(static_cast<uint32_t>((i + 1) % n)),
               1 + static_cast<int>(rng.below(2)), delay());
  }
  for (int c = 0; c < chords; ++c) {
    mg.add_arc(
        TransId(static_cast<uint32_t>(rng.below(static_cast<uint64_t>(n)))),
        TransId(static_cast<uint32_t>(rng.below(static_cast<uint64_t>(n)))),
        1 + static_cast<int>(rng.below(2)), delay());
  }
  return mg;
}

class HowardVsReference : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HowardVsReference, SolversAgreeAndCyclesAreGenuine) {
  MarkedGraph mg = random_timed_mg(GetParam());
  ASSERT_TRUE(is_live(mg));
  auto solved = max_cycle_ratio(mg);
  auto ref = max_cycle_ratio_reference(mg);
  EXPECT_EQ(solved.ratio, ref.ratio) << mg.to_dot();
  expect_genuine_critical_cycle(mg, solved);
  expect_genuine_critical_cycle(mg, ref);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HowardVsReference,
                         ::testing::Range<uint64_t>(0, 60));

/// Regression for the fragile extraction bug: on every suite circuit's
/// timed control model, both solvers must agree and hand back a critical
/// cycle whose exact delay/token ratio is the returned period.
TEST(Mcr, SuiteControlModelCriticalCyclesAreExact) {
  const cell::Tech& t = cell::Tech::generic90();
  for (auto& s : circuits::scaling_suite()) {
    flow::DesyncResult dr =
        flow::desynchronize(s.circuit.netlist, s.circuit.clock, t);
    MarkedGraph mg = flow::timed_control_model(dr, t);
    auto solved = max_cycle_ratio(mg);
    auto ref = max_cycle_ratio_reference(mg);
    EXPECT_EQ(solved.ratio, ref.ratio) << s.name;
    expect_genuine_critical_cycle(mg, solved);
    expect_genuine_critical_cycle(mg, ref);
  }
}

// ---------------------------------------------------------------------------
// Merged graphs: the quotient shape the partition optimizer and the ECO
// path hand the flat solver (arc-free transitions, self-loops, parallel
// arcs). The flat cold solve must agree with the reference solver and
// return a genuine critical cycle.
// ---------------------------------------------------------------------------

/// Merge transition `drop` into `keep`: same transition count (drop keeps
/// its id but loses every arc), every arc re-pointed in place so arc ids
/// are preserved.
MarkedGraph merge_transitions(const MarkedGraph& mg, uint32_t keep,
                              uint32_t drop) {
  MarkedGraph out(cat(mg.name(), "_m", keep, "_", drop));
  for (uint32_t t = 0; t < mg.num_transitions(); ++t) {
    out.add_transition(cat("t", t));
  }
  for (uint32_t a = 0; a < mg.num_arcs(); ++a) {
    const Arc& arc = mg.arc(ArcId(a));
    uint32_t f = arc.from.value() == drop ? keep : arc.from.value();
    uint32_t t = arc.to.value() == drop ? keep : arc.to.value();
    out.add_arc(TransId(f), TransId(t), arc.tokens, arc.delay);
  }
  return out;
}

class MergeDeltas : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MergeDeltas, FlatSolveMatchesReferenceOnMergedGraphs) {
  const uint64_t seed = GetParam();
  MarkedGraph cur = random_timed_mg(seed);
  ASSERT_TRUE(is_live(cur));
  const uint32_t n = static_cast<uint32_t>(cur.num_transitions());

  // Random merges in sequence. Every arc carries a token (random_timed_mg),
  // so liveness survives merging (self-loops included).
  Rng rng(seed * 0x2545f4914f6cdd1dull + 7);
  std::vector<char> dead(n, 0);
  for (int step = 0; step < 3 && n >= 2; ++step) {
    uint32_t keep = static_cast<uint32_t>(rng.below(n));
    uint32_t drop = static_cast<uint32_t>(rng.below(n));
    if (keep == drop || dead[keep] || dead[drop]) continue;
    dead[drop] = 1;
    cur = merge_transitions(cur, keep, drop);
    ASSERT_TRUE(is_live(cur));
    const McrFlat flat = flatten(cur);
    CycleRatioResult r = max_cycle_ratio(flat.view());
    CycleRatioResult ref = max_cycle_ratio_reference(cur);
    EXPECT_EQ(r.ratio, ref.ratio)
        << "after merging " << drop << " into " << keep << ":\n"
        << cur.to_dot();
    expect_genuine_critical_cycle(cur, r);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MergeDeltas,
                         ::testing::Range<uint64_t>(0, 80));

TEST(Mcr, ArcFreeTransitionsDoNotChangeTheRatio) {
  // A merged-away transition keeps its id but has no arcs; the solver must
  // skip it and return the ratio and cycle of the graph without it.
  MarkedGraph mg = random_timed_mg(5);
  const CycleRatioResult base = max_cycle_ratio(mg);
  MarkedGraph padded = mg;
  for (int i = 0; i < 3; ++i) padded.add_transition(cat("iso", i));
  const CycleRatioResult r = max_cycle_ratio(flatten(padded).view());
  EXPECT_EQ(r.ratio, base.ratio);
  EXPECT_EQ(r.cycle_arcs, base.cycle_arcs);
  expect_genuine_critical_cycle(padded, r);
}

// ---------------------------------------------------------------------------
// McrBatch: structure-shared Monte-Carlo solves are bit-equal to the
// oracle's per-sample solves, every cycle is genuine, and results are
// byte-identical at any worker count.
// ---------------------------------------------------------------------------

/// Sampled delay rows: counter-based jitter (+/-20%) around the nominal
/// arc delays, a pure function of (seed, sample, arc) like the real
/// variation model's draws.
std::vector<Ps> sampled_rows(const McrFlat& flat, uint64_t seed,
                             size_t samples) {
  const size_t m = flat.delay.size();
  std::vector<Ps> rows(samples * m);
  for (size_t s = 0; s < samples; ++s) {
    for (size_t j = 0; j < m; ++j) {
      const double f = 0.8 + 0.4 * rng_unit(seed, j, s);
      rows[s * m + j] = static_cast<Ps>(
          std::llround(static_cast<double>(flat.delay[j]) * f));
    }
  }
  return rows;
}

class BatchVsCold : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BatchVsCold, WarmBlocksBitEqualColdOracle) {
  const uint64_t seed = GetParam();
  MarkedGraph mg = random_timed_mg(seed);
  ASSERT_TRUE(is_live(mg));
  const McrFlat flat = flatten(mg);
  const McrBatch batch(flat.view());
  const size_t m = batch.num_arcs();
  // Sample counts straddling the warm-start block size (kBlock = 64):
  // single sample, partial block, many full blocks.
  for (size_t samples : {size_t{1}, size_t{17}, size_t{256}}) {
    const std::vector<Ps> rows = sampled_rows(flat, seed, samples);
    const auto res = batch.solve_all(rows, samples, 1);
    ASSERT_EQ(res.size(), samples);
    for (size_t s = 0; s < samples; ++s) {
      const std::span<const Ps> row(rows.data() + s * m, m);
      // The cycle is genuine for *this row's* delays: its exact D/T
      // quotient is the returned ratio.
      const McrArcs g{flat.num_nodes, flat.from, flat.to, flat.tokens, row};
      EXPECT_EQ(res[s].ratio, reference_flat(g).ratio)  // bit-equal
          << mg.name() << " sample " << s << "/" << samples;
      ASSERT_FALSE(res[s].cycle_arcs.empty());
      EXPECT_EQ(cycle_ratio(g, res[s].cycle_arcs), res[s].ratio)
          << mg.name() << " sample " << s;
      // The exact sums belong to the returned arcs under this row.
      Ps delay = 0;
      int64_t tokens = 0;
      for (ArcId a : res[s].cycle_arcs) {
        delay += row[a.value()];
        tokens += flat.tokens[a.value()];
      }
      EXPECT_EQ(res[s].delay, delay) << mg.name() << " sample " << s;
      EXPECT_EQ(res[s].tokens, tokens) << mg.name() << " sample " << s;
      EXPECT_EQ(res[s].ratio, static_cast<double>(res[s].delay) /
                                  static_cast<double>(res[s].tokens))
          << mg.name() << " sample " << s;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchVsCold,
                         ::testing::Range<uint64_t>(0, 20));

TEST(McrBatch, ByteIdenticalAcrossJobs) {
  for (uint64_t seed : {uint64_t{3}, uint64_t{12}}) {
    MarkedGraph mg = random_timed_mg(seed);
    ASSERT_TRUE(is_live(mg));
    const McrFlat flat = flatten(mg);
    const McrBatch batch(flat.view());
    const size_t samples = 100;  // spans two kBlock granules (64 + 36)
    const std::vector<Ps> rows = sampled_rows(flat, seed, samples);
    const auto serial = batch.solve_all(rows, samples, 1);
    for (int jobs : {2, 4}) {
      const auto par = batch.solve_all(rows, samples, jobs);
      ASSERT_EQ(par.size(), serial.size()) << "jobs " << jobs;
      for (size_t s = 0; s < samples; ++s) {
        EXPECT_EQ(par[s].ratio, serial[s].ratio) << "jobs " << jobs;
        EXPECT_EQ(par[s].cycle, serial[s].cycle) << "jobs " << jobs;
        EXPECT_EQ(par[s].cycle_arcs, serial[s].cycle_arcs) << "jobs " << jobs;
      }
    }
  }
}

/// A flower of token-carrying rings of 3 to 9 arcs through one hub, their
/// nominal ratios all near 1000 ps: under the +/-20% per-arc jitter of
/// sampled_rows the critical cycle is a long ring that changes from sample
/// to sample, and no ring is a 1- or 2-arc seed of the batch dictionary.
MarkedGraph flower_mg(uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 3);
  MarkedGraph mg(cat("flower", seed));
  const TransId hub = mg.add_transition("hub");
  const int petals = 4 + static_cast<int>(rng.below(5));
  for (int p = 0; p < petals; ++p) {
    const int len = 3 + static_cast<int>(rng.below(7));
    const int tokens = 1 + static_cast<int>(rng.below(2));
    const Ps delay = 1000 * tokens / len;
    TransId prev = hub;
    for (int i = 1; i < len; ++i) {
      const TransId t = mg.add_transition(cat("p", p, "_", i));
      mg.add_arc(prev, t, i <= tokens ? 1 : 0, delay);
      prev = t;
    }
    mg.add_arc(prev, hub, 0, delay);
  }
  return mg;
}

/// The relaxation kernel on its own: settle potentials at a flower's exact
/// nominal ratio, raise the delays of a few random arcs, and relax from
/// those arcs alone. It must settle exactly when the oracle's ratio still
/// fits lambda; otherwise its cycle is genuine and exactly above lambda.
/// Either way, a rollback restores the settled potentials bit for bit.
TEST(Relaxation, DirtyArcsSettleIffOracleFitsAndRollBackExactly) {
  size_t settled = 0, cycles = 0;
  for (uint64_t seed = 0; seed < 16; ++seed) {
    const MarkedGraph mg = flower_mg(seed);
    ASSERT_TRUE(is_live(mg));
    McrFlat flat = flatten(mg);
    const uint32_t m = static_cast<uint32_t>(flat.delay.size());
    std::vector<std::vector<uint32_t>> in(flat.num_nodes);
    std::vector<uint32_t> all(m);
    for (uint32_t a = 0; a < m; ++a) {
      in[flat.to[a]].push_back(a);
      all[a] = a;
    }
    const CycleRatioResult nominal = reference_flat(flat.view());
    const Ps D = nominal.delay;
    const int64_t T = nominal.tokens;
    Relaxation relax(std::vector<int64_t>(flat.num_nodes));
    relax.set_lambda(D, T);
    ASSERT_EQ(relax.relax(flat.view(), in, all), Relaxation::Outcome::Settled)
        << mg.name();
    relax.commit();
    const std::vector<Ps> rows = sampled_rows(flat, seed, 8);
    Rng rng(seed + 77);
    for (size_t trial = 0; trial < 8; ++trial) {
      const std::vector<int64_t> before(relax.potentials().begin(),
                                        relax.potentials().end());
      McrFlat raised = flat;
      std::vector<uint32_t> dirty;
      for (int k = 0; k < 3; ++k) {
        const uint32_t a = static_cast<uint32_t>(rng.below(m));
        raised.delay[a] = std::max(flat.delay[a], rows[trial * m + a]);
        dirty.push_back(a);
      }
      const McrArcs g = raised.view();
      const CycleRatioResult ref = reference_flat(g);
      const bool fits = !ratio_greater(ref.delay, ref.tokens, D, T);
      const std::string what = cat(mg.name(), " trial ", trial);
      const Relaxation::Outcome out = relax.relax(g, in, dirty);
      EXPECT_EQ(out == Relaxation::Outcome::Settled, fits) << what;
      if (out == Relaxation::Outcome::Settled) {
        ++settled;
        const std::span<const int64_t> p = relax.potentials();
        for (uint32_t a = 0; a < m; ++a) {
          EXPECT_GE(p[g.from[a]], p[g.to[a]] + relax.scale() * g.delay[a] -
                                      relax.lambda_num() * g.tokens[a])
              << what << " arc " << a;
        }
      } else {
        ++cycles;
        const std::span<const uint32_t> cyc = relax.cycle();
        ASSERT_FALSE(cyc.empty()) << what;
        Ps cd = 0;
        int64_t ct = 0;
        for (size_t i = 0; i < cyc.size(); ++i) {
          EXPECT_EQ(g.to[cyc[i]], g.from[cyc[(i + 1) % cyc.size()]]) << what;
          cd += g.delay[cyc[i]];
          ct += g.tokens[cyc[i]];
        }
        EXPECT_EQ(relax.cycle_delay(), cd) << what;
        EXPECT_EQ(relax.cycle_tokens(), ct) << what;
        EXPECT_TRUE(ratio_greater(cd, ct, D, T)) << what;
        EXPECT_FALSE(ratio_greater(cd, ct, ref.delay, ref.tokens)) << what;
      }
      relax.rollback();
      EXPECT_TRUE(std::equal(before.begin(), before.end(),
                             relax.potentials().begin()))
          << what << ": rollback changed a potential";
    }
  }
  // Both outcomes were exercised.
  EXPECT_GT(settled, 10u);
  EXPECT_GT(cycles, 10u);
}

TEST(McrBatch, RepairMatchesColdSolveWhenDictionaryMisses) {
  struct Case {
    std::string name;
    McrFlat flat;
    std::vector<Ps> rows;
    size_t samples;
  };
  std::vector<Case> cases;
  {
    // The Monte-Carlo model whose critical cycles the 1- and 2-arc seeds
    // miss: long handshake loops through the random pipeline's fan-in.
    const cell::Tech& t = cell::Tech::generic90();
    const circuits::Circuit c = circuits::random_pipeline(3, 128, 4);
    const flow::DesyncResult dr = flow::desynchronize(c.netlist, c.clock, t);
    flow::McOptions mc;
    mc.samples = 256;
    mc.seed = 3;
    flow::McDelayRows r = flow::mc_delay_rows(dr, t, flow::Margins(1.10), mc);
    cases.push_back(
        {"rpipe128x4", std::move(r.flat), std::move(r.rows), r.samples});
  }
  for (uint64_t seed = 0; seed < 8; ++seed) {
    const MarkedGraph mg = flower_mg(seed);
    ASSERT_TRUE(is_live(mg));
    McrFlat flat = flatten(mg);
    // Five blocks, the last one partial.
    std::vector<Ps> rows = sampled_rows(flat, seed, 257);
    cases.push_back({mg.name(), std::move(flat), std::move(rows), 257});
  }
  for (const Case& c : cases) {
    const McrBatch batch(c.flat.view());
    const size_t m = batch.num_arcs();
    McrBatchStats stats;
    const auto res = batch.solve_all(c.rows, c.samples, 4, &stats);
    ASSERT_EQ(res.size(), c.samples);
    EXPECT_EQ(stats.certified + stats.repaired, c.samples) << c.name;
    EXPECT_GT(stats.repaired, 0u) << c.name;
    for (size_t s = 0; s < c.samples; ++s) {
      const std::span<const Ps> row(c.rows.data() + s * m, m);
      const McrArcs g{c.flat.num_nodes, c.flat.from, c.flat.to,
                      c.flat.tokens, row};
      EXPECT_EQ(res[s].ratio, reference_flat(g).ratio)
          << c.name << " sample " << s;
      // Genuine: the arcs chain into the returned transition cycle, and
      // their exact D/T under this row is the (oracle's, critical) ratio.
      const CycleRatioResult& r = res[s];
      ASSERT_FALSE(r.cycle_arcs.empty()) << c.name << " sample " << s;
      ASSERT_EQ(r.cycle.size(), r.cycle_arcs.size()) << c.name;
      for (size_t i = 0; i < r.cycle_arcs.size(); ++i) {
        const uint32_t a = r.cycle_arcs[i].value();
        EXPECT_EQ(c.flat.from[a], r.cycle[i].value()) << c.name;
        EXPECT_EQ(c.flat.to[a], r.cycle[(i + 1) % r.cycle.size()].value())
            << c.name;
      }
      EXPECT_EQ(cycle_ratio(g, r.cycle_arcs), r.ratio)
          << c.name << " sample " << s;
    }
    // The jobs = 1 stats are the same sums, block for block.
    McrBatchStats serial;
    (void)batch.solve_all(c.rows, c.samples, 1, &serial);
    EXPECT_EQ(serial.certified, stats.certified) << c.name;
    EXPECT_EQ(serial.repaired, stats.repaired) << c.name;
  }
}

/// Sixteen 3-arc rings through one hub, next to a 2-arc seed loop of
/// ratio 1. Ring i (0-based) carries 2^(16 - i) - 1 tokens on its first arc
/// and, in the sample row, a delay of tokens * (2 + i), so its ratio is
/// 2 + i; in the nominal row the rings have no delay and the seed is
/// critical. At ring j's ratio, ring j + 1 outweighs every later ring
/// (T_{j+1} > 2 * T_{j+2}), so the certificate climbs from the seed
/// through all sixteen rings, one per relaxation pass: more than 16n + 64
/// pops, where a capped relaxation would have stopped. The climb alone
/// must reach the last ring's exact ratio.
TEST(McrBatch, ClimbThroughSixteenRingsSettlesExactly) {
  McrFlat flat;
  std::vector<Ps> sample;
  auto arc = [&](uint32_t from, uint32_t to, int32_t tokens, Ps nominal,
                 Ps sampled) {
    flat.from.push_back(from);
    flat.to.push_back(to);
    flat.tokens.push_back(tokens);
    flat.delay.push_back(nominal);
    sample.push_back(sampled);
  };
  flat.num_nodes = 2;  // the hub 0 and the seed loop's node 1
  arc(0, 1, 1, 1, 1);
  arc(1, 0, 0, 0, 0);
  const int kRings = 16;
  for (int i = 0; i < kRings; ++i) {
    const int32_t tokens = (1 << (kRings - i)) - 1;
    const Ps d = Ps{tokens} * (2 + i);
    const uint32_t a = flat.num_nodes++, b = flat.num_nodes++;
    arc(0, a, tokens, 0, d - 2 * (d / 3));
    arc(a, b, 0, 0, d / 3);
    arc(b, 0, 0, 0, d / 3);
  }
  const McrArcs g{flat.num_nodes, flat.from, flat.to, flat.tokens, sample};
  const CycleRatioResult ref = reference_flat(g);
  ASSERT_EQ(ref.ratio, 2.0 + (kRings - 1));
  const std::vector<ArcId> last_ring = {ArcId(47), ArcId(48), ArcId(49)};
  ASSERT_EQ(ref.cycle_arcs, last_ring);

  const McrBatch batch(flat.view());
  McrBatchStats stats;
  const auto res = batch.solve_all(sample, 1, 1, &stats);
  EXPECT_EQ(stats.repaired, 1u);
  for (const CycleRatioResult& r : {res[0], max_cycle_ratio(g)}) {
    EXPECT_EQ(r.ratio, ref.ratio);
    EXPECT_EQ(r.cycle_arcs, last_ring);
    EXPECT_EQ(cycle_ratio(g, r.cycle_arcs), r.ratio);
  }
}

/// Two rings through one hub, every arc carrying one token: ring A with
/// 40 000 arcs and D = 4 000 001, ring B with 39 999 arcs. In the sample
/// row B totals 3 999 901 and beats A by 1/(40 000 * 39 999), about
/// 6.3e-10 ps, a gap finer than any double epsilon the solvers could have
/// used; in the nominal row B totals 3 999 896 and A is critical. The cold
/// solve, the oracle, and a batch whose certificate starts from A must all
/// return B's exact ratio with B's arcs. The potentials scaled by these
/// token counts reach magnitudes no other test does.
TEST(Mcr, RatiosCloserThanTheOldEpsilonResolveExactly) {
  McrFlat nominal;
  nominal.num_nodes = 1 + 39999 + 39998;
  auto ring = [&](uint32_t first, uint32_t len) {
    for (uint32_t i = 0; i < len; ++i) {
      nominal.from.push_back(i == 0 ? 0 : first + i - 1);
      nominal.to.push_back(i + 1 == len ? 0 : first + i);
      nominal.tokens.push_back(1);
      nominal.delay.push_back(100);
    }
  };
  ring(1, 40000);
  ring(40000, 39999);
  const size_t m = nominal.delay.size();
  nominal.delay[0] = 101;  // A: 4 000 001
  std::vector<ArcId> b_arcs;
  for (size_t a = 40000; a < m; ++a) {
    b_arcs.push_back(ArcId(static_cast<uint32_t>(a)));
  }
  std::vector<Ps> sample = nominal.delay;
  sample[40000] = 101;  // B: 3 999 901
  for (size_t a = m - 4; a < m; ++a) nominal.delay[a] = 99;  // B: 3 999 896
  const McrArcs g{nominal.num_nodes, nominal.from, nominal.to, nominal.tokens,
                  sample};
  const double b_ratio = 3999901.0 / 39999.0;
  ASSERT_GT(b_ratio, 4000001.0 / 40000.0);

  auto expect_b = [&](const CycleRatioResult& r, const char* solver) {
    EXPECT_EQ(r.ratio, b_ratio) << solver;
    EXPECT_EQ(r.cycle_arcs, b_arcs) << solver;
  };
  expect_b(max_cycle_ratio(g), "cold");
  expect_b(reference_flat(g), "oracle");
  const McrBatch batch(nominal.view());
  EXPECT_EQ(max_cycle_ratio(nominal.view()).ratio, 4000001.0 / 40000.0);
  McrBatchStats stats;
  const auto res = batch.solve_all(sample, 1, 1, &stats);
  expect_b(res[0], "batch");
  EXPECT_EQ(stats.repaired, 1u);
}

}  // namespace
}  // namespace desyn::pn

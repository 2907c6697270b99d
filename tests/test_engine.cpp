// The staged flow engine (flow/engine.h): cached-vs-cold byte identity,
// the ECO fast paths, LRU eviction, and the untrusted on-disk tier.
#include "flow/engine.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <thread>
#include <tuple>

#include "netlist/builder.h"
#include "netlist/hash.h"
#include "netlist/writer.h"

namespace desyn::flow {
namespace {

using cell::Kind;
using cell::Tech;
using cell::V;
using nl::Builder;
using nl::Netlist;
using nl::NetId;

/// 3-stage XOR/INV pipeline (the canonical small flow circuit).
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

/// 4-bit ripple counter with enable: feedback loops through the flow.
Netlist counter4(NetId* clock_out) {
  Netlist nl("counter4");
  Builder b(nl);
  NetId clk = b.input("clk");
  NetId en = b.input("en");
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

/// Distinct tiny circuits for cache-pressure tests.
Netlist shifter(int stages, NetId* clock_out) {
  Netlist nl(cat("shift", stages));
  Builder b(nl);
  NetId clk = b.input("clk");
  NetId d = b.input("d");
  NetId q = d;
  for (int i = 0; i < stages; ++i) q = b.dff(q, clk, V::V0, cat("s", i, ".r"));
  b.output(q);
  *clock_out = clk;
  return nl;
}

nl::CellId find_kind(const Netlist& nl, Kind k) {
  for (nl::CellId c : nl.cells()) {
    if (nl.cell(c).kind == k) return c;
  }
  return {};
}

std::string fresh_dir(const char* tag) {
  std::filesystem::path p =
      std::filesystem::path(::testing::TempDir()) /
      (std::string("desyn_engine_") + tag + "_" +
       std::to_string(::getpid()));
  std::filesystem::remove_all(p);
  std::filesystem::create_directories(p);
  return p.string();
}

// ---------------------------------------------------------------------------
// Cached vs. cold: every circuit x protocol resubmission is a result-cache
// hit and byte-identical to the cold monolithic reference flow.
// ---------------------------------------------------------------------------

struct CircuitCase {
  const char* name;
  Netlist (*build)(NetId*);
};

class EngineCachedVsCold
    : public ::testing::TestWithParam<std::tuple<ctl::Protocol, CircuitCase>> {
};

TEST_P(EngineCachedVsCold, ResubmissionIsHitAndByteIdentical) {
  auto [proto, c] = GetParam();
  NetId clk;
  Netlist ff = c.build(&clk);
  DesyncOptions opt;
  opt.protocol = proto;

  Engine engine(Tech::generic90());
  FlowOutcome cold = engine.run(ff, clk, opt);
  EXPECT_FALSE(cold.cached);

  FlowOutcome warm = engine.run(ff, clk, opt);
  EXPECT_TRUE(warm.cached);
  EXPECT_EQ(*warm.verilog, *cold.verilog);

  StageCounters sc = engine.counters();
  EXPECT_EQ(sc.runs, 2u);
  EXPECT_EQ(sc.result_hits, 1u);
  EXPECT_EQ(sc.partition_runs, 1u);
  EXPECT_EQ(sc.synth_runs, 1u);

  // The determinism contract: byte-identical to the cold reference flow.
  DesyncResult ref = desynchronize_reference(ff, clk, Tech::generic90(), opt);
  EXPECT_EQ(*cold.verilog, nl::to_verilog(ref.netlist));

  // The stats mirror the emitted circuit.
  EXPECT_EQ(cold.stats.banks, ref.cg.num_banks());
  EXPECT_EQ(cold.stats.cells_out, ref.netlist.num_live_cells());
  EXPECT_GT(cold.stats.predicted_period_ps, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    ProtocolsByCircuits, EngineCachedVsCold,
    ::testing::Combine(::testing::ValuesIn(ctl::kAllProtocols),
                       ::testing::Values(CircuitCase{"pipe3", pipeline3},
                                         CircuitCase{"counter4", counter4})),
    [](const ::testing::TestParamInfo<std::tuple<ctl::Protocol, CircuitCase>>&
           info) {
      std::string n = ctl::protocol_name(std::get<0>(info.param));
      n.erase(std::remove(n.begin(), n.end(), '-'), n.end());
      return n + "_" + std::get<1>(info.param).name;
    });

// ---------------------------------------------------------------------------
// Cache-key sensitivity: the per-bank margin vector changes the hardware,
// so it must key every stage from adjacency on — but never the partition
// stage (bank ids do not exist before clustering; the partitioner always
// scores at the global margin). Job counts never key anything.
// ---------------------------------------------------------------------------

TEST(EngineTest, CacheKeySensitivity) {
  NetId clk;
  Netlist ff = pipeline3(&clk);
  Engine engine(Tech::generic90());
  DesyncOptions opt;
  FlowOutcome base = engine.run(ff, clk, opt);

  // Uniformly larger per-bank margins: longer delay lines, new Verilog.
  DesyncOptions widened = opt;
  widened.margins.assign(base.stats.banks, 2.0);
  FlowOutcome wide = engine.run(ff, clk, widened);
  EXPECT_FALSE(wide.cached);
  EXPECT_NE(*wide.verilog, *base.verilog);
  {
    StageCounters sc = engine.counters();
    // The partition stage was *reused* (margins are not in its key)...
    EXPECT_EQ(sc.partition_runs, 1u);
    EXPECT_EQ(sc.partition_hits, 1u);
    // ... while adjacency onward re-ran under the new margin key.
    EXPECT_EQ(sc.adjacency_runs, 2u);
    EXPECT_EQ(sc.synth_runs, 2u);
  }

  // The job knob is excluded from every key: changing it on the widened
  // coordinates is a pure result-cache hit.
  DesyncOptions jobs = widened;
  jobs.opt_jobs = 4;
  FlowOutcome hit = engine.run(ff, clk, jobs);
  EXPECT_TRUE(hit.cached);
  EXPECT_EQ(*hit.verilog, *wide.verilog);

  // An all-zero vector means "global margin everywhere" — the same
  // hardware as the empty vector, but a distinct cache coordinate (the
  // key hashes the vector structurally): a re-run, byte-identical output.
  DesyncOptions zeros = opt;
  zeros.margins.assign(base.stats.banks, 0.0);
  FlowOutcome z = engine.run(ff, clk, zeros);
  EXPECT_FALSE(z.cached);
  EXPECT_EQ(*z.verilog, *base.verilog);
}

// ---------------------------------------------------------------------------
// ECO fast paths
// ---------------------------------------------------------------------------

TEST(EngineEco, KindEditTakesConeLimitedStaAndStaysIdentical) {
  NetId clk;
  Netlist base = pipeline3(&clk);
  DesyncOptions opt;
  Engine engine(Tech::generic90());
  engine.run(base, clk, opt);

  // Flip the lone inverter to a buffer: a pin-compatible single-delay edit.
  nl::CellId inv = find_kind(base, Kind::Inv);
  ASSERT_TRUE(inv.valid());
  Netlist edit = base;
  edit.set_kind(inv, Kind::Buf);

  StageCounters before = engine.counters();
  FlowOutcome eco = engine.run(edit, clk, opt);
  StageCounters after = engine.counters();
  EXPECT_FALSE(eco.cached);
  // The edit diffs as field-only against the lineage: adjacency re-times
  // only the cones that contain the edited cell...
  EXPECT_EQ(after.adjacency_eco, before.adjacency_eco + 1);
  EXPECT_EQ(after.adjacency_runs, before.adjacency_runs);
  EXPECT_GT(after.eco_banks_retimed, before.eco_banks_retimed);
  // ...and synthesis either field-patches (delays stayed in their
  // quantization buckets) or honestly re-runs (they did not) — never a
  // stale cache hit.
  EXPECT_EQ(after.synth_patched + after.synth_runs,
            before.synth_patched + before.synth_runs + 1);
  EXPECT_EQ(after.synth_hits, before.synth_hits);
  // The timed model is solved once, cold, whatever the edit moved.
  EXPECT_EQ(after.mcr_runs + after.mcr_hits,
            before.mcr_runs + before.mcr_hits + 1);
  EXPECT_EQ(after.mcr_warm, 0u);

  // Whatever path ran, the bytes and the stats match a cold engine's.
  Engine fresh(Tech::generic90());
  FlowOutcome cold = fresh.run(edit, clk, opt);
  EXPECT_EQ(*eco.verilog, *cold.verilog);
  EXPECT_EQ(eco.stats.predicted_period_ps, cold.stats.predicted_period_ps);
  EXPECT_EQ(eco.stats, cold.stats);
}

TEST(EngineEco, InitFlipFieldPatchesSynthAndHitsMcr) {
  NetId clk;
  Netlist base = counter4(&clk);
  DesyncOptions opt;
  Engine engine(Tech::generic90());
  engine.run(base, clk, opt);

  // Flip one flip-flop's initial value: no delay moves at all.
  nl::CellId ff = find_kind(base, Kind::Dff);
  ASSERT_TRUE(ff.valid());
  Netlist edit = base;
  edit.set_init(ff, base.cell(ff).init == V::V0 ? V::V1 : V::V0);

  StageCounters before = engine.counters();
  FlowOutcome eco = engine.run(edit, clk, opt);
  StageCounters after = engine.counters();
  EXPECT_FALSE(eco.cached);
  EXPECT_EQ(after.adjacency_eco, before.adjacency_eco + 1);
  // The control graph is unchanged, so the synthesized controllers are
  // field-patched and the MCR artifact is a straight cache hit.
  EXPECT_EQ(after.synth_patched, before.synth_patched + 1);
  EXPECT_EQ(after.synth_runs, before.synth_runs);
  EXPECT_EQ(after.mcr_hits, before.mcr_hits + 1);

  Engine fresh(Tech::generic90());
  FlowOutcome cold = fresh.run(edit, clk, opt);
  EXPECT_EQ(*eco.verilog, *cold.verilog);
  EXPECT_EQ(eco.stats.predicted_period_ps, cold.stats.predicted_period_ps);
  EXPECT_EQ(eco.stats, cold.stats);
}

TEST(EngineEco, StructuralEditFallsBackToFullStages) {
  NetId clk;
  Netlist base = pipeline3(&clk);
  DesyncOptions opt;
  Engine engine(Tech::generic90());
  engine.run(base, clk, opt);

  // Adding a cell changes the structure: no ECO path may fire.
  Netlist edit = base;
  {
    Builder b(edit);
    NetId q2 = edit.outputs()[0];
    nl::CellId drv = edit.net(q2).driver;
    ASSERT_TRUE(drv.valid());
    (void)b.inv(edit.cell(drv).ins[0], "extra.inv");
  }
  StageCounters before = engine.counters();
  FlowOutcome eco = engine.run(edit, clk, opt);
  StageCounters after = engine.counters();
  EXPECT_EQ(after.adjacency_eco, before.adjacency_eco);
  EXPECT_EQ(after.synth_patched, before.synth_patched);

  Engine fresh(Tech::generic90());
  EXPECT_EQ(*eco.verilog, *fresh.run(edit, clk, opt).verilog);
}

// ---------------------------------------------------------------------------
// LRU eviction
// ---------------------------------------------------------------------------

TEST(EngineStore, EvictionRecomputesByteIdenticalResults) {
  // A store far too small for the working set: artifacts are evicted,
  // resubmissions recompute, and the bytes never change.
  EngineOptions eopt;
  eopt.capacity = 3;
  Engine engine(Tech::generic90(), eopt);
  DesyncOptions opt;

  NetId clk;
  Netlist first = pipeline3(&clk);
  std::string first_bytes = *engine.run(first, clk, opt).verilog;

  for (int stages : {2, 3, 4, 5}) {
    NetId c;
    Netlist nl = shifter(stages, &c);
    engine.run(nl, c, opt);
  }
  EXPECT_GT(engine.store_stats().evictions, 0u);

  FlowOutcome again = engine.run(first, clk, opt);
  EXPECT_EQ(*again.verilog, first_bytes);
}

// ---------------------------------------------------------------------------
// On-disk tier
// ---------------------------------------------------------------------------

TEST(EngineDisk, SecondEngineIsServedFromDisk) {
  std::string dir = fresh_dir("roundtrip");
  NetId clk;
  Netlist ff = counter4(&clk);
  DesyncOptions opt;
  EngineOptions eopt;
  eopt.cache_dir = dir;

  std::string cold_bytes;
  {
    Engine writer(Tech::generic90(), eopt);
    FlowOutcome cold = writer.run(ff, clk, opt);
    EXPECT_FALSE(cold.cached);
    cold_bytes = *cold.verilog;
  }

  // A brand-new engine (empty memory tier) on the same directory: the
  // result artifact is read back, verified, and served as a cache hit.
  Engine reader(Tech::generic90(), eopt);
  FlowOutcome warm = reader.run(ff, clk, opt);
  EXPECT_TRUE(warm.cached);
  EXPECT_EQ(*warm.verilog, cold_bytes);
  EXPECT_GE(reader.store_stats().disk_hits, 1u);
  EXPECT_EQ(reader.counters().synth_runs, 0u);  // nothing recomputed

  std::filesystem::remove_all(dir);
}

/// The persisted stage keys are the on-disk format: a cache directory
/// written by an earlier build is only served if every key hashes the same
/// bytes. The file names (kind + key hex) of counter4 under a cheap and an
/// optimized strategy are pinned.
TEST(EngineDisk, PersistedStageKeysArePinned) {
  std::string dir = fresh_dir("pinned");
  NetId clk;
  Netlist ff = counter4(&clk);
  EngineOptions eopt;
  eopt.cache_dir = dir;
  {
    Engine engine(Tech::generic90(), eopt);
    for (const char* strategy : {"prefix", "auto:1.05"}) {
      DesyncOptions opt;
      opt.strategy = PartitionSpec::parse(strategy);
      engine.run(ff, clk, opt);
    }
  }
  std::vector<std::string> names;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    names.push_back(e.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  const std::vector<std::string> want = {
      "adjacency-"
      "beda42b74c9cf3875dee9f14e1fdaba2d9ea00112cf3f80224987cebd6aa1a7f.art",
      "adjacency-"
      "eb217311993d836029222c76f4786b2ad873ab57aa933f28907d34b665d123b7.art",
      "partition-"
      "14f388747436e75ef95294b875f09f1989a21601fde93d8ff999f94bee66c359.art",
      "result-"
      "2f08d6721cc46fc28f3b8794fba0c59613945ee9f99c325b8dec212b144bb769.art",
      "result-"
      "51e84361c036ce096eccd67041c8693dda6db948a545cee1128b98d8b8ddea46.art",
  };
  EXPECT_EQ(names, want);
  std::filesystem::remove_all(dir);
}

TEST(EngineDisk, CorruptEntriesAreRejectedAndRecomputed) {
  std::string dir = fresh_dir("corrupt");
  NetId clk;
  Netlist ff = pipeline3(&clk);
  DesyncOptions opt;
  EngineOptions eopt;
  eopt.cache_dir = dir;

  std::string cold_bytes;
  {
    Engine writer(Tech::generic90(), eopt);
    cold_bytes = *writer.run(ff, clk, opt).verilog;
  }

  // Vandalize every artifact file: flip bytes, truncate, or empty them.
  int mangled = 0;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir)) {
    if (!e.is_regular_file()) continue;
    std::ofstream out(e.path(), std::ios::binary | std::ios::trunc);
    out << (mangled % 2 ? "" : "desyn-garbage not an artifact\n");
    ++mangled;
  }
  ASSERT_GT(mangled, 0);

  // The integrity header rejects every entry; the flow recomputes and the
  // bytes still match the original cold run.
  Engine reader(Tech::generic90(), eopt);
  FlowOutcome redo = reader.run(ff, clk, opt);
  EXPECT_FALSE(redo.cached);
  EXPECT_EQ(*redo.verilog, cold_bytes);
  EXPECT_GE(reader.store_stats().disk_corrupt, 1u);

  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// The staged desynchronize() vs. the monolithic reference
// ---------------------------------------------------------------------------

TEST(EngineDesynchronize, MatchesReferenceAndSharesArtifacts) {
  NetId clk;
  Netlist ff = counter4(&clk);
  DesyncOptions opt;
  Engine engine(Tech::generic90());

  auto dr = engine.desynchronize(ff, clk, opt);
  DesyncResult ref = desynchronize_reference(ff, clk, Tech::generic90(), opt);
  EXPECT_EQ(nl::to_verilog(dr->netlist), nl::to_verilog(ref.netlist));

  // A run() after desynchronize() reuses every stage below the result.
  StageCounters before = engine.counters();
  engine.run(ff, clk, opt);
  StageCounters after = engine.counters();
  EXPECT_EQ(after.synth_runs, before.synth_runs);
  EXPECT_EQ(after.synth_hits, before.synth_hits + 1);
}

TEST(EngineDesynchronize, ConcurrentSubmissionsShareOneNetlistsMemo) {
  // Threads submitting one const netlist race on its hash memo
  // (netlist.h) and on the engine's stages; every submission identifies
  // the same content and gets the same bytes. The TSan job runs this.
  NetId clk;
  const Netlist ff = counter4(&clk);
  Engine engine(Tech::generic90());
  const std::string want = nl::to_verilog(
      desynchronize_reference(ff, clk, Tech::generic90(), DesyncOptions{})
          .netlist);
  constexpr int kThreads = 4;
  std::vector<std::string> got(kThreads);
  std::vector<Hash256> hashes(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      DesyncOptions opt;
      opt.protocol = ctl::kAllProtocols[static_cast<size_t>(t) %
                                        std::size(ctl::kAllProtocols)];
      (void)engine.desynchronize(ff, clk, opt);
      hashes[static_cast<size_t>(t)] = nl::content_hash(ff);
      got[static_cast<size_t>(t)] =
          nl::to_verilog(engine.desynchronize(ff, clk, DesyncOptions{})->netlist);
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(got[static_cast<size_t>(t)], want);
    EXPECT_EQ(hashes[static_cast<size_t>(t)], hashes[0]);
  }
}

}  // namespace
}  // namespace desyn::flow

// P1 — library performance (google-benchmark): how fast the flow itself
// runs (STA, event simulation, desynchronization, model analytics, a
// flow-equivalence proof).
#include <benchmark/benchmark.h>

#include "circuits/circuits.h"
#include "core/desynchronizer.h"
#include "dlx/cpu_builder.h"
#include "dlx/programs.h"
#include "pn/mcr.h"
#include "sim/sim.h"
#include "sta/sta.h"
#include "verif/flow_equivalence.h"

using namespace desyn;
using cell::Tech;

static void BM_StaDlx(benchmark::State& state) {
  nl::Netlist nl("dlx");
  dlx::build_dlx(nl, {}, dlx::fibonacci_program(10));
  const Tech& t = Tech::generic90();
  for (auto _ : state) {
    sta::Sta sta(nl, t);
    benchmark::DoNotOptimize(sta.min_clock_period().min_period);
  }
  state.counters["cells"] = static_cast<double>(nl.num_live_cells());
}
BENCHMARK(BM_StaDlx);

static void BM_SimulatePipeline(benchmark::State& state) {
  circuits::Circuit c =
      circuits::pipeline(static_cast<int>(state.range(0)), 16, 3);
  const Tech& t = Tech::generic90();
  uint64_t events = 0;
  for (auto _ : state) {
    sim::Simulator sim(c.netlist, t);
    sim.add_clock(c.clock, 2000, 1000);
    sim::poke_word(sim, c.netlist.inputs(), 0x2aaaa, 0);  // skip clk bit 0? no
    sim.run_until(100000);
    events += sim.events_processed();
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulatePipeline)->Arg(4)->Arg(16);

static void BM_DesynchronizeDlx(benchmark::State& state) {
  nl::Netlist nl("dlx");
  dlx::build_dlx(nl, {}, dlx::fibonacci_program(10));
  const Tech& t = Tech::generic90();
  for (auto _ : state) {
    flow::DesyncResult dr = flow::desynchronize(nl, nl.find_net("clk"), t);
    benchmark::DoNotOptimize(dr.netlist.num_live_cells());
  }
}
BENCHMARK(BM_DesynchronizeDlx);

static void BM_MaxCycleRatio(benchmark::State& state) {
  nl::Netlist nl("dlx");
  dlx::build_dlx(nl, {}, dlx::fibonacci_program(10));
  const Tech& t = Tech::generic90();
  flow::DesyncResult dr = flow::desynchronize(nl, nl.find_net("clk"), t);
  pn::MarkedGraph mg = flow::timed_control_model(dr, t);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pn::max_cycle_ratio(mg).ratio);
  }
}
BENCHMARK(BM_MaxCycleRatio);

// Event simulation of the desynchronized 32x32 register fabric (1024
// bank-pair handshake controllers): the self-timed workload flow
// equivalence spends its time on. The simulator is built once and
// advanced in slices so construction (fanout flattening) stays out of the
// measured loop.
static void BM_SimulateDesyncMesh(benchmark::State& state) {
  const Tech& t = Tech::generic90();
  // Static: google-benchmark re-enters this function while it sizes the
  // iteration count, and desynchronizing the fabric dominates set-up.
  static const flow::DesyncResult* dr = [&t] {
    circuits::Circuit c = circuits::register_mesh(32, 32, 1);
    return new flow::DesyncResult(
        flow::desynchronize(c.netlist, c.clock, t));
  }();
  sim::Simulator sim(dr->netlist, t);
  uint64_t events = 0;
  Ps horizon = 0;
  for (auto _ : state) {
    const uint64_t before = sim.events_processed();
    horizon += 5'000;
    sim.run_until(horizon);
    events += sim.events_processed() - before;
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulateDesyncMesh)->Unit(benchmark::kMillisecond);

/// The standard DLX (prefix banks, semi-decoupled) as every flow-equivalence
/// benchmark below proves it.
struct DlxProof {
  nl::Netlist nl{"dlx"};
  nl::NetId clk;
  verif::Stimulus stim = verif::random_stimulus(1);
  verif::FlowEqOptions opt;
  DlxProof() {
    clk = dlx::build_dlx(nl, {}, dlx::standard_workloads()[0].words).clk;
    opt.desync.protocol = ctl::Protocol::SemiDecoupled;
  }
};

// One flow-equivalence proof of the DLX on a warm engine: the flow and the
// proof's design-only set-up (the sync reference and the proof set-up, see
// flow/engine.h) are served from the process engine's cache, so the loop
// times the two simulations and what is left around them — what a repeat
// proof of one coordinate pays, as in every perfbench `verify` pass after
// the first.
static void BM_FlowEquivalenceDlx(benchmark::State& state) {
  const DlxProof p;
  const Tech& t = Tech::generic90();
  // Warm the engine; every timed proof is then a cache hit.
  if (!verif::check_flow_equivalence(p.nl, p.clk, p.stim, t, p.opt)
           .equivalent) {
    state.SkipWithError("DLX proof failed");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        verif::check_flow_equivalence(p.nl, p.clk, p.stim, t, p.opt)
            .captures_compared);
  }
}
BENCHMARK(BM_FlowEquivalenceDlx)->Unit(benchmark::kMillisecond);

// The same proof through the prebuilt-DesyncResult overload, which builds
// the set-up afresh on every call (clock tree, STA, both compiled images,
// the worst-case setup table, the MCR): its gap to BM_FlowEquivalenceDlx
// is what the cached set-up saves.
static void BM_FlowEquivalenceDlxUncached(benchmark::State& state) {
  const DlxProof p;
  const Tech& t = Tech::generic90();
  const flow::DesyncResult dr =
      flow::desynchronize(p.nl, p.clk, t, p.opt.desync);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        verif::check_flow_equivalence(p.nl, p.clk, p.stim, t, dr, p.opt)
            .captures_compared);
  }
}
BENCHMARK(BM_FlowEquivalenceDlxUncached)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();

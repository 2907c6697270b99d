// Flow-equivalence checking — the correctness property of
// de-synchronization [Guernic et al., "Polychrony for system design"]:
// for every register, the sequence of values it stores is identical in the
// synchronous and the desynchronized circuit (time is abstracted away; the
// *flows* of data must match).
//
// Both implementations are built from the same FF netlist and simulated at
// gate level with identical per-round input vectors:
//  * sync: clock tree + free-running clock at the STA minimum period (plus
//    a small margin); capture stream of FF f = D pin sampled at every
//    rising edge of f's clock leaf.
//  * desync: the flow's output, self-timed; capture stream of FF f = D pin
//    of f's master latch sampled at every falling edge of its bank pulse.
//
// The checker compares the two streams per FF for `rounds` entries and also
// reports throughput (measured periods) and any setup violations — a
// mis-sized matched delay shows up here first (bench A4 exploits this).
//
// Horizons. The sync side runs `rounds + 2` clock periods. The desync side
// advances one predicted period at a time and stops as soon as the proof
// is complete: every master tap, counted at its *leaf* enable (so the
// enable tree's insertion delay is covered), has captured `rounds + 1`
// values, and the first master bank has captured 41 times. Power is
// measured over exactly that horizon. `desync_period` is the steady-state
// average over that bank's captures 8 to 40 (kWarmupRounds and
// kPeriodRounds in the .cpp), so it depends on neither `rounds` nor the
// last step's overshoot.
//
// Setup violations are found two ways over that horizon: the simulator's
// check on the paths the stimulus toggles, and a data-independent check
// that charges every bank closing edge with the STA worst-case arrival
// from each source bank's latest opening (and from the latest input
// vector). The second catches a matched delay too short for a path the
// stimulus would reach only after the compared rounds.
//
// Cost. A proof's set-up depends only on the design: the clocked copy
// with its clock tree, the STA period, both compiled simulator images,
// the capture taps, the worst-case setup table (flow::BankTiming), the
// predicted period (an MCR solve) and the register table. The engine
// overload caches it in the process engine (flow/engine.h: a sync
// reference per design, a proof set-up per coordinate), built by the
// first proof that needs it. A repeat proof of a coordinate hashes no
// netlist (the netlist memoizes its hash), builds nothing and costs its
// two simulation runs; on perfbench `verify` those are about nine tenths
// of it (docs/PERF.md, "A proof pays for its simulations"). The
// prebuilt-DesyncResult overload builds the set-up afresh on every call.
#pragma once

#include "core/desynchronizer.h"
#include "verif/testbench.h"

namespace desyn::verif {

struct FlowEqOptions {
  /// Captures compared per register.
  int rounds = 40;
  /// Flow options (unused by the prebuilt-DesyncResult overload).
  flow::DesyncOptions desync;
  /// Desync watchdog: report "made no progress (deadlock?)" once no
  /// capture the stop condition still needs has happened for this many ps.
  Ps round_timeout = 1'000'000;
};

struct FlowEqResult {
  bool equivalent = false;
  std::string mismatch;          ///< human-readable first difference
  size_t registers_compared = 0;
  size_t captures_compared = 0;
  Ps sync_period = 0;            ///< clock period used
  double desync_period = 0;      ///< measured steady-state round period
  /// Analytic cycle-time prediction: max cycle ratio of the timed control
  /// model of the desynchronized circuit this check built (saves callers
  /// re-running the whole flow just to predict).
  double predicted_period = 0;
  uint64_t sync_setup_violations = 0;
  /// Simulated violations plus worst-case ones (one per closing edge and
  /// source that misses setup); see the header comment.
  uint64_t desync_setup_violations = 0;
  /// Gate counts of the two implementations actually simulated (the sync
  /// one includes its clock tree, the desync one its controllers and
  /// matched-delay lines) — the sweep reports these per cell.
  size_t sync_cells = 0;
  size_t desync_cells = 0;
  /// Partition stats of the desynchronized implementation: control banks
  /// (incl. the environment pair), controller logic cells (C-elements,
  /// inverters, enable gates, ...) and matched-delay DELAY cells — the
  /// disjoint split of the control network the strategy sweep compares.
  size_t banks = 0;
  size_t controller_cells = 0;
  size_t delay_cells = 0;
  double sync_power_mw = 0;      ///< total dynamic power (simulated horizon)
  double desync_power_mw = 0;
  double sync_clock_power_mw = 0;   ///< clock-tree share
  double desync_ctl_power_mw = 0;   ///< controller+delay-line share
  bool operator==(const FlowEqResult&) const = default;
};

/// Build both implementations of `ff_netlist` and check flow equivalence
/// under `stim`. The FF netlist must be single-clock with `clock` as the
/// clock input. The flow and the proof set-up are served from
/// flow::Engine::process(tech). Vector index i drives the i-th non-clock
/// input of the netlist that built the design's cached sync reference —
/// the caller's, unless a canonically equal netlist with another port
/// order was proved first — and the same-named input of the
/// desynchronized one.
FlowEqResult check_flow_equivalence(const nl::Netlist& ff_netlist,
                                    nl::NetId clock, const Stimulus& stim,
                                    const cell::Tech& tech,
                                    const FlowEqOptions& opt = {});

/// The same check against an already-built desynchronized implementation
/// `dr` of `ff_netlist` (`opt.desync` is unused), with the set-up built
/// afresh through the same code and never cached; tests use it to check
/// mutants.
FlowEqResult check_flow_equivalence(const nl::Netlist& ff_netlist,
                                    nl::NetId clock, const Stimulus& stim,
                                    const cell::Tech& tech,
                                    const flow::DesyncResult& dr,
                                    const FlowEqOptions& opt = {});

}  // namespace desyn::verif

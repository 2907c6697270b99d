// The end-to-end de-synchronization flow (the paper's contribution):
//
//   synchronous FF netlist
//     -> latch-based conversion            (latchify)
//     -> bank adjacency + matched delays   (adjacency, STA-sized)
//     -> handshake controller network      (ctl, any protocol)
//     -> clock pins rewired to local latch enables; the global clock net
//        is left without load (the clock tree is simply never built).
//
// The result is flow-equivalent to the synchronous circuit: the i-th value
// captured by every (master) latch equals the i-th value captured by the
// corresponding flip-flop (verified by desyn::verif, for every protocol).
#pragma once

#include "core/adjacency.h"
#include "core/latchify.h"
#include "ctl/controller.h"

namespace desyn::flow {

struct DesyncOptions {
  /// How to cluster storage cells into control banks: a parsed CLI spec
  /// ("prefix:2", "auto:1.05", ...) or an explicit Partition via
  /// PartitionSpec::explicit_().
  PartitionSpec strategy;
  /// Safety factor applied to every STA-sized matched delay; plays the role
  /// of the synchronous flow's clock-uncertainty margin.
  double margin = 1.10;
  /// Optional per-destination-bank margin overrides (control-graph bank
  /// ids; see flow::Margins). Empty = uniform `margin` everywhere. Every
  /// entry must be >= 1 (or 0/negative = use the global); flow::
  /// optimize_margins produces these. Unlike the job counts this *changes
  /// the hardware*, so the engine hashes it into every stage key.
  std::vector<double> margins;
  /// Handshake protocol the controllers are synthesized for. Pulse is the
  /// historical default; the Fig. 4 family (Lockstep/Semi/Fully) yields
  /// level-sensitive enables with progressively more overlap.
  ctl::Protocol protocol = ctl::Protocol::Pulse;
  /// Accepted and ignored, like PartitionOptOptions::jobs: the Auto
  /// strategy's partition optimizer is serial.
  int opt_jobs = 1;
};

struct DesyncResult {
  nl::Netlist netlist;          ///< the desynchronized circuit
  Partition partition;          ///< the storage clustering actually used
  LatchifyResult banks;         ///< cell ids valid in `netlist`
  ctl::ControlGraph cg;         ///< control graph with matched delays
  ctl::ControllerNetwork ctrl;  ///< enables/round nets in `netlist`
  int env_snk = -1;
  int env_src = -1;
  ctl::Protocol protocol = ctl::Protocol::Pulse;  ///< protocol synthesized

  /// Enable net of bank `i` (latch pulse / transparency level).
  nl::NetId enable(int bank) const {
    return ctrl.enables[static_cast<size_t>(bank)];
  }
  nl::NetId env_src_enable() const { return enable(env_src); }
};

/// Run the flow on a copy of `ff_netlist` through the process-wide staged
/// engine (flow/engine.h): every stage is served from the content-addressed
/// artifact cache when its inputs are unchanged, and the result is
/// byte-identical to desynchronize_reference(). Throws MultiClockError on
/// multi-clock designs.
DesyncResult desynchronize(const nl::Netlist& ff_netlist, nl::NetId clock,
                           const cell::Tech& tech,
                           const DesyncOptions& opt = {});

/// The monolithic, uncached flow — the oracle the staged engine is pinned
/// against, the same way optimize_partition_reference() pins the partition
/// optimizer: for identical inputs the engine must emit byte-identical
/// Verilog (tests compare both on every circuit x protocol).
DesyncResult desynchronize_reference(const nl::Netlist& ff_netlist,
                                     nl::NetId clock, const cell::Tech& tech,
                                     const DesyncOptions& opt = {});

/// Steps 3+4 of the flow on an already-latchified netlist: synthesize the
/// controller network for `cg`, rewire every bank's storage control pins
/// from the clock to its local enable (masters flip LatchN->Latch, RAM CK
/// commits on the enable rise), grow distribution trees for high-fanout
/// enables and compensate their insertion skew on the handshake side.
/// Ends with nl.check(). Shared by desynchronize_reference() and the
/// engine's synth stage so the two cannot drift apart.
ctl::ControllerNetwork attach_controllers(nl::Netlist& nl,
                                          const LatchifyResult& banks,
                                          const ctl::ControlGraph& cg,
                                          ctl::Protocol protocol,
                                          const cell::Tech& tech);

/// The timed protocol model of a desynchronized circuit, ready for
/// max-cycle-ratio throughput prediction (bench A3): ctl::hardware_model's
/// MG, whose delays are quantized exactly as the hardware delay lines are.
pn::MarkedGraph timed_control_model(const DesyncResult& r,
                                    const cell::Tech& tech);

}  // namespace desyn::flow

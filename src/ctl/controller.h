// Gate-level controller synthesis for all four de-synchronization
// protocols.
//
// Pulse (the original shipped hardware): each bank gets one Muller
// C-element carrying a 2-phase *round token* signal R, plus a local pulse
// generator deriving the latch enable:
//
//   R_a = C( wire(R_n) for every neighbour n )      (inverted for even banks)
//   L_a = XOR(R_a, buf(buf(R_a)))                   (one pulse per toggle)
//
// where wire() is a matched-delay line for predecessors (sized to the worst
// combinational path, >= 1 DELAY cell) and a buffer for successors. Every
// neighbour pair alternates strictly; this is the local-clock-generation
// controller family of Varshavsky et al., the paper's reference [5].
//
// Lockstep / SemiDecoupled / FullyDecoupled (the paper's Fig. 4 family):
// synthesized by the classical Muller marked-graph construction. Every
// transition of the protocol MG (a+ / a- per bank, see ctl/protocol.h)
// becomes one C-element carrying a 2-phase signal that toggles once per
// firing; every MG arc u -> v becomes an input of v's C-element:
//
//   * unmarked arc: the source signal s_u directly,
//   * marked arc (initial token): s_u through an inverter,
//   * predecessor-side arcs additionally run through one shared
//     matched-delay line per transition (the paper's per-block matched
//     delay, sized to the worst incoming edge and credited with the
//     controller's response time),
//   * marked predecessor arcs are gated with a one-shot reset *kick*
//     C-element so the initial token matures through the delay line at
//     startup instead of appearing pre-settled — the first capture of a
//     bank therefore waits for its slowest incoming data path, exactly as
//     the timed MG model assumes for initial tokens.
//
// The latch enable is the level  EN_a = XNOR(s_{a+}, s_{a-})  for even
// banks (transparent at reset, like a master latch at CLK=0) and
// XOR(s_{a+}, s_{a-}) for odd banks: EN rises on a+ and falls on a-, so a
// bank is transparent exactly between its + and - events. For a live and
// safe MG this network is speed-independent at the control level (Muller's
// theorem); only the datapath carries timing assumptions (matched delays),
// the engineering contract of matched-delay de-synchronization.
//
// Initial states follow each protocol's canonical schedule (see
// first_fire_index): for the synchronous two-phase order [E- O+ O- E+],
// even banks start transparent and capture first; for Pulse's order
// [O+ O- E+ E-] all banks start opaque and odd banks pulse first. Flow
// equivalence against the synchronous reference is checked by the verif
// library for every protocol.
#pragma once

#include "cell/tech.h"
#include "ctl/protocol.h"
#include "netlist/builder.h"

namespace desyn::ctl {

struct ControllerNetwork {
  std::vector<nl::NetId> enables;       ///< per bank: its latch-enable net
  /// Per bank: the 2-phase token net — the round C-element output for
  /// Pulse, the a+ transition signal for the level protocols.
  std::vector<nl::NetId> rounds;
  /// Per bank, level protocols only: the a- transition signal (the capture
  /// acknowledge). Invalid ids under Pulse, whose single round net plays
  /// both roles. The flow uses rounds/falls to compensate enable-tree
  /// insertion delay on wide banks (see core/desynchronizer.cpp).
  std::vector<nl::NetId> falls;
  /// Per bank: the cells that shape its transparency window from the raw
  /// transition signals — the enable gate, plus Pulse's p1..p3
  /// pulse-generator chain. Enable-skew compensation leaves exactly these
  /// on the raw signals.
  std::vector<std::vector<nl::CellId>> window_cells;
  std::vector<nl::NetId> control_nets;  ///< every net the synthesis created
  std::vector<nl::CellId> cells;        ///< every cell the synthesis created
  size_t delay_units = 0;               ///< total DELAY cells inserted
};

/// Instantiate protocol `p` controllers for `cg` into the netlist behind
/// `b`. Matched delays are taken from the edges (already margin-adjusted by
/// the caller), aggregated per destination (the paper's per-block matched
/// delay), credited with the controller's own response time and quantized
/// to whole DELAY cells (minimum one).
ControllerNetwork synthesize_controllers(nl::Builder& b,
                                         const ControlGraph& cg, Protocol p,
                                         const cell::Tech& tech);

/// The consumer-side control-path delay (inverter + C-element + pulse XOR)
/// subtracted from every matched-delay line; exposed so the timed model
/// and Monte-Carlo slack size and credit lines identically to the hardware.
Ps controller_response_credit(const cell::Tech& tech);

/// The controller response time the timed model adds to every cross-bank
/// arc (marking inverter + C-element).
Ps controller_response_delay(const cell::Tech& tech);

/// The minimum transparency / pulse width every synthesis backend sizes
/// (three buffer delays, the pulse-generator chain) and the timed model
/// puts on the a+ -> a- alternation arcs.
Ps min_pulse_width(const cell::Tech& tech);

/// Number of whole DELAY cells the synthesis spends on a matched delay:
/// response credit subtracted, rounded up, minimum one. The single sizing
/// rule shared by the synthesis, the timed model and the benches — keep
/// every prediction in lockstep with the hardware.
int matched_delay_cells(Ps matched, const cell::Tech& tech);

/// The arcs the synthesized network implements: protocol_arcs(cg, p) plus,
/// for FullyDecoupled, a capture-ordering refinement arc per edge (see the
/// .cpp). hardware_model times these arcs; protocol_mg stays the model for
/// protocol-level analysis and conformance (the refinement only restricts
/// behavior, so hardware traces conform to both).
std::vector<ProtoArc> hardware_arcs(const ControlGraph& cg, Protocol p);

/// The timed model of the network synthesize_controllers() builds — the
/// paper's cycle-time prediction (Fig. 2) is the max cycle ratio of `mg`.
/// The one place a control graph becomes arc delays: the flow's predicted
/// period, the engine's MCR stage, the partition optimizer's scoring and
/// Monte-Carlo sampling all read it (the optimizer's certificate re-derives
/// quotient lines with the same matched_delay_cells and ctl::arc_delay).
struct HardwareModel {
  /// hardware_arcs(cg, p), each pred-side arc's matched_delay replaced by
  /// its consumer's synthesized line length (line_cells * delay_unit).
  std::vector<ProtoArc> arcs;
  std::vector<Ps> worst_in;     ///< per bank: worst incoming matched delay
  std::vector<int> line_cells;  ///< per bank: matched_delay_cells(worst_in)
  /// mg_from_arcs over `arcs` with controller_response_delay and
  /// min_pulse_width; bank b's transitions are 2b (+) and 2b+1 (-), and MG
  /// arc j is arcs[j].
  pn::MarkedGraph mg;
};
HardwareModel hardware_model(const ControlGraph& cg, Protocol p,
                             const cell::Tech& tech);

}  // namespace desyn::ctl

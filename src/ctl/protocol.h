// De-synchronization protocols: pairwise latch-bank synchronization patterns
// (paper Fig. 4) and their composition into the control marked graph of a
// whole netlist (paper Fig. 2).
//
// A *bank* is a set of latches sharing one control signal; banks are even
// (master, transparent at CLK=0 in the synchronous reference) or odd
// (slave, transparent at CLK=1). An *edge* a->b means data flows from the
// latches of a through combinational logic into the latches of b.
//
// Transitions: for every bank `a`, `a+` (becomes transparent) and `a-`
// (becomes opaque / captures). All protocols share the alternation arcs
// a+ -> a- -> a+. Per data edge a->b they add:
//
//   FullyDecoupled (the paper's overlapping model, Fig. 4):
//     a+ -> b-   (b captures only after a launched new data; carries the
//                 matched delay in the timed model)
//     b- -> a+   (a may overwrite only after b captured)
//   SemiDecoupled: FullyDecoupled plus the mirror arcs
//     a- -> b+ , b+ -> a-
//     (the mirrors forbid overlapping transparency on the edge: b opens
//      only after a closed)
//   Lockstep (non-overlapping; the emulated two-phase clock): SemiDecoupled
//   plus the same-sign rendezvous arcs
//     a+ -> b+ , a- -> b- , b+ -> a+ , b- -> a-
//
// Initial markings are derived mechanically from the canonical synchronous
// schedule (E- O+ | O- E+ per clock period): arc u->v is marked iff v's
// first firing precedes u's first firing. This reproduces the markings of
// Fig. 4 (e.g. a+ -> b- marked, b- -> a+ unmarked).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "pn/petri.h"

namespace desyn::ctl {

enum class Protocol {
  Lockstep,        ///< non-overlapping model: a toggles with all neighbours
  SemiDecoupled,   ///< fully-decoupled plus mirror arcs
  FullyDecoupled,  ///< the paper's Fig. 4 overlapping model
  Pulse,           ///< shipped hardware: 2-phase round tokens + local pulse
                   ///< generation (strict pairwise alternation; banks start
                   ///< opaque and pulse once per round)
};
const char* protocol_name(Protocol p);

/// All four protocols, least to most concurrent then Pulse — the one list
/// sweeps, benches and parametrized tests iterate so a new protocol cannot
/// silently drop out of coverage.
inline constexpr Protocol kAllProtocols[] = {
    Protocol::Lockstep, Protocol::SemiDecoupled, Protocol::FullyDecoupled,
    Protocol::Pulse};

/// Parse a protocol name as the CLI accepts it: "lockstep", "semi" /
/// "semi-decoupled", "fully" / "fully-decoupled", "pulse". Throws Error on
/// anything else.
Protocol parse_protocol(std::string_view name);

/// Position of a bank event in the protocol's canonical schedule; used to
/// derive initial markings (arc u->v is marked iff v fires first) and to
/// build canonical_schedule(). Lockstep/Semi/Fully use the synchronous
/// two-phase order [E- O+ | O- E+]; Pulse uses its pulse order
/// [O+ O- | E+ E-].
int first_fire_index(Protocol p, bool even, bool plus);

/// Bank-level control structure extracted from a latch-based netlist.
class ControlGraph {
 public:
  struct Bank {
    std::string name;
    bool even = false;  ///< transparent at CLK=0 (master)
  };
  struct Edge {
    int from = 0;
    int to = 0;
    Ps matched_delay = 0;  ///< worst combinational path from -> to
  };

  int add_bank(std::string name, bool even);
  /// Add a data edge; endpoints must have opposite parity. Duplicate edges
  /// are merged keeping the larger delay.
  int add_edge(int from, int to, Ps matched_delay = 0);

  size_t num_banks() const { return banks_.size(); }
  const Bank& bank(int i) const { return banks_[static_cast<size_t>(i)]; }
  const std::vector<Edge>& edges() const { return edges_; }
  std::vector<int> preds(int bank) const;
  std::vector<int> succs(int bank) const;
  int find_bank(std::string_view name) const;

  /// Structural sanity: parity alternation on every edge.
  void validate() const;

 private:
  std::vector<Bank> banks_;
  std::vector<Edge> edges_;
  /// (from << 32 | to) -> index into edges_: keeps add_edge O(1) so graph
  /// construction stays linear even for the optimizer's quotient rebuilds.
  std::unordered_map<uint64_t, int> edge_index_;
};

/// Transition pair of one bank in a protocol MG.
struct BankTrans {
  pn::TransId plus;
  pn::TransId minus;
};

/// One arc of a protocol marked graph, in bank-event terms. Both the MG
/// builder (protocol_mg) and the gate-level synthesis consume this
/// enumeration, so the model and the hardware derive structure and initial
/// markings from a single source of truth.
struct ProtoArc {
  int from = 0;              ///< source bank
  bool from_plus = false;    ///< source event sign
  int to = 0;                ///< target bank
  bool to_plus = false;      ///< target event sign
  bool marked = false;       ///< carries an initial token (target fires first)
  bool pred_side = false;    ///< producer-to-consumer arc: carries the edge's
                             ///< matched delay (synthesized as a delay line)
  bool alternation = false;  ///< the a+ <-> a- arc pair of a single bank
  Ps matched_delay = 0;      ///< the edge's matched delay (pred_side only)
};

/// Every arc of the protocol MG for (cg, p), alternation arcs first, then
/// per-edge arcs in cg.edges() order.
std::vector<ProtoArc> protocol_arcs(const ControlGraph& cg, Protocol p);

/// What delays an arc of a timed control MG (paper Fig. 2).
enum class ArcTiming : uint8_t {
  Pulse,  ///< a+ -> a- alternation: the pulse / minimum transparency width
  None,   ///< a- -> a+ alternation: no delay
  Line,   ///< pred side: the consumer's matched-delay line + the response
  Ctrl,   ///< succ side: the controller response alone
};

/// The timing class of `a`, from its alternation / pred_side flags.
constexpr ArcTiming arc_timing(const ProtoArc& a) {
  if (a.alternation) return a.from_plus ? ArcTiming::Pulse : ArcTiming::None;
  return a.pred_side ? ArcTiming::Line : ArcTiming::Ctrl;
}

/// The one arc-delay rule every timed model shares (the MG builder, the
/// partition optimizer's certificate, Monte-Carlo sampling): `line` is the
/// consumer's matched-delay line, `ctrl` its controller response, `pulse`
/// the source bank's pulse width.
constexpr Ps arc_delay(ArcTiming t, Ps line, Ps ctrl, Ps pulse) {
  switch (t) {
    case ArcTiming::Pulse: return pulse;
    case ArcTiming::None: return 0;
    case ArcTiming::Line: return line + ctrl;
    case ArcTiming::Ctrl: return ctrl;
  }
  return 0;
}

/// Build a timed marked graph from an explicit arc list — the one
/// arcs-to-MG translation (transition naming: bank b's transitions are 2b
/// (+) and 2b+1 (-); marking; delays by arc_delay with each arc's
/// matched_delay as the line) shared by protocol_mg and
/// ctl::hardware_model so model and hardware predictions cannot drift
/// apart.
pn::MarkedGraph mg_from_arcs(std::string name, const ControlGraph& cg,
                             std::span<const ProtoArc> arcs, Ps ctrl_delay,
                             Ps pulse_width);

/// Build the (optionally timed) protocol marked graph. `ctrl_delay` is the
/// controller response time added to every cross-bank arc; matched delays
/// from the edges are added to predecessor-side arcs. For Pulse,
/// `pulse_width` annotates the a+ -> a- alternation arcs (the local pulse).
/// In debug builds (!NDEBUG) the result is checked to admit its own
/// canonical schedule, so a broken first_fire_index/marking derivation
/// fails at construction time rather than as a downstream conformance or
/// deadlock mystery.
pn::MarkedGraph protocol_mg(const ControlGraph& cg, Protocol p,
                            Ps ctrl_delay = 0, Ps pulse_width = 0);

/// Transition handles per bank, in bank order ("<name>+"/"<name>-").
std::vector<BankTrans> bank_transitions(const pn::MarkedGraph& mg,
                                        const ControlGraph& cg);

/// The protocol's canonical schedule as a firing sequence: `periods`
/// repetitions of the four event batches in first_fire_index() order.
/// Every protocol MG must admit its own canonical schedule; for
/// Lockstep/Semi/Fully this is the synchronous schedule itself.
std::vector<pn::TransId> canonical_schedule(const pn::MarkedGraph& mg,
                                            const ControlGraph& cg,
                                            Protocol p, int periods);

}  // namespace desyn::ctl

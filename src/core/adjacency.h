// Step 2+3 prerequisites: extract the bank-level control graph of a
// latchified netlist and size the matched delays from static timing.
//
// An edge a->b exists when combinational logic connects bank a's storage
// outputs to bank b's data inputs; its matched delay is
//
//   margin * (worst STA path from a's outputs, launched at the latch
//             propagation delay, to b's data pins  +  setup)
//
// BankTiming times those launch->capture paths (the one place that does),
// and timed_edges applies the margin rule. The flow, its ECO re-timing,
// lint's timing pass (on the final netlist) and flow equivalence's
// worst-case setup check all read them.
//
// The environment is modeled as a bank pair: env_src (odd) feeds every bank
// whose input cone reaches a primary input (delay = worst PI path) and
// env_snk (even) absorbs every bank whose output cone reaches a primary
// output; env_snk -> env_src closes the loop. This guarantees every bank
// has a predecessor and a successor, which the controller network requires.
#pragma once

#include <span>

#include "cell/tech.h"
#include "core/latchify.h"
#include "ctl/protocol.h"
#include "sta/sta.h"

namespace desyn::flow {

struct AdjacencyResult {
  ctl::ControlGraph cg;  ///< banks in LatchifyResult order, then env pair
  int env_snk = -1;
  int env_src = -1;
};

/// Matched-delay safety margins. The flow historically applied one global
/// scalar to every STA-sized matched delay; flow::optimize_margins (flow/
/// mc.h) emits a per-destination-bank vector instead — every matched delay
/// into bank `b` is scaled by of(b). Indexing follows the control-graph
/// bank ids (banks in LatchifyResult order, then the env pair); a bank
/// with no entry, or a non-positive one, falls back to the global factor.
/// A plain double converts implicitly, so single-margin callers read as
/// before.
struct Margins {
  double global = 1.10;
  std::vector<double> per_bank;

  Margins() = default;
  Margins(double g) : global(g) {}  // NOLINT(google-explicit-constructor)
  Margins(double g, std::vector<double> pb)
      : global(g), per_bank(std::move(pb)) {}

  double of(int bank) const {
    size_t b = static_cast<size_t>(bank);
    return bank >= 0 && b < per_bank.size() && per_bank[b] > 0 ? per_bank[b]
                                                               : global;
  }
};

/// Worst-case launch->capture timing between the banks of `lr`: one sparse
/// STA propagation per source bank (or from the primary inputs), reduced
/// to the worst data-pin arrival per capturing bank through a capture
/// index (the banks whose latch D / RAM write pins watch each net), so a
/// propagation costs O(touched nets).
class BankTiming {
 public:
  /// `insertion` (per cell id; empty = 0 for every cell): a storage cell
  /// launches later and captures earlier by its entry, and a cell whose
  /// entry is negative takes no part.
  BankTiming(const nl::Netlist& nl, const LatchifyResult& lr,
             const cell::Tech& tech, std::vector<Ps> insertion = {});

  /// The paths one launch reaches. Valid until the next from_*() call.
  struct Reach {
    /// (capturing bank, worst data-pin arrival) in bank order; the
    /// launching bank itself is never listed.
    std::vector<std::pair<int, Ps>> banks;
    Ps po = sta::kUnreached;  ///< worst primary-output arrival
  };
  /// Launch from bank `s`: latch Q and RAM read data at the cell's
  /// propagation delay (plus its insertion).
  const Reach& from_bank(size_t s);
  /// Launch at 0 from every primary input except `clock` (an invalid id
  /// excludes none).
  const Reach& from_inputs(nl::NetId clock);

 private:
  struct Capture {
    int bank;
    Ps ins;  ///< smallest insertion among the bank's cells on this net
  };
  Ps insertion_of(nl::CellId c) const {
    return insertion_.empty() ? 0 : insertion_[c.value()];
  }
  const Reach& propagate(int src);

  const nl::Netlist& nl_;
  const LatchifyResult& lr_;
  sta::Sta sta_;
  std::vector<Ps> insertion_;
  std::vector<std::vector<Capture>> captures_;  ///< per net
  sta::Sta::SparseScratch scratch_;
  std::vector<sta::Source> sources_;
  std::vector<Ps> worst_;  ///< per bank, kNone between propagations
  std::vector<int> dests_;
  Reach reach_;
};

/// The STA-timed data edges of the control graph of `lr`, in extraction
/// order, with bank ids as in AdjacencyResult (env_snk = lr.banks.size(),
/// env_src = env_snk + 1). Per source bank: every capturing bank `to` at
/// margins.of(to) * (arrival + setup) (FF setup for a bank holding a RAM,
/// else latch setup), then env_snk at margins.of(env_snk) * arrival when
/// an odd bank reaches a primary output; last env_src -> every bank the
/// primary inputs but `clock` reach. `sources` (indexed by
/// bank id, env_src standing for the inputs; empty = all) limits which
/// sources are timed.
std::vector<ctl::ControlGraph::Edge> timed_edges(
    const nl::Netlist& nl, const LatchifyResult& lr, nl::NetId clock,
    const cell::Tech& tech, const Margins& margins,
    std::span<const char> sources = {});

/// `protocol` only affects RAM-bearing designs: the ordering edges that
/// keep a RAM's write commit inside the window its readers and command
/// sources expect differ between the pulse and the level-enable protocols
/// (see the read-before-write and command-stability notes in the .cpp).
AdjacencyResult extract_control_graph(const nl::Netlist& nl,
                                      const LatchifyResult& lr,
                                      nl::NetId clock,
                                      const cell::Tech& tech,
                                      const Margins& margins,
                                      ctl::Protocol protocol =
                                          ctl::Protocol::Pulse);

/// ECO re-extraction — the flow engine's cone-limited STA delta.
///
/// Precondition: `nl` is *structurally identical* to the netlist that
/// produced `prev` under the same (lr, clock, tech, margin, protocol):
/// same nets, cells, names, pin connectivity and bank membership; only
/// per-cell fields (kind within the same pin structure, init, payload
/// contents) differ, and `changed` lists every cell whose fields do.
///
/// Only source banks whose combinational output cone contains a changed
/// cell re-run sparse STA propagation (plus the primary-input propagation
/// when a changed cell sits in a PI cone); every other edge delay is
/// copied from `prev`. Because structure is unchanged, reachability — and
/// hence the edge set and its deterministic order — is unchanged, so the
/// result is byte-identical to a full extract_control_graph on `nl`
/// (internally asserted: every previously-timed edge of a recomputed
/// source must be re-timed, and vice versa).
///
/// `banks_recomputed` (optional) reports how many source-bank
/// propagations actually ran — the engine's ECO counters and bench_flow
/// surface it.
AdjacencyResult extract_control_graph_eco(
    const nl::Netlist& nl, const LatchifyResult& lr, nl::NetId clock,
    const cell::Tech& tech, const Margins& margins, ctl::Protocol protocol,
    const AdjacencyResult& prev, std::span<const nl::CellId> changed,
    size_t* banks_recomputed = nullptr);

/// The control graph of a *coarser* partition, derived from a finer one
/// without re-running timing: `bank_map[i]` is the quotient bank of fine
/// bank `i` (parity must be preserved; map the fine env pair onto the
/// quotient env pair), `banks` the quotient banks in order. Edges mapping
/// to the same quotient pair merge keeping the larger matched delay —
/// exactly what STA extraction of the merged banks would produce, since
/// arrival times are max-plus. This is the optimizer's cold re-scoring
/// hook: only the merged banks' rows change, the rest of the graph is
/// copied.
ctl::ControlGraph quotient_control_graph(
    const ctl::ControlGraph& fine, std::span<const int> bank_map,
    std::span<const ctl::ControlGraph::Bank> banks);

/// Incrementally maintained quotient of a per-flip-flop control graph
/// under a mutable clustering of its fine groups — the partition
/// optimizer's candidate-scoring substrate. Where quotient_control_graph
/// re-derives the whole quotient (O(V+E)), this class keeps the current
/// clustering and applies each candidate merge with an undo log: a merge
/// collapses two clusters (relabelling the dropped cluster's members and
/// max-combining the per-destination worst-in delays exactly as the
/// hardware line sizing aggregates them). undo() reverts the latest merge,
/// so a tentative candidate costs O(members), not O(V+E).
///
/// Layout contract (the per-flip-flop extraction): fine group `g` owns
/// banks 2g (even/master) and 2g+1 (odd/slave); the env pair env_snk
/// (even) / env_src (odd) sits at banks 2G, 2G+1 and never merges.
class IncrementalQuotient {
 public:
  /// `mergeable[g]` marks the FF groups; RAM singletons never merge.
  IncrementalQuotient(const ctl::ControlGraph& fine,
                      std::vector<char> mergeable);

  size_t num_groups() const { return G_; }
  size_t num_live() const { return live_; }
  int cluster_of(int g) const { return cluster_[static_cast<size_t>(g)]; }
  bool live(int c) const { return !members_[static_cast<size_t>(c)].empty(); }
  bool mergeable(int c) const { return mergeable_[static_cast<size_t>(c)]; }
  /// Fine groups of cluster `c`, in merge-arrival order (not sorted).
  const std::vector<int>& members(int c) const {
    return members_[static_cast<size_t>(c)];
  }

  /// Raw (pre-quantization) worst matched delay into the even/odd bank of
  /// live cluster `c`: the per-destination aggregation the hardware
  /// matched-delay sizing performs, maintained under merges as a max.
  Ps worst_in(int c, bool even) const {
    return wi_[2 * static_cast<size_t>(c) + (even ? 0 : 1)];
  }
  /// Static per-fine-bank worst-in (env banks included).
  Ps fine_worst_in(int bank) const {
    return fine_wi_[static_cast<size_t>(bank)];
  }

  /// Merge live mergeable cluster `drop` into live mergeable `keep`.
  void merge(int keep, int drop);
  /// Revert the most recent un-undone merge (LIFO).
  void undo();

  /// Fine-bank -> quotient-bank map of the current clustering: quotient
  /// indices in first-seen fine-group order, env pair last (the order
  /// quotient_control_graph consumers expect).
  std::vector<int> bank_map(std::vector<ctl::ControlGraph::Bank>* banks) const;
  /// Materialize the current quotient as a validated ControlGraph — byte
  /// for byte what a from-scratch quotient_control_graph build produces.
  ctl::ControlGraph materialize() const;

 private:
  struct Delta {
    int keep = -1, drop = -1;
    size_t keep_size = 0;       ///< members_[keep] size before
    Ps old_wi[2] = {0, 0};      ///< keep's worst-in pair before
  };

  const ctl::ControlGraph& fine_;
  size_t G_ = 0;
  size_t live_ = 0;
  std::vector<int> cluster_;              ///< per fine group
  std::vector<std::vector<int>> members_; ///< per cluster label
  std::vector<char> mergeable_;
  std::vector<Ps> fine_wi_;               ///< per fine bank (static)
  std::vector<Ps> wi_;                    ///< per cluster bank [2c + odd]
  std::vector<Delta> log_;
};

}  // namespace desyn::flow

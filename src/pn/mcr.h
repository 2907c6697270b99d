// Timed marked-graph performance analysis.
//
// For a strongly-connected live MG with arc delays, the asymptotic period
// (time between successive firings of any transition in the steady state)
// equals the maximum cycle ratio  max_C  D(C) / T(C)  over directed cycles
// C, where D is total delay and T total tokens. This predicts the cycle
// time of a desynchronized circuit analytically; bench A3 cross-checks it
// against event-driven simulation.
//
// One algorithm computes it, the certificate climb of McrBatch::Block:
// max_cycle_ratio runs it once from zero potentials, and McrBatch runs it
// for every Monte-Carlo sample from its predecessor's potentials. Delays
// are integer picoseconds and tokens small integers, so every cycle ratio
// is an exact fraction, and the climb compares ratios and potentials
// exactly, in integers (docs/PERF.md). The independent oracle the tests
// and bench_mcr check it against lives in tests/mcr_reference.h.
#pragma once

#include <span>

#include "pn/petri.h"

namespace desyn::pn {

struct CycleRatioResult {
  double ratio = 0;               ///< asymptotic period (ps per token)
  std::vector<TransId> cycle;     ///< critical cycle: transitions in order
  /// Arcs of the critical cycle: cycle_arcs[i] runs from cycle[i] to
  /// cycle[(i+1) % size]. Empty iff the graph has no cycle at all. The
  /// cycle is genuine: cycle_ratio(flatten(mg).view(), cycle_arcs) == ratio.
  std::vector<ArcId> cycle_arcs;
};

/// Maximum cycle ratio of a live MG (max_cycle_ratio of its flatten()).
/// Graphs without any cycle yield ratio 0 and an empty cycle.
CycleRatioResult max_cycle_ratio(const MarkedGraph& mg);

// ---------------------------------------------------------------------------
// Flat solver interface
// ---------------------------------------------------------------------------

/// Non-owning struct-of-arrays view of a timed marked graph: arc `j` runs
/// from node `from[j]` to `to[j]` carrying `tokens[j]` initial tokens and
/// `delay[j]` ps. Node and arc indices double as the TransId/ArcId values
/// of the returned CycleRatioResult. Nodes without arcs are allowed (a
/// caller that merges transitions in place leaves holes); self-loops are
/// allowed; parallel arcs are allowed (the larger-delay one dominates).
struct McrArcs {
  uint32_t num_nodes = 0;
  std::span<const uint32_t> from;
  std::span<const uint32_t> to;
  std::span<const int32_t> tokens;
  std::span<const Ps> delay;
  size_t num_arcs() const { return from.size(); }
};

/// Owning flat copy of a MarkedGraph: node i is TransId(i), arc j ArcId(j).
struct McrFlat {
  uint32_t num_nodes = 0;
  std::vector<uint32_t> from, to;
  std::vector<int32_t> tokens;
  std::vector<Ps> delay;
  McrArcs view() const { return {num_nodes, from, to, tokens, delay}; }
};
McrFlat flatten(const MarkedGraph& mg);

/// Delay/token ratio of the closed cycle formed by `arcs` (consecutive arcs
/// must chain head-to-tail and wrap around): one division of the exact
/// integer sums. Asserts the cycle carries at least one token, as liveness
/// guarantees.
double cycle_ratio(const McrArcs& g, std::span<const ArcId> arcs);

/// Maximum cycle ratio of a flat graph: one certificate climb (McrBatch's
/// nominal solve) from zero potentials, at the best 1- or 2-arc cycle's
/// ratio, or at -1/1 when the graph has none. Polls cancel_point() before
/// it relaxes and once per relaxation pass.
CycleRatioResult max_cycle_ratio(const McrArcs& g);

/// What McrBatch did with each sample it solved.
struct McrBatchStats {
  size_t certified = 0;  ///< the dictionary argmax certified as it stood
  size_t repaired = 0;   ///< certified after the relaxation found better cycles

  McrBatchStats& operator+=(const McrBatchStats& o) {
    certified += o.certified;
    repaired += o.repaired;
    return *this;
  }
};

/// Structure-shared max-cycle-ratio solver: the cold solve and the
/// Monte-Carlo batch.
///
/// A variation sweep solves the *same* marked graph under hundreds of
/// sampled delay assignments; only the delays change. McrBatch runs the
/// delay-independent analysis once at construction — Tarjan SCCs, the
/// intra-SCC arc CSR and its predecessor index, and a dictionary of every
/// 1- and 2-arc cycle (on handshake control graphs the critical cycle is
/// almost always one of these local loops). Every solve is then one
/// certificate climb:
///
///   1. Score the dictionary under the row's delays (exact integer D/T
///      comparison) and take the best ratio as lambda = D/T, or -1/1 when
///      the dictionary is empty (every cycle of a live graph weighs D + T
///      >= 1 there, zero delays included).
///   2. Relax the node potentials P (integers at the scale T) by a FIFO
///      worklist until every intra-SCC arc a = v -> w satisfies
///      P[v] >= P[w] + T * delay(a) - D * tokens(a). Summing it around any
///      cycle bounds every cycle ratio by lambda, and lambda is a cycle's
///      ratio, so the settled certificate pins the exact answer.
///   3. Each raise records the arc it came through. After two passes over
///      the nodes, and once per pass after that, the raise arcs are
///      searched for a cycle. Every such cycle weighs more than zero, i.e.
///      its ratio is strictly above lambda: it joins the block's
///      dictionary, lambda rises to its exact ratio, and the relaxation
///      goes on from the current potentials (every node off the worklist
///      still satisfies its arcs at the larger lambda). The potentials
///      keep their scale while the new reduced denominator divides it, and
///      are otherwise rescaled by floor(P * T_new / T_old), which keeps
///      satisfied arcs satisfied.
///
/// Termination. Fix lambda and let W be the largest arc weight. A raise
/// arc v -> w keeps P[v] <= P[w] + weight from the raise on, because P[w]
/// only rises, so along a raise-arc chain that ends at a node not raised
/// since lambda last changed (whose potential has not moved) every
/// potential is at most that node's value plus n * W. Potentials rise in
/// integer steps, so a relaxation that keeps raising soon lifts some node
/// above every such bound; from then on that node's chain cannot end, and
/// a raise-arc cycle exists at every moment. The next per-pass search
/// therefore finds it. Each found cycle raises lambda strictly to the
/// ratio of a simple cycle, and there are finitely many simple cycles, so
/// lambda stops rising and the relaxation at the last lambda settles. The
/// argument gives no polynomial bound; on the bench models a cold solve
/// settles within a few passes (docs/PERF.md).
///
/// Overflow. The constructor asserts n^2 * max_delay * max_tokens < 1e15
/// on the nominal delays: at a reduced lambda D/T (D <= n * max_delay,
/// T <= n * max_tokens) that keeps a chain of n arc weights below 2e15.
/// Every raise search also asserts the potentials below INT64_MAX / 4, so
/// a relaxation that outgrows 64 bits stops at an assertion instead of
/// wrapping.
///
/// The constructor solves the nominal delays this way from zero
/// potentials (max_cycle_ratio is that solve). A sample is "certified"
/// when step 3 found nothing, "repaired" otherwise.
///
/// Parallelism contract: samples are processed in fixed blocks of kBlock; a
/// block's first sample starts from the nominal solve and later samples
/// reuse certificate state within the block only, so every block is
/// independent of every other. A caller solves a block with one Block, on
/// the worker that owns it; solve_all runs the blocks as the granules of
/// one parallel_for (base/parallel.h) and writes results by sample index —
/// byte-identical output at any `jobs` count, and identical to jobs = 1.
class McrBatch {
 public:
  /// Samples per certificate block (also the parallel work granule). Each
  /// block restarts its certificate chain from the nominal solve; a larger
  /// block carries learned cycles further but leaves fewer independent
  /// granules for `jobs`.
  static constexpr size_t kBlock = 64;

  /// Copies the structure (from/to/tokens) and runs the delay-independent
  /// analysis once; `g.delay` is the nominal assignment, solved once here
  /// so that its potentials and critical cycle start every block.
  explicit McrBatch(const McrArcs& g);

  uint32_t num_nodes() const { return num_nodes_; }
  size_t num_arcs() const { return from_.size(); }

  /// The solver state of one sample block: feed it the block's delay rows
  /// in sample order, at most kBlock of them. The first row is certified
  /// from the nominal solve, every later one from its predecessor.
  class Block {
   public:
    explicit Block(const McrBatch& batch);

    /// Solve the next row (num_arcs() delays) into `*out`, reusing its
    /// buffers. The cycle is genuinely critical for the row.
    void solve(std::span<const Ps> row, CycleRatioResult* out);
    const McrBatchStats& stats() const { return stats_; }

   private:
    friend class McrBatch;

    /// Exact argmax of the dictionary under `row` into best_*, and lambda
    /// set to its ratio; lambda = -1/1 and best_arcs_ empty when the
    /// dictionary is empty.
    void best_cycle(std::span<const Ps> row);
    /// Make d/t lambda. The potentials keep their scale best_t_ when it is
    /// a multiple of the reduced denominator, and are rescaled to that
    /// denominator otherwise; best_d_ / best_t_ is lambda at the scale.
    void set_lambda(int64_t d, int64_t t);
    /// Certificate relaxation at the dictionary's best ratio, climbing to
    /// every better cycle its raise arcs close; true when it climbed.
    bool certify(std::span<const Ps> row);
    /// The best cycle among the raise arcs (each raised node's arc to the
    /// node it was raised from) into cycle_, cycle_d_ and cycle_t_; false
    /// when they close no cycle.
    bool raise_cycle(std::span<const Ps> row);
    /// Append a cycle to the learned dictionary.
    void learn(std::span<const uint32_t> cycle);

    const McrBatch& batch_;
    McrBatchStats stats_;
    /// Learned cycles beyond the seeds: arcs learned_arc_[learned_off_[i]
    /// .. learned_off_[i + 1]), token sum learned_tok_[i].
    std::vector<uint32_t> learned_off_{0}, learned_arc_;
    std::vector<int64_t> learned_tok_;
    /// The current best cycle: its arcs and its ratio best_d_ / best_t_,
    /// exact, at the potentials' scale best_t_.
    std::vector<uint32_t> best_arcs_;
    int64_t best_d_ = 0, best_t_ = 1;
    std::vector<int64_t> dcert_;  ///< certificate potentials, scaled by best_t_
    std::vector<uint32_t> queue_;  ///< relaxation worklist (FIFO)
    std::vector<uint8_t> in_queue_;
    /// The arc that last raised each node since lambda last changed
    /// (kNoArc: none), and the raise-cycle search's visit stamps.
    std::vector<uint32_t> raised_by_;
    std::vector<uint32_t> visit_;
    uint32_t walk_ = 0;
    /// The last cycle raise_cycle found, with its delay and token sums.
    std::vector<uint32_t> cycle_;
    int64_t cycle_d_ = 0, cycle_t_ = 1;
  };

  /// Solve all `samples` rows of the row-major samples x num_arcs() delay
  /// matrix, one Block per kBlock rows. Every returned cycle is genuinely
  /// critical for its row (cycle_ratio(row view, cycle_arcs) == ratio),
  /// and its ratio equals the oracle's (property-tested in test_pn.cpp).
  /// `stats`, when given, receives the blocks' sums.
  std::vector<CycleRatioResult> solve_all(std::span<const Ps> delays,
                                          size_t samples, int jobs = 1,
                                          McrBatchStats* stats = nullptr) const;

 private:
  friend CycleRatioResult max_cycle_ratio(const McrArcs& g);

  uint32_t num_nodes_ = 0;
  std::vector<uint32_t> from_, to_;
  std::vector<int32_t> tokens_;
  /// Intra-SCC out-arcs of each node v, arc ids ascending:
  /// csr_arc_[csr_off_[v] .. csr_off_[v + 1]). Arcs between components lie
  /// on no cycle and never bound the ratio.
  std::vector<uint32_t> csr_off_, csr_arc_;
  /// Every 1- and 2-arc cycle of the graph — the structural seed of each
  /// block's critical-cycle dictionary: arcs seed_a_[i] and seed_b_[i],
  /// grouped by token sum (group g is [seed_group_off_[g],
  /// seed_group_off_[g + 1]), token sum seed_group_tok_[g]). A self-loop a
  /// is the pair (a, a): counting it twice doubles its delay and tokens
  /// alike, so its ratio is unchanged.
  std::vector<uint32_t> seed_a_, seed_b_;
  std::vector<uint32_t> seed_group_off_;
  std::vector<int64_t> seed_group_tok_;
  /// The nominal solve's critical cycle (canonical; empty when the graph
  /// has none) and settled potentials, scaled by the cycle's token count.
  std::vector<uint32_t> nominal_cycle_;
  std::vector<int64_t> nominal_d_;
  /// The heads and token counts of the intra-SCC arcs, in csr_arc_ order,
  /// for the relaxation.
  std::vector<uint32_t> cand_to_;
  std::vector<int32_t> cand_tok_;
  /// Tails of the intra-SCC arcs indexed by *head* node: when a relaxation
  /// raises d[v], exactly the nodes pred_from_[pred_off_[v]..pred_off_[v+1])
  /// can newly violate the certificate inequality.
  std::vector<uint32_t> pred_off_, pred_from_;
};

/// Earliest-firing schedule: fire time of the k-th firing (k = 0..rounds-1)
/// of every transition under the greedy timed semantics (a transition fires
/// as soon as every input arc holds a token whose availability time has
/// passed). Requires liveness. Result[t][k] is the k-th firing time of
/// transition t.
std::vector<std::vector<Ps>> earliest_schedule(const MarkedGraph& mg,
                                               int rounds);

}  // namespace desyn::pn

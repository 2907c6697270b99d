// Timed marked-graph performance analysis.
//
// For a strongly-connected live MG with arc delays, the asymptotic period
// (time between successive firings of any transition in the steady state)
// equals the maximum cycle ratio  max_C  D(C) / T(C)  over directed cycles
// C, where D is total delay and T total tokens. This predicts the cycle
// time of a desynchronized circuit analytically; bench A3 cross-checks it
// against event-driven simulation.
//
// max_cycle_ratio is Howard's policy iteration, near-linear in practice;
// McrBatch solves many delay assignments of one graph for Monte-Carlo
// sweeps. Delays are integer picoseconds and tokens small integers, so
// every cycle ratio is an exact fraction, and both solvers compare ratios
// and potentials exactly, in integers (docs/PERF.md). The independent
// oracle the tests and bench_mcr check them against lives in
// tests/mcr_reference.h.
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

/// Maximum cycle ratio via Howard's policy iteration, run independently on
/// every strongly-connected component (arcs not on any cycle never bound
/// the ratio). Requires a live MG; graphs without any cycle yield ratio 0
/// and an empty cycle.
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

/// Maximum cycle ratio of a flat graph: Howard's policy iteration from a
/// cold policy (every node's first intra-SCC out-arc). Each node's ratio is
/// a (delay, tokens) pair reduced by its gcd and compared by exact
/// cross-multiplication, and its potential an integer scaled by that
/// ratio's denominator, so every policy improvement is strict. A
/// Gauss-Seidel pass runs first; a component whose in-place propagation
/// cycles restarts as plain Jacobi iteration, which converges.
/// max_cycle_ratio(MarkedGraph) and McrBatch::solve_one_cold are this
/// solve.
CycleRatioResult max_cycle_ratio(const McrArcs& g);

/// Per-solve working memory of a Howard solve.
///
/// The solve decomposes into two phases with different data dependence:
/// build_structure() (out-arc CSR, Tarjan SCCs, intra-SCC policy-candidate
/// CSR, members by component) reads only the arc *structure* — never a
/// delay — while init_policy_cold()/howard() read the delays. McrBatch
/// exploits the split: one structure build amortized over every
/// Monte-Carlo sample.
class McrScratch {
 public:
  McrScratch() = default;

 private:
  friend CycleRatioResult max_cycle_ratio(const McrArcs& g);
  friend class McrBatch;

  /// Phases of a solve (bodies in mcr.cpp). build_structure returns the
  /// component count; howard requires the structure to describe `g` and
  /// policy_ to hold an intra-SCC out-arc for every SCC node.
  int build_structure(const McrArcs& g);
  void init_policy_cold(const McrArcs& g);
  CycleRatioResult howard(const McrArcs& g, int comps);

  // Tarjan + CSR adjacency + Howard state, sized on first use and reused.
  std::vector<uint32_t> csr_off_, csr_arc_;        // intra-SCC out-arcs
  std::vector<uint32_t> out_off_, out_arc_;        // all out-arcs (Tarjan)
  std::vector<int> comp_;
  std::vector<uint32_t> index_, low_, stack_, members_, comp_off_;
  std::vector<uint8_t> on_stack_, state_;
  std::vector<uint32_t> policy_, path_;
  /// Each node's ratio rn_/rd_ (reduced, rd_ > 0) and its potential, scaled
  /// by rd_.
  std::vector<int64_t> rn_, rd_, d_;
  std::vector<uint32_t> cycle_;
};

/// What McrBatch did with each sample it solved.
struct McrBatchStats {
  size_t certified = 0;  ///< the dictionary argmax certified as it stood
  size_t repaired = 0;   ///< certified after the relaxation found better cycles
  size_t howard = 0;     ///< Howard solves: pop-budget overruns

  McrBatchStats& operator+=(const McrBatchStats& o) {
    certified += o.certified;
    repaired += o.repaired;
    howard += o.howard;
    return *this;
  }
};

/// Structure-shared batch Howard solver for Monte-Carlo throughput sweeps.
///
/// A variation sweep solves the *same* marked graph under hundreds of
/// sampled delay assignments; only the delays change. McrBatch runs the
/// delay-independent analysis once at construction — CSR builds, Tarjan
/// SCCs, and a dictionary of every 1- and 2-arc cycle (on handshake control
/// graphs the critical cycle is almost always one of these local loops) —
/// and then solves most samples without running Howard at all:
///
///   1. Score the dictionary under the sample's delays (exact integer D/T
///      comparison) and take the best ratio as the candidate lambda.
///   2. Repair the previous sample's node potentials by worklist
///      relaxation until every intra-SCC candidate arc satisfies
///      P[v] >= P[w] + T * delay - D * tokens — the very inequality
///      Howard's convergence establishes — where lambda = D/T and the
///      potentials P are integers at the scale T. Summing it around any
///      cycle bounds every cycle ratio by lambda, so the certificate pins
///      the exact answer. The scale stays put while the reduced
///      denominator of lambda divides it; otherwise the potentials are
///      rescaled to that denominator by floor(P * T_new / T_old), which
///      keeps satisfied arcs satisfied.
///
/// The relaxation records the arc that raised each node. When the
/// critical cycle is not in the dictionary, the potentials rise around it
/// and those arcs close a cycle whose ratio is strictly above lambda: the
/// cycle joins the block's dictionary, lambda rises to its ratio, and the
/// relaxation goes on from the current potentials. Only a sample that
/// exhausts the pop budget falls back to a warm-started Howard solve.
/// Results are bit-equal to independent cold solves either way
/// (property-tested).
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
    enum class Cert { Failed, Certified, Repaired };
    /// Exact argmax of the dictionary under `row` into best_*; false when
    /// the dictionary is empty.
    bool best_cycle(std::span<const Ps> row);
    /// Make d/t lambda. The potentials keep their scale best_t_ when it is
    /// a multiple of the reduced denominator, and are rescaled to that
    /// denominator otherwise; best_d_ / best_t_ is lambda at the scale.
    void set_lambda(int64_t d, int64_t t);
    /// Certificate relaxation at the dictionary's best ratio, repairing it
    /// with every better cycle its raise arcs close; Failed when it runs
    /// out of its pop budget.
    Cert certify(std::span<const Ps> row);
    /// The best cycle among the raise arcs (each raised node's arc to the
    /// node it was raised from) into cycle_, cycle_d_ and cycle_t_; false
    /// when they close no cycle.
    bool raise_cycle(std::span<const Ps> row);
    /// Append a cycle to the learned dictionary.
    void learn(std::span<const uint32_t> cycle);
    /// Whether a canonical cycle is a seed or already learned.
    bool known(std::span<const ArcId> cycle) const;

    const McrBatch& batch_;
    McrScratch s_;
    bool cold_ = true;  ///< s_ holds no Howard policy yet
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
  /// bit-equal to solve_one_cold on the same row (property-tested in
  /// test_pn.cpp). `stats`, when given, receives the blocks' sums.
  std::vector<CycleRatioResult> solve_all(std::span<const Ps> delays,
                                          size_t samples, int jobs = 1,
                                          McrBatchStats* stats = nullptr) const;

  /// Independent per-sample oracle: a cold max_cycle_ratio of one row,
  /// sharing nothing with the batch machinery (also the baseline the
  /// bench_mc speedup is measured against).
  CycleRatioResult solve_one_cold(std::span<const Ps> delay_row) const;

 private:
  McrArcs row_view(std::span<const Ps> row) const {
    return {num_nodes_, from_, to_, tokens_, row};
  }

  uint32_t num_nodes_ = 0;
  std::vector<uint32_t> from_, to_;
  std::vector<int32_t> tokens_;
  McrScratch structure_;  ///< built once; copied into each block's scratch
  int comps_ = 0;
  /// Every 1- and 2-arc cycle of the graph — the structural seed of each
  /// block's critical-cycle dictionary: arcs seed_a_[i] and seed_b_[i],
  /// grouped by token sum (group g is [seed_group_off_[g],
  /// seed_group_off_[g + 1]), token sum seed_group_tok_[g]). A self-loop a
  /// is the pair (a, a): counting it twice doubles its delay and tokens
  /// alike, so its ratio is unchanged.
  std::vector<uint32_t> seed_a_, seed_b_;
  std::vector<uint32_t> seed_group_off_;
  std::vector<int64_t> seed_group_tok_;
  /// The nominal solve's critical cycle and converged potentials, scaled by
  /// the cycle's token count.
  std::vector<uint32_t> nominal_cycle_;
  std::vector<int64_t> nominal_d_;
  /// The heads and token counts of the intra-SCC candidate arcs, in
  /// McrScratch::csr_arc_ order, for the relaxation.
  std::vector<uint32_t> cand_to_;
  std::vector<int32_t> cand_tok_;
  /// Tails of the intra-SCC candidate arcs indexed by *head* node: when a
  /// relaxation raises d[v], exactly the nodes
  /// pred_from_[pred_off_[v]..pred_off_[v+1]) can newly violate the
  /// certificate inequality.
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

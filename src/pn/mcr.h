// Timed marked-graph performance analysis.
//
// For a strongly-connected live MG with arc delays, the asymptotic period
// (time between successive firings of any transition in the steady state)
// equals the maximum cycle ratio  max_C  D(C) / T(C)  over directed cycles
// C, where D is total delay and T total tokens. This predicts the cycle
// time of a desynchronized circuit analytically; bench A3 cross-checks it
// against event-driven simulation.
//
// One kernel proves "every cycle ratio <= lambda": Relaxation, integer
// potentials relaxed at a fixed exact lambda. The max-cycle-ratio climb of
// McrBatch::Block is that kernel in a loop (max_cycle_ratio runs it once
// from zero potentials, McrBatch for every Monte-Carlo sample), and the
// partition optimizer's budget certificate (core/certificate.h) is one
// kernel call per candidate. Delays are integer picoseconds and tokens
// small integers, so every cycle ratio is an exact fraction, and the
// kernel compares ratios and potentials exactly, in integers
// (docs/PERF.md). The independent oracle the tests and bench_mcr check the
// climb against lives in tests/mcr_reference.h.
#pragma once

#include <span>

#include "pn/petri.h"

namespace desyn::pn {

struct CycleRatioResult {
  double ratio = 0;               ///< asymptotic period: delay / tokens
  /// Exact delay and token sums of the critical cycle (0 when there is
  /// none); `ratio` is their one division.
  Ps delay = 0;
  int64_t tokens = 0;
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

/// Whether the ratio a/b exceeds c/d, exactly (b, d >= 0; a zero
/// denominator reads as +infinity for a positive numerator).
bool ratio_greater(int64_t a, int64_t b, int64_t c, int64_t d);

/// Arc lists per node as one CSR: node v's arcs are arc[off[v] ..
/// off[v + 1]).
struct InArcCsr {
  std::span<const uint32_t> off, arc;
  size_t size() const { return off.size() - 1; }
  std::span<const uint32_t> operator[](size_t v) const {
    return arc.subspan(off[v], off[v + 1] - off[v]);
  }
};

/// The relaxation kernel: integer potentials P that prove every cycle ratio
/// of a graph is at most a fixed, reduced lambda = D/T, or a positive cycle
/// that proves otherwise.
///
/// For every arc a = u -> v the kernel enforces
///
///     P[u] >= P[v] + T * delay(a) - D * tokens(a)
///
/// (summed around a cycle, the inequalities bound its ratio by lambda). A
/// relax() call starts from the caller's dirty arcs (the arcs whose delay
/// or endpoints the caller changed) and from whatever an earlier call left
/// queued, and pushes each raise over the in-arcs of the raised node, FIFO,
/// until nothing moves ("settled") or it finds a positive cycle ("cycle").
/// Each raise of P[u] through arc a records a as u's parent. Once the
/// in-arcs its pops relaxed since the last search exceed a fixed multiple
/// of the nodes raised since lambda was set, the kernel searches those
/// nodes' parent arcs for a cycle, at a cost linear in the raised nodes.
/// Every parent cycle is positive: its last raise was strict, so summing
/// the tight parent inequalities around it leaves a positive weight, and
/// its exact ratio cycle_delay() / cycle_tokens() exceeds lambda. The
/// search returns the best one. The kernel polls cancel_point() on entry
/// and once per pass (num_nodes pops).
///
/// Termination. Fix lambda and let W be the largest arc weight. A parent
/// arc u -> v keeps P[u] <= P[v] + weight from the raise on, because P[v]
/// only rises, so along a parent chain that ends at a node not raised since
/// lambda was set (whose potential has not moved) every potential is at
/// most that node's value plus n * W. Potentials rise in integer steps, so
/// a relaxation that keeps raising soon lifts some node above every such
/// bound; from then on its chain cannot end, a parent cycle exists at every
/// moment, and the next search finds it. A relax() call therefore returns.
///
/// Overflow. set_lambda() asserts D and T, and relax() every dirty arc's
/// delay and tokens, below 2^30 in magnitude, and the potentials' scale
/// stays a reduced denominator, so no weight term reaches 2^60. Every raise
/// and rescale asserts the potential below 2^62 in magnitude, so no sum of
/// a potential and a weight wraps: a relaxation that outgrows 64 bits stops
/// at an assertion. An arc the kernel relaxes through an in-arc list was
/// dirty when it last changed, so its terms were checked then.
///
/// Undo. The kernel logs the first raise of each node since the last
/// commit() or set_lambda(); rollback() restores those potentials bit for
/// bit and empties the worklist.
class Relaxation {
 public:
  enum class Outcome { Settled, Cycle };

  /// `potentials` at scale `scale`, lambda = 0 / scale.
  explicit Relaxation(std::vector<int64_t> potentials, int64_t scale = 1);

  /// Make d/t (t > 0) lambda, reduced. The potentials keep their scale while
  /// the reduced denominator divides it (and the numerator at that scale
  /// stays below 2^30), and are otherwise rescaled to it by
  /// floor(P * t / scale), which keeps every satisfied arc satisfied (x >=
  /// y + k with k an integer implies floor(x) >= floor(y) + k); at a larger
  /// lambda every arc weight drops, so queued work resumes where it stopped.
  /// Forgets the parent forest and commits.
  void set_lambda(int64_t d, int64_t t);
  /// lambda = lambda_num() / scale(), at the potentials' scale.
  int64_t lambda_num() const { return ld_; }
  int64_t scale() const { return scale_; }
  std::span<const int64_t> potentials() const { return p_; }

  /// Relax arcs `g` from `dirty` and the queued nodes. `in[v]` lists the
  /// arcs of `g` that end at v (the only arcs the kernel relaxes besides
  /// `dirty`): per-node vectors (the optimizer's, which merges extend) or
  /// an InArcCsr (McrBatch's, built once).
  template <class InArcs>
  Outcome relax(const McrArcs& g, const InArcs& in,
                std::span<const uint32_t> dirty);
  /// The positive cycle of the last Outcome::Cycle: arcs in cycle order
  /// and their exact delay and token sums (tokens may be 0: an infinite
  /// ratio).
  std::span<const uint32_t> cycle() const { return cycle_; }
  Ps cycle_delay() const { return cycle_d_; }
  int64_t cycle_tokens() const { return cycle_t_; }

  /// Keep the potentials as they are: forget the undo log and the parent
  /// forest.
  void commit();
  /// Restore the potentials of the last commit() or set_lambda() and empty
  /// the worklist.
  void rollback();

 private:
  /// The one potential raise: P[u] = want through arc j, recorded as u's
  /// parent.
  void raise(uint32_t u, uint32_t j, int64_t want);
  /// The best cycle of the parent forest into cycle_; false when acyclic.
  bool search(const McrArcs& g);

  std::vector<int64_t> p_;
  int64_t ld_ = 0, scale_ = 1;
  /// Parent arc of each node raised in the current epoch (stamp_ ==
  /// epoch_), the log of their first raises (the undo log, and the nodes
  /// the cycle search walks from), and the FIFO worklist.
  std::vector<uint32_t> parent_, stamp_;
  uint32_t epoch_ = 1;
  std::vector<uint32_t> visit_;  ///< the cycle search's walk stamps
  uint32_t walk_ = 0;
  struct Raise {
    uint32_t node;
    int64_t old;
  };
  std::vector<Raise> log_;
  std::vector<uint32_t> queue_;
  size_t head_ = 0;
  std::vector<uint8_t> queued_;
  std::vector<uint32_t> cycle_;
  Ps cycle_d_ = 0;
  int64_t cycle_t_ = 0;
};

/// Maximum cycle ratio of a flat graph: one climb (McrBatch's nominal
/// solve) from zero potentials, at the best 1- or 2-arc cycle's ratio, or
/// at -1/1 when the graph has none.
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
/// intra-SCC in-arc CSR, and a dictionary of every 1- and 2-arc cycle (on
/// handshake control graphs the critical cycle is almost always one of
/// these local loops). Every solve is then one climb:
///
///   1. Score the dictionary under the row's delays (exact integer D/T
///      comparison) and take the best ratio as lambda = D/T, or -1/1 when
///      the dictionary is empty (every cycle of a live graph weighs D + T
///      >= 1 there, zero delays included).
///   2. Relax the potentials with the kernel, every intra-SCC arc dirty.
///      Settled potentials bound every cycle ratio by lambda, and lambda is
///      a cycle's ratio, so they pin the exact answer.
///   3. A returned cycle has a ratio strictly above lambda: it joins the
///      block's dictionary, lambda rises to its exact ratio, and the
///      relaxation resumes from the current potentials.
///
/// Each step 3 raises lambda strictly to the ratio of a simple cycle, and
/// there are finitely many simple cycles, so lambda stops rising and the
/// relaxation at the last lambda settles. The argument gives no polynomial
/// bound; on the bench models a cold solve settles within a few passes
/// (docs/PERF.md).
///
/// The constructor solves the nominal delays this way from zero
/// potentials (max_cycle_ratio is that solve). A sample is "certified"
/// when step 3 never ran, "repaired" otherwise.
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

    /// Exact argmax of the dictionary under `row` into best_arcs_, and
    /// lambda set to its ratio; lambda = -1/1 and best_arcs_ empty when the
    /// dictionary is empty.
    void best_cycle(std::span<const Ps> row);
    /// The climb from the dictionary's best ratio, learning every cycle the
    /// kernel returns; true when it climbed.
    bool certify(std::span<const Ps> row);
    /// Append a cycle to the learned dictionary.
    void learn(std::span<const uint32_t> cycle);

    const McrBatch& batch_;
    McrBatchStats stats_;
    /// Learned cycles beyond the seeds: arcs learned_arc_[learned_off_[i]
    /// .. learned_off_[i + 1]), token sum learned_tok_[i].
    std::vector<uint32_t> learned_off_{0}, learned_arc_;
    std::vector<int64_t> learned_tok_;
    /// The current best cycle; its ratio is lambda.
    std::vector<uint32_t> best_arcs_;
    Relaxation relax_;
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
  /// Intra-SCC in-arcs of each node v: in_arc_[in_off_[v] ..
  /// in_off_[v + 1]); in_arc_ is also every solve's dirty set. Arcs between
  /// components lie on no cycle and never bound the ratio.
  std::vector<uint32_t> in_off_, in_arc_;
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
  /// has none) and settled potentials at scale nominal_scale_.
  std::vector<uint32_t> nominal_cycle_;
  std::vector<int64_t> nominal_p_;
  int64_t nominal_scale_ = 1;
};

/// Earliest-firing schedule: fire time of the k-th firing (k = 0..rounds-1)
/// of every transition under the greedy timed semantics (a transition fires
/// as soon as every input arc holds a token whose availability time has
/// passed). Requires liveness. Result[t][k] is the k-th firing time of
/// transition t.
std::vector<std::vector<Ps>> earliest_schedule(const MarkedGraph& mg,
                                               int rounds);

}  // namespace desyn::pn

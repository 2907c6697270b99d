// Exact within-budget certificate for the partition optimizer's candidates.
//
// The optimizer asks one question of every candidate clustering: does its
// predicted period — the max cycle ratio D(C)/T(C) of the candidate
// quotient's timed control model — stay within the limit L? It never needs
// the period itself, only the verdict, and the verdict is exact in
// integers: delays are whole picoseconds and a simple cycle carries at most
// M tokens (M = the marked-arc count), so with p/q the largest fraction of
// denominator <= M whose double quotient is <= L, a cycle passes iff
// q*D - p*T <= 0 (rounding is monotone, so this matches `ratio <= L` on the
// double pn::max_cycle_ratio reports, bit for bit). Every cycle passes iff
// integer potentials exist with
//
//     pi[u] >= pi[v] + q*delay(a) - p*tokens(a)   for every arc a = u -> v
//
// (sum the inequality around a cycle). The certificate keeps such a pi for
// the committed clustering. A candidate merge patches O(deg) arcs — the
// dropped cluster's, re-pointed onto the kept one — and then repairs pi by
// a backward worklist from the patched arcs' tails: each raise of pi[u]
// through arc a records a as u's parent, and a raise that closes a cycle
// of parent arcs proves a positive cycle — an over-budget cycle of the
// candidate, whose exact D/T is the failure bound. A repair that settles proves the candidate within budget; the
// committed winner keeps its repaired pi, so a commit costs no extra work.
//
// Arc endpoints live in quotient transition space: cluster c's banks are 2c
// (even/master) and 2c+1 (odd/slave), the env pair keeps fine banks 2G and
// 2G+1, and bank b's transitions are 2b (+) and 2b+1 (-). Merged-away
// clusters leave holes with no arcs. Arc delays are ctl::hardware_model's:
// each arc keeps its ctl::ArcTiming, and every delay the certificate writes
// is ctl::arc_delay of that timing, with the quotient's line — the quantized
// worst-in of the arc's target bank under the current clustering, sized by
// ctl::matched_delay_cells as the synthesis sizes it.
#pragma once

#include <cstdint>
#include <vector>

#include "cell/tech.h"
#include "core/adjacency.h"
#include "ctl/protocol.h"

namespace desyn::flow {

class BudgetCertificate {
 public:
  /// One arc of a failing candidate's over-budget cycle (quotient
  /// transition space, see the header comment).
  struct CycleArc {
    uint32_t from, to;
    Ps delay;
    int32_t tokens;
  };

  /// `cq` is the committed clustering of `fine`'s groups, owned by the
  /// caller. The certificate keeps its arc arrays in lockstep with it:
  /// probes apply a merge to `cq` and undo it, commits apply it for good.
  /// The caller must not change `cq` otherwise. The clustering `cq` holds
  /// at construction must fit within `limit`.
  BudgetCertificate(const ctl::ControlGraph& fine, IncrementalQuotient& cq,
                    ctl::Protocol protocol, const cell::Tech& tech,
                    double limit);

  /// Does merging cluster `drop` into `keep` keep every cycle ratio
  /// <= limit? On false, failure_ratio()/failure_cycle() hold the proof.
  bool probe_merge(int keep, int drop);
  /// Commit a merge that fits the limit (asserted). Free right after a
  /// passing probe of the same merge: its repaired potentials are kept.
  void commit_merge(int keep, int drop);

  /// Exact delay/token ratio of the last failing probe's cycle (> limit;
  /// +infinity for a token-free cycle).
  double failure_ratio() const { return fail_ratio_; }
  const std::vector<CycleArc>& failure_cycle() const { return fail_cycle_; }
  /// Candidates settled so far (merge probes).
  size_t probes() const { return probes_; }
  /// Whether the potentials satisfy every arc of the committed quotient —
  /// the certificate's invariant. O(arcs); for tests. Not valid while a
  /// passing probe is outstanding (its potentials describe the candidate):
  /// call it after a commit or a failing probe.
  bool consistent() const;

 private:
  /// Compact when this many merges piled parallel arcs onto the quotient.
  static constexpr size_t kCompactEvery = 256;

  struct Patch {
    uint32_t arc;
    uint32_t from, to;
    Ps delay;
  };
  struct Delta {  ///< a candidate merge of cluster `drop` into `keep`
    int keep = -1, drop = -1;
    bool operator==(const Delta&) const = default;
  };

  Ps qdelay(uint32_t qb) const;
  Ps arc_delay(size_t j, Ps line) const;
  int64_t weight(uint32_t j) const { return q_ * delay_[j] - p_ * tokens_[j]; }

  void compact();
  void index_in_arcs();
  void apply(const Delta& d);
  void revert();

  bool settle();
  bool relax(uint32_t j);
  void record_cycle(uint32_t u, uint32_t j);
  void restore_potentials();

  IncrementalQuotient& cq_;
  const cell::Tech& tech_;
  size_t G_ = 0;
  uint32_t num_nodes_ = 0;
  Ps ctrl_ = 0, pulse_ = 0;
  int64_t p_ = 0, q_ = 1;  ///< the limit as an exact fraction

  // The quotient's arc list (parallel arrays by arc id).
  std::vector<uint32_t> from_, to_;
  std::vector<Ps> delay_;
  std::vector<ctl::ArcTiming> kind_;
  std::vector<int32_t> tokens_;
  std::vector<std::vector<uint32_t>> incident_;  ///< arc ids per cluster
  /// Per node, a superset of the arcs ending there (entries whose head
  /// moved away are skipped on scan).
  std::vector<std::vector<uint32_t>> in_;
  size_t merges_since_compact_ = 0;
  std::vector<Patch> journal_;  ///< the applied merge's arc patches

  // Potentials and the repair worklist.
  std::vector<int64_t> pi_;
  std::vector<uint32_t> parent_;  ///< arc that set pi[u] (this repair only)
  std::vector<uint32_t> stamp_;   ///< repair epoch that raised the node
  std::vector<uint8_t> queued_;
  std::vector<uint32_t> queue_;
  std::vector<uint32_t> touched_;  ///< nodes raised since the last commit
  std::vector<int64_t> old_pi_;    ///< their values before
  uint32_t epoch_ = 0;
  /// While a merge is applied, in-arcs of `alias_to_`'s nodes may still be
  /// listed under `alias_from_`'s (the cluster the merge drains).
  int alias_to_ = -1, alias_from_ = -1;
  Delta pending_;  ///< the passing probe whose potentials pi_ holds
  bool has_pending_ = false;

  double fail_ratio_ = 0;
  std::vector<CycleArc> fail_cycle_;
  size_t probes_ = 0;
};

}  // namespace desyn::flow

// Exact within-budget certificate for the partition optimizer's candidates.
//
// The optimizer asks one question of every candidate clustering: does its
// predicted period — the max cycle ratio D(C)/T(C) of the candidate
// quotient's timed control model — stay within the limit p/q, an exact
// fraction? It never needs the period itself, only the verdict. The
// certificate keeps integer potentials that prove every cycle ratio of the
// committed clustering <= p/q: the relaxation kernel pn::Relaxation at
// lambda = p/q. A candidate merge patches O(deg) arcs — the dropped
// cluster's, re-pointed onto the kept one — and is one kernel call from
// the patched arcs. A call that settles proves the candidate within budget;
// the committed winner keeps its relaxed potentials, so a commit costs no
// extra work. A returned cycle is an over-budget cycle of the candidate,
// its exact D/T the failure bound, and the kernel rolls the potentials
// back.
//
// Arc endpoints live in quotient transition space: cluster c's banks are 2c
// (even/master) and 2c+1 (odd/slave), the env pair keeps fine banks 2G and
// 2G+1, and bank b's transitions are 2b (+) and 2b+1 (-). Merged-away
// clusters leave holes with no arcs, and parallel arcs pile up on the kept
// ones (deduplicating them did not pay, docs/PERF.md). Arc delays are
// ctl::hardware_model's: each arc keeps its ctl::ArcTiming, and every delay
// the certificate writes is ctl::arc_delay of that timing, with the
// quotient's line — the quantized worst-in of the arc's target bank under
// the current clustering, sized by ctl::matched_delay_cells as the
// synthesis sizes it.
#pragma once

#include <cstdint>
#include <vector>

#include "cell/tech.h"
#include "core/adjacency.h"
#include "ctl/protocol.h"
#include "pn/mcr.h"

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
  /// at construction must fit within the limit limit_num / limit_den.
  BudgetCertificate(const ctl::ControlGraph& fine, IncrementalQuotient& cq,
                    ctl::Protocol protocol, const cell::Tech& tech,
                    int64_t limit_num, int64_t limit_den);

  /// Does merging cluster `drop` into `keep` keep every cycle ratio
  /// <= limit? On false, failure_cycle() and its sums hold the proof.
  bool probe_merge(int keep, int drop);
  /// Commit a merge that fits the limit (asserted). Free right after a
  /// passing probe of the same merge: its relaxed potentials are kept.
  void commit_merge(int keep, int drop);

  /// The last failing probe's cycle and its exact delay and token sums:
  /// their ratio exceeds the limit (0 tokens: an infinite ratio).
  const std::vector<CycleArc>& failure_cycle() const { return fail_cycle_; }
  Ps failure_delay() const { return fail_delay_; }
  int64_t failure_tokens() const { return fail_tokens_; }
  /// Candidates settled so far (merge probes).
  size_t probes() const { return probes_; }
  /// Whether the potentials satisfy every arc of the committed quotient —
  /// the certificate's invariant. O(arcs); for tests. Not valid while a
  /// passing probe is outstanding (its potentials describe the candidate):
  /// call it after a commit or a failing probe.
  bool consistent() const;

 private:
  struct Patch {
    uint32_t from, to;
    Ps delay;
  };
  struct Delta {  ///< a candidate merge of cluster `drop` into `keep`
    int keep = -1, drop = -1;
    bool operator==(const Delta&) const = default;
  };

  Ps qdelay(uint32_t qb) const;
  Ps arc_delay(size_t j, Ps line) const;

  void apply(const Delta& d);
  void revert(const Delta& d);
  /// One kernel call from the patched arcs; on a cycle, the failure is
  /// recorded and the potentials rolled back.
  bool certify();

  IncrementalQuotient& cq_;
  const cell::Tech& tech_;
  size_t G_ = 0;
  uint32_t num_nodes_ = 0;
  Ps ctrl_ = 0, pulse_ = 0;

  // The quotient's arc list (parallel arrays by arc id).
  std::vector<uint32_t> from_, to_;
  std::vector<Ps> delay_;
  std::vector<ctl::ArcTiming> kind_;
  std::vector<int32_t> tokens_;
  std::vector<std::vector<uint32_t>> incident_;  ///< arc ids per cluster
  std::vector<std::vector<uint32_t>> in_;  ///< arc ids ending at each node
  /// The applied merge: its patched arcs, their values before, and the
  /// lengths of the kept cluster's in-arc lists before the dropped
  /// cluster's were appended.
  std::vector<uint32_t> patched_;
  std::vector<Patch> journal_;
  size_t keep_in_len_[4] = {};

  pn::Relaxation relax_;
  Delta pending_;  ///< the passing probe whose potentials relax_ holds
  bool has_pending_ = false;

  std::vector<CycleArc> fail_cycle_;
  Ps fail_delay_ = 0;
  int64_t fail_tokens_ = 0;
  size_t probes_ = 0;
};

}  // namespace desyn::flow

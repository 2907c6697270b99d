#include "core/certificate.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "base/cancel.h"
#include "ctl/controller.h"

namespace desyn::flow {

namespace {

uint32_t bank_of(uint32_t trans) { return trans >> 1; }

/// The largest fraction p/q with q <= max_den whose double quotient (the
/// way pn::cycle_ratio divides) is <= limit. For any D/T with T <= max_den:
/// if fl(D/T) <= limit then D <= D_T, the largest such numerator over T, so
/// D/T <= p/q; if fl(D/T) > limit >= fl(p/q) then D/T > p/q.
std::pair<int64_t, int64_t> budget_fraction(double limit, int64_t max_den) {
  auto fits = [limit](int64_t d, int64_t t) {
    return static_cast<double>(d) / static_cast<double>(t) <= limit;
  };
  int64_t best_p = 0, best_q = 0;
  for (int64_t t = 1; t <= max_den; ++t) {
    auto d = static_cast<int64_t>(std::floor(limit * static_cast<double>(t)));
    while (fits(d + 1, t)) ++d;
    while (!fits(d, t)) --d;
    if (best_q == 0 || d * best_q > best_p * t) {
      best_p = d;
      best_q = t;
    }
  }
  return {best_p, best_q};
}

}  // namespace

BudgetCertificate::BudgetCertificate(const ctl::ControlGraph& fine,
                                     IncrementalQuotient& cq,
                                     ctl::Protocol protocol,
                                     const cell::Tech& tech, double limit)
    : cq_(cq), tech_(tech) {
  DESYN_ASSERT(limit >= 0 && limit < 1e12, "period limit out of range");
  G_ = cq.num_groups();
  num_nodes_ = 2 * static_cast<uint32_t>(fine.num_banks());
  ctrl_ = ctl::controller_response_delay(tech);
  pulse_ = ctl::min_pulse_width(tech);

  // One arc per hardware arc of the per-flip-flop model, endpoints mapped
  // through the clustering `cq` holds now.
  std::vector<ctl::ProtoArc> arcs = ctl::hardware_arcs(fine, protocol);
  const size_t m = arcs.size();
  kind_.resize(m);
  tokens_.resize(m);
  from_.resize(m);
  to_.resize(m);
  delay_.resize(m);
  incident_.assign(G_, {});
  auto mapped_bank = [&](int bank) {
    if (bank >= static_cast<int>(2 * G_)) return static_cast<uint32_t>(bank);
    return 2 * static_cast<uint32_t>(cq_.cluster_of(bank / 2)) +
           (static_cast<uint32_t>(bank) & 1);
  };
  for (size_t j = 0; j < m; ++j) {
    const ctl::ProtoArc& a = arcs[j];
    kind_[j] = ctl::arc_timing(a);
    tokens_[j] = a.marked ? 1 : 0;
    uint32_t mfb = mapped_bank(a.from);
    uint32_t mtb = mapped_bank(a.to);
    from_[j] = 2 * mfb + (a.from_plus ? 0u : 1u);
    to_[j] = 2 * mtb + (a.to_plus ? 0u : 1u);
    delay_[j] = arc_delay(j, qdelay(mtb));
    uint32_t last = UINT32_MAX;
    for (uint32_t mb : {mfb, mtb}) {
      if (mb < 2 * G_ && mb / 2 != last) {
        last = mb / 2;
        incident_[last].push_back(static_cast<uint32_t>(j));
      }
    }
  }
  index_in_arcs();

  int64_t marked = 0;
  Ps max_delay = 0;
  for (size_t j = 0; j < tokens_.size(); ++j) {
    marked += tokens_[j];
    max_delay = std::max(max_delay, delay_[j]);
  }
  std::tie(p_, q_) = budget_fraction(limit, std::max<int64_t>(1, marked));
  // Potentials sum at most one weight per node along a longest path.
  DESYN_ASSERT(static_cast<double>(q_) * static_cast<double>(max_delay) *
                       static_cast<double>(num_nodes_) <
                   1e18,
               "control graph too large for 64-bit potentials");

  pi_.assign(num_nodes_, 0);
  parent_.assign(num_nodes_, 0);
  stamp_.assign(num_nodes_, 0);
  queued_.assign(num_nodes_, 0);
  // Longest-path potentials of the start: repair pi = 0 against every arc.
  journal_.clear();
  journal_.reserve(from_.size());
  for (uint32_t j = 0; j < from_.size(); ++j) {
    journal_.push_back({j, from_[j], to_[j], delay_[j]});
  }
  const bool fits = settle();
  DESYN_ASSERT(fits, "the starting clustering exceeds the period limit");
  journal_.clear();
  touched_.clear();
  old_pi_.clear();
}

// ---------------------------------------------------------------------------
// The arc list
// ---------------------------------------------------------------------------

/// Quantized matched-delay-line length into quotient bank `qb` (per the
/// current clustering), exactly as the synthesis sizes it.
Ps BudgetCertificate::qdelay(uint32_t qb) const {
  Ps worst = qb >= 2 * G_
                 ? cq_.fine_worst_in(static_cast<int>(qb))
                 : cq_.worst_in(static_cast<int>(qb) / 2, (qb & 1) == 0);
  return ctl::matched_delay_cells(worst, tech_) * tech_.delay_unit();
}

Ps BudgetCertificate::arc_delay(size_t j, Ps line) const {
  return ctl::arc_delay(kind_[j], line, ctrl_, pulse_);
}

/// Merging never removes arcs — parallel duplicates pile onto the surviving
/// transitions (same tokens, same delay: both are functions of parity, sign
/// and destination alone, merge-invariant) — so every kCompactEvery merges
/// the arc list is deduplicated in place (first-occurrence order, so the
/// rebuild is deterministic), keeping each repair proportional to the
/// *live* quotient.
void BudgetCertificate::compact() {
  const size_t m = from_.size();
  std::unordered_map<uint64_t, uint32_t> seen;
  seen.reserve(m);
  std::vector<uint32_t> nfrom, nto;
  std::vector<Ps> ndelay;
  std::vector<ctl::ArcTiming> nkind;
  std::vector<int32_t> ntokens;
  for (size_t j = 0; j < m; ++j) {
    uint64_t key = (static_cast<uint64_t>(from_[j]) << 35) |
                   (static_cast<uint64_t>(to_[j]) << 3) |
                   (static_cast<uint64_t>(kind_[j]) << 1) |
                   static_cast<uint64_t>(tokens_[j]);
    auto [it, inserted] =
        seen.try_emplace(key, static_cast<uint32_t>(nfrom.size()));
    if (inserted) {
      nfrom.push_back(from_[j]);
      nto.push_back(to_[j]);
      ndelay.push_back(delay_[j]);
      nkind.push_back(kind_[j]);
      ntokens.push_back(tokens_[j]);
    } else {
      // Parallel duplicates carry identical annotations by construction.
      DESYN_ASSERT(ndelay[it->second] == delay_[j]);
    }
  }
  from_ = std::move(nfrom);
  to_ = std::move(nto);
  delay_ = std::move(ndelay);
  kind_ = std::move(nkind);
  tokens_ = std::move(ntokens);
  incident_.assign(G_, {});
  for (size_t j = 0; j < from_.size(); ++j) {
    uint32_t last = UINT32_MAX;
    for (uint32_t trans : {from_[j], to_[j]}) {
      uint32_t bank = bank_of(trans);
      if (bank < 2 * G_ && bank / 2 != last) {
        last = bank / 2;
        incident_[last].push_back(static_cast<uint32_t>(j));
      }
    }
  }
  merges_since_compact_ = 0;
  index_in_arcs();
}

void BudgetCertificate::index_in_arcs() {
  in_.assign(num_nodes_, {});
  for (uint32_t j = 0; j < to_.size(); ++j) in_[to_[j]].push_back(j);
}

/// Apply merge(drop -> keep): O(deg) endpoint rewrites on the dropped
/// cluster's incident arcs, delay re-quantization where the merged
/// destination's worst-in grew. journal_ records every patched arc.
void BudgetCertificate::apply(const Delta& d) {
  const int keep = d.keep, drop = d.drop;
  const Ps qe_old = qdelay(2 * static_cast<uint32_t>(keep));
  const Ps qo_old = qdelay(2 * static_cast<uint32_t>(keep) + 1);
  cq_.merge(keep, drop);
  const Ps qe = qdelay(2 * static_cast<uint32_t>(keep));
  const Ps qo = qdelay(2 * static_cast<uint32_t>(keep) + 1);
  auto patch = [&](uint32_t j) {
    journal_.push_back({j, from_[j], to_[j], delay_[j]});
  };
  for (uint32_t j : incident_[static_cast<size_t>(drop)]) {
    patch(j);
    uint32_t fb = bank_of(from_[j]);
    if (fb < 2 * G_ && static_cast<int>(fb) / 2 == drop) {
      from_[j] =
          2 * (2 * static_cast<uint32_t>(keep) + (fb & 1)) + (from_[j] & 1);
    }
    uint32_t tb = bank_of(to_[j]);
    if (tb < 2 * G_ && static_cast<int>(tb) / 2 == drop) {
      uint32_t nb = 2 * static_cast<uint32_t>(keep) + (tb & 1);
      to_[j] = 2 * nb + (to_[j] & 1);
      delay_[j] = arc_delay(j, (tb & 1) == 0 ? qe : qo);
    }
  }
  if (qe != qe_old || qo != qo_old) {
    for (uint32_t j : incident_[static_cast<size_t>(keep)]) {
      if (kind_[j] != ctl::ArcTiming::Line) continue;
      uint32_t tb = bank_of(to_[j]);
      if (tb >= 2 * G_ || static_cast<int>(tb) / 2 != keep) continue;
      patch(j);
      delay_[j] = arc_delay(j, (tb & 1) == 0 ? qe : qo);
    }
  }
  alias_to_ = keep;
  alias_from_ = drop;
}

/// Undo the applied merge: arcs from the journal, the clustering by undo.
void BudgetCertificate::revert() {
  for (size_t i = journal_.size(); i-- > 0;) {
    const Patch& p = journal_[i];
    from_[p.arc] = p.from;
    to_[p.arc] = p.to;
    delay_[p.arc] = p.delay;
  }
  journal_.clear();
  cq_.undo();
  alias_to_ = alias_from_ = -1;
}

// ---------------------------------------------------------------------------
// Potentials
// ---------------------------------------------------------------------------

/// Restore every arc constraint after the merge in journal_: relax the
/// patched arcs, then walk raises backward until nothing moves (true) or a
/// raise closes a cycle of parent arcs (false, failure_* filled in).
/// Raised nodes are logged in touched_/old_pi_ for restore_potentials().
bool BudgetCertificate::settle() {
  // One deadline/cancel poll per repair, as pn::max_cycle_ratio polls once
  // per relaxation pass: a repair walks only the region the merge disturbed.
  cancel_point();
  if (++epoch_ == 0) {  // wrapped: no stale stamp may alias the new epoch
    std::fill(stamp_.begin(), stamp_.end(), 0);
    epoch_ = 1;
  }
  queue_.clear();
  bool ok = true;
  for (size_t i = 0; ok && i < journal_.size(); ++i) {
    ok = relax(journal_[i].arc);
  }
  size_t head = 0;
  while (ok && head < queue_.size()) {
    const uint32_t x = queue_[head++];
    queued_[x] = 0;
    auto scan = [&](const std::vector<uint32_t>& arcs) {
      for (uint32_t j : arcs) {
        if (to_[j] == x && !relax(j)) return false;
      }
      return true;
    };
    ok = scan(in_[x]);
    if (ok && static_cast<int>(x / 4) == alias_to_) {
      ok = scan(in_[4 * static_cast<uint32_t>(alias_from_) + (x & 3)]);
    }
  }
  for (; head < queue_.size(); ++head) queued_[queue_[head]] = 0;
  return ok;
}

/// Enforce pi[u] >= pi[v] + w on arc j = u -> v, raising pi[u] if needed.
/// Parent arcs of this repair's raised nodes form a forest; the raise
/// closes a cycle iff u is an ancestor of v, and every such cycle has
/// positive weight (its last raise was strict, so summing the tight parent
/// inequalities around it leaves w > 0).
bool BudgetCertificate::relax(uint32_t j) {
  const uint32_t u = from_[j], v = to_[j];
  const int64_t want = pi_[v] + weight(j);
  if (want <= pi_[u]) return true;
  if (stamp_[u] != epoch_) {
    stamp_[u] = epoch_;
    touched_.push_back(u);
    old_pi_.push_back(pi_[u]);
  }
  pi_[u] = want;
  parent_[u] = j;
  for (uint32_t z = v; stamp_[z] == epoch_; z = to_[parent_[z]]) {
    if (z == u) {
      record_cycle(u, j);
      return false;
    }
  }
  if (!queued_[u]) {
    queued_[u] = 1;
    queue_.push_back(u);
  }
  return true;
}

void BudgetCertificate::record_cycle(uint32_t u, uint32_t j) {
  fail_cycle_.clear();
  Ps delay = 0;
  int64_t tokens = 0;
  for (uint32_t a = j;; a = parent_[to_[a]]) {
    fail_cycle_.push_back({from_[a], to_[a], delay_[a], tokens_[a]});
    delay += delay_[a];
    tokens += tokens_[a];
    if (to_[a] == u) break;
  }
  fail_ratio_ = tokens > 0
                    ? static_cast<double>(delay) / static_cast<double>(tokens)
                    : std::numeric_limits<double>::infinity();
}

bool BudgetCertificate::consistent() const {
  DESYN_ASSERT(!has_pending_, "a passing probe is outstanding");
  for (uint32_t j = 0; j < from_.size(); ++j) {
    if (pi_[from_[j]] < pi_[to_[j]] + weight(j)) return false;
  }
  return true;
}

void BudgetCertificate::restore_potentials() {
  for (size_t i = touched_.size(); i-- > 0;) pi_[touched_[i]] = old_pi_[i];
  touched_.clear();
  old_pi_.clear();
  has_pending_ = false;
}

// ---------------------------------------------------------------------------
// Probes and commits
// ---------------------------------------------------------------------------

bool BudgetCertificate::probe_merge(int keep, int drop) {
  restore_potentials();  // a previous passing probe that was not committed
  ++probes_;
  const Delta d{keep, drop};
  apply(d);
  const bool ok = settle();
  revert();
  if (ok) {
    pending_ = d;
    has_pending_ = true;
  } else {
    restore_potentials();
  }
  return ok;
}

void BudgetCertificate::commit_merge(int keep, int drop) {
  const Delta d{keep, drop};
  const bool proven = has_pending_ && pending_ == d;
  if (!proven) restore_potentials();
  apply(d);
  if (!proven) {
    const bool fits = settle();
    DESYN_ASSERT(fits, "committed a merge that exceeds the period limit");
  }
  touched_.clear();
  old_pi_.clear();
  has_pending_ = false;
  journal_.clear();
  alias_to_ = alias_from_ = -1;
  // The dropped cluster's arcs (and the arcs ending at its nodes) now
  // belong to keep.
  auto& win = incident_[static_cast<size_t>(keep)];
  auto& lose = incident_[static_cast<size_t>(drop)];
  win.insert(win.end(), lose.begin(), lose.end());
  lose.clear();
  for (uint32_t s = 0; s < 4; ++s) {
    auto& into = in_[4 * static_cast<uint32_t>(keep) + s];
    auto& from = in_[4 * static_cast<uint32_t>(drop) + s];
    into.insert(into.end(), from.begin(), from.end());
    from.clear();
    from.shrink_to_fit();
  }
  if (++merges_since_compact_ >= kCompactEvery) compact();
}

}  // namespace desyn::flow

#include "core/certificate.h"

#include <numeric>

#include "ctl/controller.h"

namespace desyn::flow {

namespace {

uint32_t bank_of(uint32_t trans) { return trans >> 1; }

}  // namespace

BudgetCertificate::BudgetCertificate(const ctl::ControlGraph& fine,
                                     IncrementalQuotient& cq,
                                     ctl::Protocol protocol,
                                     const cell::Tech& tech,
                                     int64_t limit_num, int64_t limit_den)
    : cq_(cq),
      tech_(tech),
      G_(cq.num_groups()),
      num_nodes_(2 * static_cast<uint32_t>(fine.num_banks())),
      relax_(std::vector<int64_t>(num_nodes_)) {
  DESYN_ASSERT(limit_num >= 0 && limit_den > 0, "period limit out of range");
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
  in_.assign(num_nodes_, {});
  for (uint32_t j = 0; j < m; ++j) in_[to_[j]].push_back(j);

  // Longest-path potentials of the start: relax zero potentials against
  // every arc.
  relax_.set_lambda(limit_num, limit_den);
  patched_.resize(from_.size());
  std::iota(patched_.begin(), patched_.end(), 0u);
  const bool fits = certify();
  DESYN_ASSERT(fits, "the starting clustering exceeds the period limit");
  relax_.commit();
  patched_.clear();
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

/// Apply merge(drop -> keep): O(deg) endpoint rewrites on the dropped
/// cluster's incident arcs, delay re-quantization where the merged
/// destination's worst-in grew, and the dropped cluster's in-arc lists
/// appended to the kept one's. patched_/journal_ record every patched arc.
void BudgetCertificate::apply(const Delta& d) {
  const int keep = d.keep, drop = d.drop;
  const Ps qe_old = qdelay(2 * static_cast<uint32_t>(keep));
  const Ps qo_old = qdelay(2 * static_cast<uint32_t>(keep) + 1);
  cq_.merge(keep, drop);
  const Ps qe = qdelay(2 * static_cast<uint32_t>(keep));
  const Ps qo = qdelay(2 * static_cast<uint32_t>(keep) + 1);
  auto patch = [&](uint32_t j) {
    patched_.push_back(j);
    journal_.push_back({from_[j], to_[j], delay_[j]});
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
  // Every arc that ended at a dropped node now ends at the kept node of
  // the same bank parity and sign.
  for (uint32_t s = 0; s < 4; ++s) {
    auto& into = in_[4 * static_cast<uint32_t>(keep) + s];
    const auto& from = in_[4 * static_cast<uint32_t>(drop) + s];
    keep_in_len_[s] = into.size();
    into.insert(into.end(), from.begin(), from.end());
  }
}

/// Undo the applied merge: arcs from the journal, the kept in-arc lists to
/// their lengths, the clustering by undo.
void BudgetCertificate::revert(const Delta& d) {
  for (size_t i = journal_.size(); i-- > 0;) {
    const Patch& p = journal_[i];
    from_[patched_[i]] = p.from;
    to_[patched_[i]] = p.to;
    delay_[patched_[i]] = p.delay;
  }
  patched_.clear();
  journal_.clear();
  for (uint32_t s = 0; s < 4; ++s) {
    in_[4 * static_cast<uint32_t>(d.keep) + s].resize(keep_in_len_[s]);
  }
  cq_.undo();
}

// ---------------------------------------------------------------------------
// Potentials
// ---------------------------------------------------------------------------

bool BudgetCertificate::certify() {
  const pn::McrArcs g{num_nodes_, from_, to_, tokens_, delay_};
  if (relax_.relax(g, in_, patched_) == pn::Relaxation::Outcome::Settled) {
    return true;
  }
  fail_cycle_.clear();
  for (uint32_t j : relax_.cycle()) {
    fail_cycle_.push_back({from_[j], to_[j], delay_[j], tokens_[j]});
  }
  fail_delay_ = relax_.cycle_delay();
  fail_tokens_ = relax_.cycle_tokens();
  relax_.rollback();
  return false;
}

bool BudgetCertificate::consistent() const {
  DESYN_ASSERT(!has_pending_, "a passing probe is outstanding");
  const std::span<const int64_t> pi = relax_.potentials();
  for (uint32_t j = 0; j < from_.size(); ++j) {
    const __int128 want = static_cast<__int128>(pi[to_[j]]) +
                          static_cast<__int128>(relax_.scale()) * delay_[j] -
                          static_cast<__int128>(relax_.lambda_num()) *
                              tokens_[j];
    if (pi[from_[j]] < want) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Probes and commits
// ---------------------------------------------------------------------------

bool BudgetCertificate::probe_merge(int keep, int drop) {
  if (has_pending_) {  // a previous passing probe that was not committed
    relax_.rollback();
    has_pending_ = false;
  }
  ++probes_;
  const Delta d{keep, drop};
  apply(d);
  const bool ok = certify();
  revert(d);
  if (ok) {
    pending_ = d;
    has_pending_ = true;
  }
  return ok;
}

void BudgetCertificate::commit_merge(int keep, int drop) {
  const Delta d{keep, drop};
  const bool proven = has_pending_ && pending_ == d;
  if (has_pending_ && !proven) relax_.rollback();
  has_pending_ = false;
  apply(d);
  if (!proven) {
    const bool fits = certify();
    DESYN_ASSERT(fits, "committed a merge that exceeds the period limit");
  }
  relax_.commit();
  patched_.clear();
  journal_.clear();
  // The dropped cluster's arcs (and the arcs ending at its nodes) now
  // belong to keep.
  auto& win = incident_[static_cast<size_t>(keep)];
  auto& lose = incident_[static_cast<size_t>(drop)];
  win.insert(win.end(), lose.begin(), lose.end());
  lose.clear();
  for (uint32_t s = 0; s < 4; ++s) {
    auto& from = in_[4 * static_cast<uint32_t>(drop) + s];
    from.clear();
    from.shrink_to_fit();
  }
}

}  // namespace desyn::flow

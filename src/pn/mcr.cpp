#include "pn/mcr.h"

#include <algorithm>
#include <numeric>

#include "base/cancel.h"
#include "base/parallel.h"
#include "pn/analysis.h"

namespace desyn::pn {

namespace {

/// Fill *res with the cycle `arcs` under `delay`: its arcs rotated to start
/// at the smallest transition id (canonical, deterministic output), the
/// transition list, the exact sums and their one division. An empty cycle
/// (an acyclic graph) reads ratio 0.
void set_cycle(std::span<const uint32_t> from, std::span<const Ps> delay,
               std::span<const int32_t> tokens, std::span<const uint32_t> arcs,
               CycleRatioResult* res) {
  res->cycle_arcs.clear();
  res->cycle.clear();
  res->delay = 0;
  res->tokens = 0;
  res->ratio = 0;
  if (arcs.empty()) return;
  size_t first = 0;
  for (size_t i = 1; i < arcs.size(); ++i) {
    if (from[arcs[i]] < from[arcs[first]]) first = i;
  }
  for (size_t i = 0; i < arcs.size(); ++i) {
    const uint32_t a = arcs[(first + i) % arcs.size()];
    res->cycle_arcs.push_back(ArcId(a));
    res->cycle.push_back(TransId(from[a]));
    res->delay += delay[a];
    res->tokens += tokens[a];
  }
  res->ratio =
      static_cast<double>(res->delay) / static_cast<double>(res->tokens);
}

constexpr uint32_t kNoArc = UINT32_MAX;
// The kernel searches its parent arcs for a cycle once the in-arcs its pops
// relaxed since the last search (the dirty arcs do not count) exceed
// kSearchEvery times the nodes raised since lambda was set. A search costs
// O(raised nodes), so searching costs at most 1/kSearchEvery of the
// relaxation (docs/PERF.md has the measurement that chose 8).
constexpr size_t kSearchEvery = 8;
// The overflow rule's bounds (mcr.h, Overflow).
constexpr int64_t kTermCap = int64_t{1} << 30;
constexpr int64_t kPotentialCap = int64_t{1} << 62;

/// floor(p * to / from) for from > 0: a potential scaled by `from`,
/// rescaled to `to`, asserted inside the potentials' range.
int64_t rescale(int64_t p, int64_t to, int64_t from) {
  const __int128 x = static_cast<__int128>(p) * to;
  __int128 q = x / from;
  if (q * from > x) --q;
  DESYN_ASSERT(q < kPotentialCap && q > -kPotentialCap,
               "potentials outgrew 64 bits");
  return static_cast<int64_t>(q);
}

/// The intra-SCC in-arcs of every node of `g`, arc ids ascending, as a CSR
/// arcs[off[v] .. off[v + 1]). Components come from an iterative Tarjan
/// (large fabrics would overflow the call stack) over all out-arcs.
void intra_scc_csr(const McrArcs& g, std::vector<uint32_t>* off,
                   std::vector<uint32_t>* arcs) {
  const uint32_t n = g.num_nodes;
  const uint32_t m = static_cast<uint32_t>(g.num_arcs());

  // ---- out-arc CSR (for Tarjan) ------------------------------------------
  std::vector<uint32_t> out_off(n + 1, 0), out_arc(m);
  for (uint32_t a = 0; a < m; ++a) ++out_off[g.from[a] + 1];
  for (uint32_t v = 0; v < n; ++v) out_off[v + 1] += out_off[v];
  std::vector<uint32_t> cursor(out_off.begin(), out_off.end() - 1);
  for (uint32_t a = 0; a < m; ++a) out_arc[cursor[g.from[a]]++] = a;

  // ---- iterative Tarjan ---------------------------------------------------
  std::vector<uint32_t> comp(n, 0), index(n, UINT32_MAX), low(n, 0), stack;
  std::vector<uint8_t> on_stack(n, 0);
  struct Frame {
    uint32_t v;
    uint32_t next_out;
  };
  std::vector<Frame> work;
  uint32_t next_index = 0, comps = 0;
  for (uint32_t root = 0; root < n; ++root) {
    if (index[root] != UINT32_MAX) continue;
    work.push_back({root, 0});
    while (!work.empty()) {
      uint32_t v = work.back().v;
      if (work.back().next_out == 0) {
        index[v] = low[v] = next_index++;
        stack.push_back(v);
        on_stack[v] = 1;
      }
      bool descended = false;
      while (out_off[v] + work.back().next_out < out_off[v + 1]) {
        uint32_t w = g.to[out_arc[out_off[v] + work.back().next_out]];
        ++work.back().next_out;
        if (index[w] == UINT32_MAX) {
          work.push_back({w, 0});
          descended = true;
          break;
        }
        if (on_stack[w]) low[v] = std::min(low[v], index[w]);
      }
      if (descended) continue;
      if (low[v] == index[v]) {
        for (;;) {
          uint32_t w = stack.back();
          stack.pop_back();
          on_stack[w] = 0;
          comp[w] = comps;
          if (w == v) break;
        }
        ++comps;
      }
      work.pop_back();
      if (!work.empty()) {
        low[work.back().v] = std::min(low[work.back().v], low[v]);
      }
    }
  }

  // ---- intra-SCC in-arc CSR -----------------------------------------------
  off->assign(n + 1, 0);
  for (uint32_t a = 0; a < m; ++a) {
    if (comp[g.from[a]] == comp[g.to[a]]) ++(*off)[g.to[a] + 1];
  }
  for (uint32_t v = 0; v < n; ++v) (*off)[v + 1] += (*off)[v];
  arcs->resize((*off)[n]);
  cursor.assign(off->begin(), off->end() - 1);
  for (uint32_t a = 0; a < m; ++a) {
    if (comp[g.from[a]] == comp[g.to[a]]) (*arcs)[cursor[g.to[a]]++] = a;
  }
}

}  // namespace

McrFlat flatten(const MarkedGraph& mg) {
  McrFlat f;
  f.num_nodes = static_cast<uint32_t>(mg.num_transitions());
  const uint32_t m = static_cast<uint32_t>(mg.num_arcs());
  f.from.reserve(m);
  f.to.reserve(m);
  f.tokens.reserve(m);
  f.delay.reserve(m);
  for (uint32_t a = 0; a < m; ++a) {
    const Arc& arc = mg.arc(ArcId(a));
    f.from.push_back(arc.from.value());
    f.to.push_back(arc.to.value());
    f.tokens.push_back(arc.tokens);
    f.delay.push_back(arc.delay);
  }
  return f;
}

double cycle_ratio(const McrArcs& g, std::span<const ArcId> arcs) {
  DESYN_ASSERT(!arcs.empty(), "cycle_ratio needs a non-empty cycle");
  Ps delay = 0;
  int64_t tokens = 0;
  for (size_t i = 0; i < arcs.size(); ++i) {
    uint32_t a = arcs[i].value();
    uint32_t next = arcs[(i + 1) % arcs.size()].value();
    DESYN_ASSERT(g.to[a] == g.from[next],
                 "arcs do not chain into a closed cycle");
    delay += g.delay[a];
    tokens += g.tokens[a];
  }
  DESYN_ASSERT(tokens > 0, "cycle carries no token (dead marked graph?)");
  return static_cast<double>(delay) / static_cast<double>(tokens);
}

bool ratio_greater(int64_t a, int64_t b, int64_t c, int64_t d) {
  if (b == d) return a > c;  // the common case: no products needed
  return static_cast<__int128>(a) * d > static_cast<__int128>(c) * b;
}

// ---------------------------------------------------------------------------
// The relaxation kernel
// ---------------------------------------------------------------------------

Relaxation::Relaxation(std::vector<int64_t> potentials, int64_t scale)
    : p_(std::move(potentials)),
      scale_(scale),
      parent_(p_.size(), kNoArc),
      stamp_(p_.size(), 0),
      visit_(p_.size(), 0),
      queued_(p_.size(), 0) {}

void Relaxation::commit() {
  if (++epoch_ == 0) {  // wrapped: no stale stamp may alias the new epoch
    std::fill(stamp_.begin(), stamp_.end(), 0);
    epoch_ = 1;
  }
  log_.clear();
}

void Relaxation::set_lambda(int64_t d, int64_t t) {
  const int64_t common = std::gcd(d, t);
  d /= common;
  t /= common;
  DESYN_ASSERT(t > 0 && t < kTermCap && d < kTermCap && d > -kTermCap,
               "lambda out of the 64-bit range (mcr.h, Overflow)");
  if (scale_ % t != 0 || (d != 0 && scale_ / t >= kTermCap / std::abs(d))) {
    for (int64_t& p : p_) p = rescale(p, t, scale_);
    scale_ = t;
  }
  ld_ = d * (scale_ / t);
  commit();
}


void Relaxation::rollback() {
  for (size_t i = log_.size(); i-- > 0;) p_[log_[i].node] = log_[i].old;
  for (; head_ < queue_.size(); ++head_) queued_[queue_[head_]] = 0;
  queue_.clear();
  head_ = 0;
  commit();
}

void Relaxation::raise(uint32_t u, uint32_t j, int64_t want) {
  DESYN_ASSERT(want < kPotentialCap, "potentials outgrew 64 bits");
  if (stamp_[u] != epoch_) {
    stamp_[u] = epoch_;
    log_.push_back({u, p_[u]});
  }
  p_[u] = want;
  parent_[u] = j;
  if (!queued_[u]) {
    queued_[u] = 1;
    queue_.push_back(u);
  }
}

bool Relaxation::search(const McrArcs& g) {
  // A walk follows parent arcs from a raised node until it reaches a node
  // not raised in this epoch or one visited before; visit stamps above
  // `base` mark this search's walks, and a walk that meets its own stamp
  // went around a cycle. Parent arcs form a functional graph, so its
  // cycles are disjoint and the search costs O(raised nodes).
  const uint32_t n = static_cast<uint32_t>(p_.size());
  if (walk_ > UINT32_MAX - n) {  // stamps about to wrap: start afresh
    std::fill(visit_.begin(), visit_.end(), 0);
    walk_ = 0;
  }
  const uint32_t base = walk_;
  bool found = false;
  for (const Raise& r : log_) {
    const uint32_t u = r.node;
    if (visit_[u] > base) continue;
    const uint32_t id = ++walk_;
    uint32_t x = u;
    while (stamp_[x] == epoch_ && visit_[x] <= base) {
      visit_[x] = id;
      x = g.to[parent_[x]];
    }
    if (visit_[x] != id) continue;
    const uint32_t head = x;
    Ps cd = 0;
    int64_t ct = 0;
    do {
      cd += g.delay[parent_[x]];
      ct += g.tokens[parent_[x]];
      x = g.to[parent_[x]];
    } while (x != head);
    if (found && !ratio_greater(cd, ct, cycle_d_, cycle_t_)) continue;
    found = true;
    cycle_d_ = cd;
    cycle_t_ = ct;
    cycle_.clear();
    do {
      cycle_.push_back(parent_[x]);
      x = g.to[parent_[x]];
    } while (x != head);
  }
  return found;
}

template <class InArcs>
Relaxation::Outcome Relaxation::relax(const McrArcs& g, const InArcs& in,
                                      std::span<const uint32_t> dirty) {
  DESYN_ASSERT(g.num_nodes == p_.size() && in.size() == p_.size());
  cancel_point();
  // Enforce arc j = u -> v against P[v] = pv. With every term below
  // kTermCap and pv below kPotentialCap nothing here wraps (mcr.h,
  // Overflow); raise() keeps the potentials below kPotentialCap.
  auto relax_arc = [&](uint32_t j, int64_t pv) {
    const int64_t want = pv + scale_ * g.delay[j] - ld_ * g.tokens[j];
    if (want > p_[g.from[j]]) raise(g.from[j], j, want);
  };
  for (uint32_t j : dirty) {
    DESYN_ASSERT(static_cast<uint64_t>(g.delay[j]) < kTermCap &&
                     static_cast<uint64_t>(g.tokens[j]) < kTermCap,
                 "arc delay or tokens out of the 64-bit range (mcr.h, "
                 "Overflow)");
    relax_arc(j, p_[g.to[j]]);
  }
  const size_t n = p_.size();
  size_t pops = 0, since_search = 0;
  while (head_ < queue_.size()) {
    if (++pops == n) {
      // Once per pass: poll the request token and drop the popped prefix
      // of the worklist (at most n nodes are queued).
      pops = 0;
      cancel_point();
      queue_.erase(queue_.begin(),
                   queue_.begin() + static_cast<ptrdiff_t>(head_));
      head_ = 0;
    }
    if (since_search > kSearchEvery * log_.size()) {
      since_search = 0;
      if (search(g)) return Outcome::Cycle;
    }
    const uint32_t v = queue_[head_++];
    queued_[v] = 0;
    const int64_t pv = p_[v];
    since_search += in[v].size();
    for (uint32_t j : in[v]) relax_arc(j, pv);
  }
  queue_.clear();
  head_ = 0;
  return Outcome::Settled;
}

template Relaxation::Outcome Relaxation::relax(
    const McrArcs&, const std::vector<std::vector<uint32_t>>&,
    std::span<const uint32_t>);
template Relaxation::Outcome Relaxation::relax(const McrArcs&,
                                               const InArcCsr&,
                                               std::span<const uint32_t>);

// ---------------------------------------------------------------------------
// The cold flat solve
// ---------------------------------------------------------------------------

CycleRatioResult max_cycle_ratio(const McrArcs& g) {
  const McrBatch batch(g);  // solves g.delay
  CycleRatioResult res;
  set_cycle(g.from, g.delay, g.tokens, batch.nominal_cycle_, &res);
  return res;
}

// ---------------------------------------------------------------------------
// McrBatch: the structure, shared by every solve of one graph
// ---------------------------------------------------------------------------

McrBatch::McrBatch(const McrArcs& g)
    : num_nodes_(g.num_nodes),
      from_(g.from.begin(), g.from.end()),
      to_(g.to.begin(), g.to.end()),
      tokens_(g.tokens.begin(), g.tokens.end()) {
  DESYN_ASSERT(g.to.size() == from_.size() &&
               g.tokens.size() == from_.size() &&
               g.delay.size() == from_.size());
  const uint32_t n = num_nodes_;
  intra_scc_csr(g, &in_off_, &in_arc_);

  // Structural cycle dictionary: every self-loop and every mutual arc
  // pair. On handshake control graphs these local loops are the entire
  // population the per-sample critical cycle is drawn from (longer
  // critical cycles are learned per block).
  struct Seed {
    int64_t tokens;
    uint32_t a, b;
  };
  std::vector<Seed> seeds;
  for (uint32_t u = 0; u < n; ++u) {
    for (uint32_t k = in_off_[u]; k < in_off_[u + 1]; ++k) {
      uint32_t a = in_arc_[k];
      uint32_t v = from_[a];
      if (v == u) {
        if (tokens_[a] > 0) seeds.push_back({2 * int64_t{tokens_[a]}, a, a});
      } else if (v > u) {
        for (uint32_t j = in_off_[v]; j < in_off_[v + 1]; ++j) {
          uint32_t b = in_arc_[j];
          if (from_[b] == u && tokens_[a] + tokens_[b] > 0) {
            seeds.push_back({int64_t{tokens_[a]} + tokens_[b], a, b});
          }
        }
      }
    }
  }
  // Grouped by token sum, the dictionary argmax compares plain delay sums
  // within a group and cross-multiplies only across groups.
  std::stable_sort(seeds.begin(), seeds.end(),
                   [](const Seed& x, const Seed& y) {
                     return x.tokens < y.tokens;
                   });
  for (size_t i = 0; i < seeds.size(); ++i) {
    if (i == 0 || seeds[i].tokens != seeds[i - 1].tokens) {
      seed_group_off_.push_back(static_cast<uint32_t>(i));
      seed_group_tok_.push_back(seeds[i].tokens);
    }
    seed_a_.push_back(seeds[i].a);
    seed_b_.push_back(seeds[i].b);
  }
  seed_group_off_.push_back(static_cast<uint32_t>(seeds.size()));

  // The nominal solve, a climb from zero potentials: its settled
  // potentials and critical cycle start every block.
  nominal_p_.assign(n, 0);
  Block nominal(*this);
  CycleRatioResult r;
  nominal.solve(g.delay, &r);
  for (ArcId a : r.cycle_arcs) nominal_cycle_.push_back(a.value());
  const std::span<const int64_t> p = nominal.relax_.potentials();
  nominal_p_.assign(p.begin(), p.end());
  nominal_scale_ = nominal.relax_.scale();
}

// ---------------------------------------------------------------------------
// McrBatch::Block: the climb
// ---------------------------------------------------------------------------

// Adjacent samples perturb the same nominal delays, so the critical cycle
// is drawn from a tiny per-block dictionary (the seeds plus every longer
// cycle this block ever found), and a settled solve's potentials remain a
// near-valid certificate for the next sample's delays. mcr.h states the
// climb and why it terminates.
McrBatch::Block::Block(const McrBatch& batch)
    : batch_(batch), relax_(batch.nominal_p_, batch.nominal_scale_) {
  if (batch.nominal_cycle_.size() > 2) learn(batch.nominal_cycle_);
}

void McrBatch::Block::learn(std::span<const uint32_t> cycle) {
  learned_arc_.insert(learned_arc_.end(), cycle.begin(), cycle.end());
  learned_off_.push_back(static_cast<uint32_t>(learned_arc_.size()));
  int64_t t = 0;
  for (uint32_t a : cycle) t += batch_.tokens_[a];
  learned_tok_.push_back(t);
}

void McrBatch::Block::best_cycle(std::span<const Ps> row) {
  // Exact argmax over the dictionary under this row's delays: compare
  // D1/T1 vs D2/T2 by integer cross-multiplication.
  const McrBatch& b = batch_;
  int64_t bd = -1, bt = 1;
  size_t seed = SIZE_MAX, learned = SIZE_MAX;
  for (size_t g = 0; g < b.seed_group_tok_.size(); ++g) {
    int64_t gd = -1;
    size_t gi = 0;
    for (size_t i = b.seed_group_off_[g]; i < b.seed_group_off_[g + 1]; ++i) {
      const int64_t d = row[b.seed_a_[i]] + row[b.seed_b_[i]];
      if (d > gd) {
        gd = d;
        gi = i;
      }
    }
    if (ratio_greater(gd, b.seed_group_tok_[g], bd, bt)) {
      seed = gi;
      bd = gd;
      bt = b.seed_group_tok_[g];
    }
  }
  for (size_t c = 0; c < learned_tok_.size(); ++c) {
    int64_t d = 0;
    for (uint32_t k = learned_off_[c]; k < learned_off_[c + 1]; ++k) {
      d += row[learned_arc_[k]];
    }
    if (ratio_greater(d, learned_tok_[c], bd, bt)) {
      learned = c;
      bd = d;
      bt = learned_tok_[c];
    }
  }
  best_arcs_.clear();
  if (learned != SIZE_MAX) {
    best_arcs_.assign(learned_arc_.begin() + learned_off_[learned],
                      learned_arc_.begin() + learned_off_[learned + 1]);
  } else if (seed != SIZE_MAX) {
    best_arcs_.push_back(b.seed_a_[seed]);
    if (b.seed_b_[seed] != b.seed_a_[seed]) {
      best_arcs_.push_back(b.seed_b_[seed]);
    }
  }
  relax_.set_lambda(bd, bt);  // -1/1 when the dictionary is empty
}

bool McrBatch::Block::certify(std::span<const Ps> row) {
  const McrBatch& b = batch_;
  const McrArcs g{b.num_nodes_, b.from_, b.to_, b.tokens_, row};
  const InArcCsr in{b.in_off_, b.in_arc_};
  std::span<const uint32_t> dirty = b.in_arc_;
  bool repaired = false;
  while (relax_.relax(g, in, dirty) == Relaxation::Outcome::Cycle) {
    const int64_t d = relax_.cycle_delay(), t = relax_.cycle_tokens();
    DESYN_ASSERT(t > 0 && ratio_greater(d, t, relax_.lambda_num(),
                                        relax_.scale()),
                 "a raise cycle's ratio must exceed lambda");
    learn(relax_.cycle());
    best_arcs_.assign(relax_.cycle().begin(), relax_.cycle().end());
    relax_.set_lambda(d, t);
    dirty = {};
    repaired = true;
  }
  return repaired;
}

void McrBatch::Block::solve(std::span<const Ps> row, CycleRatioResult* out) {
  DESYN_ASSERT(row.size() == batch_.num_arcs());
  best_cycle(row);
  ++(certify(row) ? stats_.repaired : stats_.certified);
  // An acyclic graph keeps lambda at -1/1 and no cycle: its ratio is 0.
  set_cycle(batch_.from_, row, batch_.tokens_, best_arcs_, out);
}

std::vector<CycleRatioResult> McrBatch::solve_all(std::span<const Ps> delays,
                                                  size_t samples, int jobs,
                                                  McrBatchStats* stats) const {
  const size_t m = num_arcs();
  DESYN_ASSERT(delays.size() == samples * m,
               "delay matrix must be samples x num_arcs, row-major");
  std::vector<CycleRatioResult> out(samples);
  const size_t blocks = (samples + kBlock - 1) / kBlock;
  std::vector<McrBatchStats> block_stats(blocks);
  // Every block's solves depend only on data inside the block and results
  // land at fixed sample indices, so the output is byte-identical at any
  // job count.
  parallel_for(blocks, jobs, [&](size_t b) {
    Block block(*this);
    for (size_t i = b * kBlock; i < std::min(samples, (b + 1) * kBlock);
         ++i) {
      block.solve(delays.subspan(i * m, m), &out[i]);
    }
    block_stats[b] = block.stats();
  });
  if (stats) {
    for (const McrBatchStats& b : block_stats) *stats += b;
  }
  return out;
}

// ---------------------------------------------------------------------------
// MarkedGraph entry points
// ---------------------------------------------------------------------------

CycleRatioResult max_cycle_ratio(const MarkedGraph& mg) {
  DESYN_ASSERT(is_live(mg), "max_cycle_ratio requires a live marked graph");
  return max_cycle_ratio(flatten(mg).view());
}

std::vector<std::vector<Ps>> earliest_schedule(const MarkedGraph& mg,
                                               int rounds) {
  DESYN_ASSERT(rounds > 0);
  const uint32_t n = static_cast<uint32_t>(mg.num_transitions());

  // Topological order of the zero-token subgraph: within one round, a
  // transition may depend on same-round firings only through token-free
  // arcs. The subgraph is acyclic exactly when the marked graph is live, so
  // a complete order is the liveness check.
  std::vector<uint32_t> indeg(n, 0);
  for (uint32_t a = 0; a < mg.num_arcs(); ++a) {
    const Arc& arc = mg.arc(ArcId(a));
    if (arc.tokens == 0) ++indeg[arc.to.value()];
  }
  std::vector<uint32_t> order;
  order.reserve(n);
  for (uint32_t t = 0; t < n; ++t) {
    if (indeg[t] == 0) order.push_back(t);
  }
  for (size_t i = 0; i < order.size(); ++i) {
    for (ArcId out : mg.transition(TransId(order[i])).out) {
      const Arc& arc = mg.arc(out);
      if (arc.tokens == 0 && --indeg[arc.to.value()] == 0) {
        order.push_back(arc.to.value());
      }
    }
  }
  DESYN_ASSERT(order.size() == n, "earliest_schedule requires liveness");

  std::vector<std::vector<Ps>> fire(n, std::vector<Ps>(rounds, 0));
  for (int k = 0; k < rounds; ++k) {
    for (uint32_t t : order) {
      Ps at = 0;
      for (ArcId in : mg.transition(TransId(t)).in) {
        const Arc& arc = mg.arc(in);
        int src_round = k - arc.tokens;
        if (src_round < 0) {
          // The needed token is part of the initial marking: available at 0.
          continue;
        }
        at = std::max(at, fire[arc.from.value()][src_round] + arc.delay);
      }
      fire[t][k] = at;
    }
  }
  return fire;
}

}  // namespace desyn::pn

#include "pn/mcr.h"

#include <algorithm>
#include <numeric>

#include "base/cancel.h"
#include "base/parallel.h"
#include "pn/analysis.h"

namespace desyn::pn {

namespace {

/// Rotate res->cycle_arcs so the cycle starts at its smallest transition id
/// (canonical, deterministic output) and fill in the transition list.
void canonicalize_cycle(std::span<const uint32_t> from,
                        CycleRatioResult* res) {
  std::vector<ArcId>& arcs = res->cycle_arcs;
  if (!arcs.empty()) {
    size_t best = 0;
    for (size_t i = 1; i < arcs.size(); ++i) {
      if (from[arcs[i].value()] < from[arcs[best].value()]) best = i;
    }
    std::rotate(arcs.begin(), arcs.begin() + static_cast<ptrdiff_t>(best),
                arcs.end());
  }
  res->cycle.clear();
  for (ArcId a : arcs) res->cycle.push_back(TransId(from[a.value()]));
}

/// Whether the ratio a/b exceeds c/d (b, d > 0), exactly.
bool ratio_gt(int64_t a, int64_t b, int64_t c, int64_t d) {
  if (b == d) return a > c;  // the common case: no products needed
  return static_cast<__int128>(a) * d > static_cast<__int128>(c) * b;
}

/// floor(p * to / from) for from > 0: a potential scaled by `from`,
/// rescaled to `to`. Flooring, unlike truncation, keeps every satisfied arc
/// satisfied: x >= y + k with k an integer implies floor(x) >= floor(y) + k.
int64_t rescale(int64_t p, int64_t to, int64_t from) {
  const __int128 x = static_cast<__int128>(p) * to;
  __int128 q = x / from;
  if (q * from > x) --q;
  return static_cast<int64_t>(q);
}

/// Token count of a cycle, at least 1: the scale of the potentials that
/// certify it as critical (an acyclic graph's potentials keep scale 1).
int64_t cycle_tokens(std::span<const int32_t> tokens,
                     std::span<const uint32_t> cycle) {
  int64_t t = 0;
  for (uint32_t a : cycle) t += tokens[a];
  return std::max<int64_t>(t, 1);
}

// Passes over the nodes (in pops) before the certificate relaxation first
// searches its raise arcs for a cycle above lambda; later searches follow
// once per pass. A settling relaxation rarely outlasts two passes, so the
// searches cost nothing where the dictionary holds the critical cycle.
constexpr size_t kRaiseSearchFirst = 2;
constexpr uint32_t kNoArc = UINT32_MAX;
// Ceiling the raise search asserts every potential below (mcr.h, Overflow).
constexpr int64_t kPotentialCap = INT64_MAX / 4;

/// The intra-SCC out-arcs of every node of `g`, arc ids ascending, as a CSR
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

  // ---- intra-SCC out-arc CSR ----------------------------------------------
  off->assign(n + 1, 0);
  for (uint32_t a = 0; a < m; ++a) {
    if (comp[g.from[a]] == comp[g.to[a]]) ++(*off)[g.from[a] + 1];
  }
  for (uint32_t v = 0; v < n; ++v) (*off)[v + 1] += (*off)[v];
  arcs->resize((*off)[n]);
  cursor.assign(off->begin(), off->end() - 1);
  for (uint32_t a = 0; a < m; ++a) {
    if (comp[g.from[a]] == comp[g.to[a]]) (*arcs)[cursor[g.from[a]]++] = a;
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

// ---------------------------------------------------------------------------
// The cold flat solve
// ---------------------------------------------------------------------------

CycleRatioResult max_cycle_ratio(const McrArcs& g) {
  const McrBatch batch(g);  // solves g.delay
  CycleRatioResult res;
  if (batch.nominal_cycle_.empty()) return res;  // acyclic: ratio 0
  for (uint32_t a : batch.nominal_cycle_) res.cycle_arcs.push_back(ArcId(a));
  res.ratio = cycle_ratio(g, res.cycle_arcs);  // exact D/T of the cycle
  canonicalize_cycle(g.from, &res);
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
  Ps max_delay = 0;
  int32_t max_tokens = 0;
  for (size_t a = 0; a < g.num_arcs(); ++a) {
    max_delay = std::max(max_delay, g.delay[a]);
    max_tokens = std::max(max_tokens, g.tokens[a]);
  }
  DESYN_ASSERT(static_cast<double>(g.num_nodes) * g.num_nodes *
                       static_cast<double>(max_delay) * max_tokens <
                   1e15,
               "marked graph too large for 64-bit potentials");
  intra_scc_csr(g, &csr_off_, &csr_arc_);

  const uint32_t n = num_nodes_;
  for (uint32_t a : csr_arc_) {
    cand_to_.push_back(to_[a]);
    cand_tok_.push_back(tokens_[a]);
  }

  // Predecessor index over the intra-SCC arcs (certificate worklist:
  // raising d[v] can only violate arcs *into* v).
  pred_off_.assign(n + 1, 0);
  for (uint32_t v : cand_to_) ++pred_off_[v + 1];
  for (uint32_t v = 0; v < n; ++v) pred_off_[v + 1] += pred_off_[v];
  pred_from_.resize(pred_off_[n]);
  {
    std::vector<uint32_t> fill(pred_off_.begin(), pred_off_.end() - 1);
    for (uint32_t v = 0; v < n; ++v) {
      for (uint32_t k = csr_off_[v]; k < csr_off_[v + 1]; ++k) {
        pred_from_[fill[cand_to_[k]]++] = v;
      }
    }
  }

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
    for (uint32_t k = csr_off_[u]; k < csr_off_[u + 1]; ++k) {
      uint32_t a = csr_arc_[k];
      uint32_t v = to_[a];
      if (v == u) {
        if (tokens_[a] > 0) seeds.push_back({2 * int64_t{tokens_[a]}, a, a});
      } else if (v > u) {
        for (uint32_t j = csr_off_[v]; j < csr_off_[v + 1]; ++j) {
          uint32_t b = csr_arc_[j];
          if (to_[b] == u && tokens_[a] + tokens_[b] > 0) {
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
  nominal_d_.assign(n, 0);
  Block nominal(*this);
  CycleRatioResult r;
  nominal.solve(g.delay, &r);
  for (ArcId a : r.cycle_arcs) nominal_cycle_.push_back(a.value());
  const int64_t t = cycle_tokens(tokens_, nominal_cycle_);
  for (uint32_t v = 0; v < n; ++v) {
    nominal_d_[v] = rescale(nominal.dcert_[v], t, nominal.best_t_);
  }
}

// ---------------------------------------------------------------------------
// McrBatch::Block: the certificate climb
// ---------------------------------------------------------------------------

// Adjacent samples perturb the same nominal delays, so the critical cycle
// is drawn from a tiny per-block dictionary (the seeds plus every longer
// cycle this block ever found), and a settled solve's potentials remain a
// near-valid certificate for the next sample's delays. mcr.h states the
// climb and why it terminates.
McrBatch::Block::Block(const McrBatch& batch)
    : batch_(batch),
      best_t_(cycle_tokens(batch.tokens_, batch.nominal_cycle_)),
      dcert_(batch.nominal_d_) {
  if (batch.nominal_cycle_.size() > 2) learn(batch.nominal_cycle_);
}

void McrBatch::Block::learn(std::span<const uint32_t> cycle) {
  learned_arc_.insert(learned_arc_.end(), cycle.begin(), cycle.end());
  learned_off_.push_back(static_cast<uint32_t>(learned_arc_.size()));
  learned_tok_.push_back(cycle_tokens(batch_.tokens_, cycle));
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
    if (ratio_gt(gd, b.seed_group_tok_[g], bd, bt)) {
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
    if (ratio_gt(d, learned_tok_[c], bd, bt)) {
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
  set_lambda(bd, bt);  // -1/1 when the dictionary is empty
}

void McrBatch::Block::set_lambda(int64_t d, int64_t t) {
  const int64_t common = std::gcd(d, t);
  d /= common;
  t /= common;
  if (best_t_ % t != 0) {
    for (int64_t& p : dcert_) p = rescale(p, t, best_t_);
    best_t_ = t;
  }
  best_d_ = d * (best_t_ / t);
}

bool McrBatch::Block::raise_cycle(std::span<const Ps> row) {
  const McrBatch& b = batch_;
  const uint32_t n = b.num_nodes_;
  // A walk follows raise arcs from an unvisited node until it reaches a
  // node never raised or one visited before; stamps above `base` mark the
  // nodes of this search, and a walk that meets its own stamp went around
  // a cycle.
  if (walk_ > UINT32_MAX - n) {  // stamps about to wrap: start afresh
    std::fill(visit_.begin(), visit_.end(), 0);
    walk_ = 0;
  }
  DESYN_ASSERT(*std::max_element(dcert_.begin(), dcert_.end()) <
                   kPotentialCap,
               "certificate potentials outgrew 64 bits");
  const uint32_t base = walk_;
  bool found = false;
  for (uint32_t u = 0; u < n; ++u) {
    if (raised_by_[u] == kNoArc || visit_[u] > base) continue;
    const uint32_t id = ++walk_;
    uint32_t x = u;
    while (raised_by_[x] != kNoArc && visit_[x] <= base) {
      visit_[x] = id;
      x = b.to_[raised_by_[x]];
    }
    if (visit_[x] != id) continue;
    const uint32_t head = x;
    int64_t cd = 0, ct = 0;
    do {
      cd += row[raised_by_[x]];
      ct += b.tokens_[raised_by_[x]];
      x = b.to_[raised_by_[x]];
    } while (x != head);
    if (found && !ratio_gt(cd, ct, cycle_d_, cycle_t_)) continue;
    found = true;
    cycle_d_ = cd;
    cycle_t_ = ct;
    cycle_.clear();
    do {
      cycle_.push_back(raised_by_[x]);
      x = b.to_[raised_by_[x]];
    } while (x != head);
  }
  return found;
}

bool McrBatch::Block::certify(std::span<const Ps> row) {
  const McrBatch& b = batch_;
  const uint32_t n = b.num_nodes_;
  // lambda = ld / lt; the potentials are scaled by lt.
  int64_t ld = best_d_, lt = best_t_;
  auto& d = dcert_;
  auto& q = queue_;
  q.clear();
  in_queue_.assign(n, 0);
  for (uint32_t v = n; v-- > 0;) {
    if (b.csr_off_[v] < b.csr_off_[v + 1]) {
      q.push_back(v);
      in_queue_[v] = 1;
    }
  }
  raised_by_.assign(n, kNoArc);
  visit_.resize(n, 0);
  bool repaired = false;
  size_t search_at = kRaiseSearchFirst * static_cast<size_t>(n);
  size_t head = 0;
  while (head < q.size()) {
    if (head >= search_at) {
      // Once per pass: poll the request token, drop the popped prefix of
      // the worklist (at most n nodes are live), and search the raise arcs.
      cancel_point();
      q.erase(q.begin(), q.begin() + static_cast<ptrdiff_t>(head));
      head = 0;
      search_at = n;
      if (raise_cycle(row)) {
        DESYN_ASSERT(cycle_t_ > 0 && ratio_gt(cycle_d_, cycle_t_, ld, lt),
                     "a raise cycle's ratio must exceed lambda");
        learn(cycle_);
        best_arcs_ = cycle_;
        set_lambda(cycle_d_, cycle_t_);
        ld = best_d_;
        lt = best_t_;
        repaired = true;
        raised_by_.assign(n, kNoArc);
      }
    }
    const uint32_t v = q[head++];
    in_queue_[v] = 0;
    int64_t dv = d[v];
    uint32_t raise = kNoArc;
    for (uint32_t k = b.csr_off_[v]; k < b.csr_off_[v + 1]; ++k) {
      const int64_t val = d[b.cand_to_[k]] + lt * row[b.csr_arc_[k]] -
                          ld * b.cand_tok_[k];
      if (val > dv) {
        dv = val;
        raise = k;
      }
    }
    if (raise == kNoArc) continue;
    d[v] = dv;
    raised_by_[v] = b.csr_arc_[raise];
    for (uint32_t k = b.pred_off_[v]; k < b.pred_off_[v + 1]; ++k) {
      const uint32_t x = b.pred_from_[k];
      if (!in_queue_[x]) {
        in_queue_[x] = 1;
        q.push_back(x);
      }
    }
  }
  return repaired;
}

void McrBatch::Block::solve(std::span<const Ps> row, CycleRatioResult* out) {
  DESYN_ASSERT(row.size() == batch_.num_arcs());
  // A tripped request deadline reaches every solve, cold or sampled.
  cancel_point();
  best_cycle(row);
  ++(certify(row) ? stats_.repaired : stats_.certified);
  // An acyclic graph keeps lambda at -1/1 and no cycle: its ratio is 0.
  out->ratio = best_arcs_.empty() ? 0.0
                                  : static_cast<double>(best_d_) /
                                        static_cast<double>(best_t_);
  out->cycle_arcs.clear();
  for (uint32_t a : best_arcs_) out->cycle_arcs.push_back(ArcId(a));
  canonicalize_cycle(batch_.from_, out);
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

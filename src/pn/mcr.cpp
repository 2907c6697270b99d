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
void canonicalize_cycle(const McrArcs& g, CycleRatioResult* res) {
  std::vector<ArcId>& arcs = res->cycle_arcs;
  if (!arcs.empty()) {
    size_t best = 0;
    for (size_t i = 1; i < arcs.size(); ++i) {
      if (g.from[arcs[i].value()] < g.from[arcs[best].value()]) best = i;
    }
    std::rotate(arcs.begin(), arcs.begin() + static_cast<ptrdiff_t>(best),
                arcs.end());
  }
  res->cycle.clear();
  for (ArcId a : arcs) res->cycle.push_back(TransId(g.from[a.value()]));
}

void set_cycle(const McrArcs& g, std::vector<ArcId> arcs,
               CycleRatioResult* res) {
  res->cycle_arcs = std::move(arcs);
  canonicalize_cycle(g, res);
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

/// Token count of a cycle, at least 1: the scale at which McrBatch adopts
/// the potentials of a Howard solve with that critical cycle (an acyclic
/// graph's potentials are all zero).
int64_t cycle_tokens(std::span<const int32_t> tokens,
                     std::span<const uint32_t> cycle) {
  int64_t t = 0;
  for (uint32_t a : cycle) t += tokens[a];
  return std::max<int64_t>(t, 1);
}

/// Howard's potentials, each scaled by its node's ratio denominator, as
/// certificate potentials at scale t. The critical ratio D/t bounds every
/// node's ratio, so each satisfied arc stays satisfied at D/t.
void adopt_potentials(std::span<const int64_t> d, std::span<const int64_t> rd,
                      int64_t t, std::vector<int64_t>* out) {
  out->resize(d.size());
  for (size_t v = 0; v < d.size(); ++v) (*out)[v] = rescale(d[v], t, rd[v]);
}

// Caps for the Gauss-Seidel fast path (attempt 0 of McrScratch::howard).
// kMaxImproveSweeps bounds the inner sweeps per improve phase: one forward
// plus one backward sweep delivers most of the propagation win, and every
// further full-graph sweep chases a handful of trailing flips that the next
// evaluate+improve round picks up anyway (measured: 2 beats both 1 and
// larger caps on the mesh control graphs). kGsIterCap bounds the outer GS
// iterations: a converging GS run finishes in well under 32, so anything
// longer is the self-referential-propagation cycle described at the attempt
// loop and should restart as plain Jacobi instead of burning the full
// component cap.
constexpr int kMaxImproveSweeps = 2;
constexpr int kGsIterCap = 32;
// Pop budget of the certificate relaxation in McrBatch::Block, as a
// multiple of the node count, over all its repairs. Warm potentials from
// the previous sample settle after two or three node's worth of pops, and
// each repair costs about one more pass; a relaxation still popping past
// the budget falls back to a full Howard solve (a pass costs a small
// fraction of one). On the rpipe128x4 Monte-Carlo model (257 samples,
// seed 3), 8 left 2 samples to Howard, 16 none.
constexpr size_t kCertPopFactor = 16;
// Passes over the nodes (in pops) before the certificate relaxation first
// searches its raise arcs for a cycle above lambda; later searches follow
// once per pass. A settling relaxation rarely outlasts two passes, so the
// searches cost nothing where the dictionary holds the critical cycle.
constexpr size_t kRaiseSearchFirst = 2;
constexpr uint32_t kNoArc = UINT32_MAX;

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
// McrScratch: the delay-independent and per-solve phases of a Howard solve
// ---------------------------------------------------------------------------

int McrScratch::build_structure(const McrArcs& g) {
  McrScratch& s = *this;
  const uint32_t n = g.num_nodes;
  const uint32_t m = static_cast<uint32_t>(g.num_arcs());

  // ---- out-arc CSR (for Tarjan), arc ids ascending per node -------------
  s.out_off_.assign(n + 1, 0);
  for (uint32_t a = 0; a < m; ++a) ++s.out_off_[g.from[a] + 1];
  for (uint32_t v = 0; v < n; ++v) s.out_off_[v + 1] += s.out_off_[v];
  s.out_arc_.resize(m);
  s.csr_off_.assign(s.out_off_.begin(), s.out_off_.end());  // cursor reuse
  for (uint32_t a = 0; a < m; ++a) s.out_arc_[s.csr_off_[g.from[a]]++] = a;

  // ---- iterative Tarjan (large fabrics would overflow the call stack) ---
  s.comp_.assign(n, -1);
  s.index_.assign(n, UINT32_MAX);
  s.low_.assign(n, 0);
  s.on_stack_.assign(n, 0);
  s.stack_.clear();
  struct Frame {
    uint32_t v;
    uint32_t next_out;
  };
  std::vector<Frame> work;
  uint32_t next_index = 0;
  int comps = 0;
  for (uint32_t root = 0; root < n; ++root) {
    if (s.index_[root] != UINT32_MAX) continue;
    work.push_back({root, 0});
    while (!work.empty()) {
      uint32_t v = work.back().v;
      if (work.back().next_out == 0) {
        s.index_[v] = s.low_[v] = next_index++;
        s.stack_.push_back(v);
        s.on_stack_[v] = 1;
      }
      bool descended = false;
      while (s.out_off_[v] + work.back().next_out < s.out_off_[v + 1]) {
        uint32_t w = g.to[s.out_arc_[s.out_off_[v] + work.back().next_out]];
        ++work.back().next_out;
        if (s.index_[w] == UINT32_MAX) {
          work.push_back({w, 0});
          descended = true;
          break;
        }
        if (s.on_stack_[w]) s.low_[v] = std::min(s.low_[v], s.index_[w]);
      }
      if (descended) continue;
      if (s.low_[v] == s.index_[v]) {
        for (;;) {
          uint32_t w = s.stack_.back();
          s.stack_.pop_back();
          s.on_stack_[w] = 0;
          s.comp_[w] = comps;
          if (w == v) break;
        }
        ++comps;
      }
      work.pop_back();
      if (!work.empty()) {
        s.low_[work.back().v] = std::min(s.low_[work.back().v], s.low_[v]);
      }
    }
  }

  // ---- intra-SCC out-arc CSR (policy candidates), arc ids ascending -----
  s.csr_off_.assign(n + 1, 0);
  for (uint32_t a = 0; a < m; ++a) {
    if (s.comp_[g.from[a]] == s.comp_[g.to[a]]) ++s.csr_off_[g.from[a] + 1];
  }
  for (uint32_t v = 0; v < n; ++v) s.csr_off_[v + 1] += s.csr_off_[v];
  s.csr_arc_.resize(s.csr_off_[n]);
  s.index_.assign(s.csr_off_.begin(), s.csr_off_.end() - 1);  // cursor reuse
  for (uint32_t a = 0; a < m; ++a) {
    if (s.comp_[g.from[a]] == s.comp_[g.to[a]]) {
      s.csr_arc_[s.index_[g.from[a]]++] = a;
    }
  }

  // ---- members grouped by component, node ids ascending within ----------
  s.comp_off_.assign(static_cast<size_t>(comps) + 1, 0);
  for (uint32_t v = 0; v < n; ++v) ++s.comp_off_[static_cast<size_t>(s.comp_[v]) + 1];
  for (int c = 0; c < comps; ++c) s.comp_off_[static_cast<size_t>(c) + 1] += s.comp_off_[static_cast<size_t>(c)];
  s.members_.resize(n);
  s.low_.assign(s.comp_off_.begin(), s.comp_off_.end() - 1);  // cursor reuse
  for (uint32_t v = 0; v < n; ++v) {
    s.members_[s.low_[static_cast<size_t>(s.comp_[v])]++] = v;
  }
  return comps;
}

void McrScratch::init_policy_cold(const McrArcs& g) {
  McrScratch& s = *this;
  const uint32_t n = g.num_nodes;
  s.policy_.assign(n, kNoArc);
  s.rn_.assign(n, 0);
  s.rd_.assign(n, 1);
  s.d_.assign(n, 0);
  for (uint32_t v = 0; v < n; ++v) {
    if (s.csr_off_[v] < s.csr_off_[v + 1]) {
      s.policy_[v] = s.csr_arc_[s.csr_off_[v]];
    }
  }
  s.state_.assign(n, 0);  // sized here; howard() resets it per component
}

CycleRatioResult McrScratch::howard(const McrArcs& g, int comps) {
  McrScratch& s = *this;
  DESYN_ASSERT(g.to.size() == g.from.size() &&
               g.tokens.size() == g.from.size() &&
               g.delay.size() == g.from.size());
  // A potential sums at most one weight rd * delay - rn * tokens per node
  // along a policy path, with rd <= n * max_tokens and rn <= n * max_delay,
  // so it stays below 2 n^2 max_delay max_tokens. The bound leaves three
  // orders of magnitude for the batch certificate, whose potentials start
  // from these and rise by at most one such weight per pop.
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

  // ---- Howard per component ---------------------------------------------
  int64_t best_n = 0, best_d = 1;
  std::vector<uint32_t> best_arcs;
  for (int c = 0; c < comps; ++c) {
    const uint32_t mb = s.comp_off_[static_cast<size_t>(c)];
    const uint32_t me = s.comp_off_[static_cast<size_t>(c) + 1];
    // Singleton components without a self-loop contain no cycle.
    if (me - mb == 1 && s.policy_[s.members_[mb]] == kNoArc) continue;
    for (uint32_t i = mb; i < me; ++i) {
      DESYN_ASSERT(s.policy_[s.members_[i]] != kNoArc,
                   "SCC node without an intra-component out-arc");
    }
    // With exact comparisons every policy improvement is strict, so plain
    // Jacobi iteration cannot cycle; Howard converges in a handful of
    // iterations in practice, and the cap only bounds a broken invariant.
    const int cap = 64 + 4 * static_cast<int>(me - mb);
    int64_t comp_n = 0, comp_d = 1;
    size_t comp_best_off = 0, comp_best_len = 0;
    bool converged = false;
    for (int attempt = 0; attempt < 2 && !converged; ++attempt) {
    // Attempt 0 accelerates improvement with Gauss-Seidel sweeps (immediate
    // value updates, alternating direction). GS collapses the improvement
    // chains that plain Jacobi resolves one hop per evaluate, but mutual
    // r-propagation can occasionally close a self-referential policy cycle
    // whose true ratio is below the propagated values — evaluate then
    // lowers r and the flips repeat, exact values or not. Attempt 1
    // therefore restarts the component cold and runs the plain Jacobi
    // improvement (one un-propagated pass per phase), which converges.
    const bool gs = attempt == 0;
    const int acap = gs ? kGsIterCap : cap;
    if (attempt == 1) {
      for (uint32_t i = mb; i < me; ++i) {
        uint32_t v = s.members_[i];
        s.policy_[v] =
            s.csr_off_[v] < s.csr_off_[v + 1] ? s.csr_arc_[s.csr_off_[v]]
                                              : kNoArc;
        s.rn_[v] = 0;
        s.rd_[v] = 1;
        s.d_[v] = 0;
      }
    }
    for (int iter = 0; iter < acap; ++iter) {
      // Deadline/cancel probe: policy iteration is the only unbounded-ish
      // loop in the flow's hot path, so a tripped request token must be
      // able to abort a solve mid-component.
      cancel_point();
      // -- evaluate: score the policy graph, track its best cycle --------
      comp_best_len = 0;
      for (uint32_t i = mb; i < me; ++i) s.state_[s.members_[i]] = 0;
      s.cycle_.clear();
      for (uint32_t i = mb; i < me; ++i) {
        uint32_t v0 = s.members_[i];
        if (s.state_[v0] != 0) continue;
        s.path_.clear();
        uint32_t u = v0;
        while (s.state_[u] == 0) {
          s.state_[u] = 1;
          s.path_.push_back(u);
          u = g.to[s.policy_[u]];
        }
        size_t start = s.path_.size();  // first index of the new cycle
        if (s.state_[u] == 1) {
          // Found a fresh policy cycle beginning at u; score it as a
          // reduced fraction, so equal ratios have equal pairs.
          while (start > 0 && s.path_[start - 1] != u) --start;
          --start;
          int64_t dsum = 0, tsum = 0;
          for (size_t k = start; k < s.path_.size(); ++k) {
            uint32_t a = s.policy_[s.path_[k]];
            dsum += g.delay[a];
            tsum += g.tokens[a];
          }
          DESYN_ASSERT(tsum > 0, "token-free cycle in a live marked graph");
          const int64_t common = std::gcd(dsum, tsum);
          const int64_t cn = dsum / common, cd = tsum / common;
          if (comp_best_len == 0 || ratio_gt(cn, cd, comp_n, comp_d)) {
            comp_n = cn;
            comp_d = cd;
            comp_best_off = s.cycle_.size();
            comp_best_len = s.path_.size() - start;
            for (size_t k = start; k < s.path_.size(); ++k) {
              s.cycle_.push_back(s.policy_[s.path_[k]]);
            }
          }
          // Anchor d at the cycle head and walk the cycle forward. Every
          // potential is scaled by its node's ratio denominator: the step
          // rd * delay - rn * tokens is an integer, and it sums to zero
          // around the cycle.
          int64_t dv = 0;
          for (size_t k = start; k < s.path_.size(); ++k) {
            uint32_t w = s.path_[k];
            uint32_t a = s.policy_[w];
            s.rn_[w] = cn;
            s.rd_[w] = cd;
            s.d_[w] = dv;
            dv -= cd * g.delay[a] - cn * g.tokens[a];
          }
        }
        // Nodes draining into the cycle (or into an already-evaluated
        // region) inherit ratio and accumulate potential, tail first.
        for (size_t k = start; k-- > 0;) {
          uint32_t w = s.path_[k];
          uint32_t a = s.policy_[w];
          uint32_t succ = g.to[a];
          s.rn_[w] = s.rn_[succ];
          s.rd_[w] = s.rd_[succ];
          s.d_[w] = s.rd_[w] * g.delay[a] - s.rn_[w] * g.tokens[a] +
                    s.d_[succ];
        }
        for (uint32_t w : s.path_) s.state_[w] = 2;
      }
      // -- improve: better cycle ratio first, then better potential.
      // Convergence is judged on evaluated values either way: an iteration
      // whose first ratio sweep and first potential sweep flip nothing is
      // converged (with one sweep and no value writes, the gs = false body
      // is exactly the classic Jacobi improvement pass).
      bool improved = false;
      for (int sweep = 0; sweep < (gs ? kMaxImproveSweeps : 1); ++sweep) {
        bool any = false;
        const bool fwd = (sweep % 2) == 0;
        for (uint32_t step = 0; step < me - mb; ++step) {
          uint32_t v = s.members_[fwd ? mb + step : me - 1 - step];
          int64_t bn = s.rn_[v], bd = s.rd_[v];
          uint32_t ba = s.policy_[v];
          for (uint32_t k = s.csr_off_[v]; k < s.csr_off_[v + 1]; ++k) {
            uint32_t a = s.csr_arc_[k];
            uint32_t w = g.to[a];
            if (ratio_gt(s.rn_[w], s.rd_[w], bn, bd)) {
              bn = s.rn_[w];
              bd = s.rd_[w];
              ba = a;
            }
          }
          if (ba != s.policy_[v]) {
            s.policy_[v] = ba;
            if (gs) {
              s.rn_[v] = bn;
              s.rd_[v] = bd;
            }
            any = true;
            improved = true;
          }
        }
        if (!any) break;
      }
      if (!improved) {
        // No arc leads to a larger ratio, so every candidate arc's head has
        // a ratio at most its tail's; the potential step compares only
        // arcs between equal ratios, whose potentials share a scale.
        for (int sweep = 0; sweep < (gs ? kMaxImproveSweeps : 1); ++sweep) {
          bool any = false;
          const bool fwd = (sweep % 2) == 0;
          for (uint32_t step = 0; step < me - mb; ++step) {
            uint32_t v = s.members_[fwd ? mb + step : me - 1 - step];
            const int64_t vn = s.rn_[v], vd = s.rd_[v];
            int64_t bd = s.d_[v];
            uint32_t ba = s.policy_[v];
            for (uint32_t k = s.csr_off_[v]; k < s.csr_off_[v + 1]; ++k) {
              uint32_t a = s.csr_arc_[k];
              uint32_t w = g.to[a];
              if (s.rn_[w] != vn || s.rd_[w] != vd) continue;
              const int64_t val =
                  s.d_[w] + vd * g.delay[a] - vn * g.tokens[a];
              if (val > bd) {
                bd = val;
                ba = a;
              }
            }
            if (ba != s.policy_[v]) {
              s.policy_[v] = ba;
              if (gs) s.d_[v] = bd;
              any = true;
              improved = true;
            }
          }
          if (!any) break;
        }
      }
      if (!improved) {
        converged = true;
        break;
      }
    }
    }
    DESYN_ASSERT(converged, "Howard's policy iteration exceeded its cap");
    if (best_arcs.empty() || ratio_gt(comp_n, comp_d, best_n, best_d)) {
      best_n = comp_n;
      best_d = comp_d;
      best_arcs.assign(
          s.cycle_.begin() + static_cast<ptrdiff_t>(comp_best_off),
          s.cycle_.begin() +
              static_cast<ptrdiff_t>(comp_best_off + comp_best_len));
    }
  }

  CycleRatioResult res;
  if (best_arcs.empty()) {
    res.ratio = 0.0;  // acyclic graph: nothing bounds the throughput
    return res;
  }
  std::vector<ArcId> arcs;
  arcs.reserve(best_arcs.size());
  for (uint32_t a : best_arcs) arcs.push_back(ArcId(a));
  res.ratio = cycle_ratio(g, arcs);  // exact D/T of the critical cycle
  set_cycle(g, std::move(arcs), &res);
  return res;
}

// ---------------------------------------------------------------------------
// The cold flat solve
// ---------------------------------------------------------------------------

CycleRatioResult max_cycle_ratio(const McrArcs& g) {
  DESYN_ASSERT(g.to.size() == g.from.size() &&
               g.tokens.size() == g.from.size() &&
               g.delay.size() == g.from.size());
  McrScratch s;
  const int comps = s.build_structure(g);
  s.init_policy_cold(g);
  return s.howard(g, comps);
}

// ---------------------------------------------------------------------------
// McrBatch: structure-shared batch solves for Monte-Carlo sweeps
// ---------------------------------------------------------------------------

McrBatch::McrBatch(const McrArcs& g)
    : num_nodes_(g.num_nodes),
      from_(g.from.begin(), g.from.end()),
      to_(g.to.begin(), g.to.end()),
      tokens_(g.tokens.begin(), g.tokens.end()) {
  DESYN_ASSERT(g.to.size() == from_.size() &&
               g.tokens.size() == from_.size() &&
               g.delay.size() == from_.size());
  comps_ = structure_.build_structure(g);

  const uint32_t n = num_nodes_;
  const McrScratch& s = structure_;
  for (uint32_t a : s.csr_arc_) {
    cand_to_.push_back(to_[a]);
    cand_tok_.push_back(tokens_[a]);
  }

  // Predecessor index over the intra-SCC candidate arcs (certificate
  // worklist: raising d[v] can only violate arcs *into* v).
  pred_off_.assign(n + 1, 0);
  for (uint32_t v : cand_to_) ++pred_off_[v + 1];
  for (uint32_t v = 0; v < n; ++v) pred_off_[v + 1] += pred_off_[v];
  pred_from_.resize(pred_off_[n]);
  {
    std::vector<uint32_t> fill(pred_off_.begin(), pred_off_.end() - 1);
    for (uint32_t v = 0; v < n; ++v) {
      for (uint32_t k = s.csr_off_[v]; k < s.csr_off_[v + 1]; ++k) {
        pred_from_[fill[cand_to_[k]]++] = v;
      }
    }
  }

  // The nominal solve: its converged potentials and critical cycle start
  // every block's certificate, so no block pays a cold Howard solve.
  {
    McrScratch nominal = structure_;
    nominal.init_policy_cold(g);
    const CycleRatioResult r = nominal.howard(g, comps_);
    for (ArcId a : r.cycle_arcs) nominal_cycle_.push_back(a.value());
    adopt_potentials(nominal.d_, nominal.rd_,
                     cycle_tokens(tokens_, nominal_cycle_), &nominal_d_);
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
    for (uint32_t k = s.csr_off_[u]; k < s.csr_off_[u + 1]; ++k) {
      uint32_t a = s.csr_arc_[k];
      uint32_t v = to_[a];
      if (v == u) {
        if (tokens_[a] > 0) seeds.push_back({2 * int64_t{tokens_[a]}, a, a});
      } else if (v > u) {
        for (uint32_t j = s.csr_off_[v]; j < s.csr_off_[v + 1]; ++j) {
          uint32_t b = s.csr_arc_[j];
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
}

CycleRatioResult McrBatch::solve_one_cold(
    std::span<const Ps> delay_row) const {
  DESYN_ASSERT(delay_row.size() == num_arcs());
  return max_cycle_ratio(row_view(delay_row));
}

// Per-block Monte-Carlo state for the certificate fast path. Adjacent
// samples perturb the same nominal delays, so the critical cycle is drawn
// from a tiny per-block dictionary (the seeds plus every longer cycle this
// block ever found), and a converged solve's potentials remain a near-valid
// optimality certificate for the next sample's delays.
//
// A sample is solved *without* Howard when (a) the best dictionary cycle
// under its delays — an exact integer D/T comparison — yields lambda =
// D/T, and (b) relaxing the inherited potentials settles every intra-SCC
// candidate arc into P[v] >= P[w] + T * delay(a) - D * tokens(a), the
// inequality Howard's own convergence establishes, with the potentials P
// scaled by T. Summing it around any cycle bounds every cycle ratio by
// lambda, so the certificate pins the exact ratio a cold solve returns,
// bit for bit (property-tested).
//
// When the critical cycle is missing from the dictionary, the potentials
// rise around it without bound. Each raise records the arc it came through
// (raised_by_), and every cycle of those arcs has positive weight under
// lambda, i.e. a ratio strictly above it: along each recorded arc P[v] <=
// P[w] + weight holds from the raise on, because P[w] only rises, and the
// arc that closed the cycle raised its tail. Once a relaxation outlasts
// kRaiseSearchFirst passes over the nodes, the raise arcs are searched for
// cycles once per further pass (linear in the nodes). The best cycle found
// joins the dictionary, lambda rises to its exact ratio (set_lambda), and
// the relaxation goes on from the current potentials: every node off the
// worklist still satisfies its arcs at the larger lambda. Only a
// relaxation that exhausts its pop budget falls back to a warm Howard
// solve, which then grows the dictionary and refreshes the potentials.
McrBatch::Block::Block(const McrBatch& batch)
    : batch_(batch),
      s_(batch.structure_),
      best_t_(cycle_tokens(batch.tokens_, batch.nominal_cycle_)),
      dcert_(batch.nominal_d_) {
  if (batch.nominal_cycle_.size() > 2) learn(batch.nominal_cycle_);
}

void McrBatch::Block::learn(std::span<const uint32_t> cycle) {
  learned_arc_.insert(learned_arc_.end(), cycle.begin(), cycle.end());
  learned_off_.push_back(static_cast<uint32_t>(learned_arc_.size()));
  learned_tok_.push_back(cycle_tokens(batch_.tokens_, cycle));
}

bool McrBatch::Block::known(std::span<const ArcId> cycle) const {
  // Every token-carrying cycle of one or two arcs is a seed.
  if (cycle.size() <= 2) return true;
  for (size_t c = 0; c + 1 < learned_off_.size(); ++c) {
    if (std::equal(learned_arc_.begin() + learned_off_[c],
                   learned_arc_.begin() + learned_off_[c + 1], cycle.begin(),
                   cycle.end(),
                   [](uint32_t a, ArcId b) { return a == b.value(); })) {
      return true;
    }
  }
  return false;
}

bool McrBatch::Block::best_cycle(std::span<const Ps> row) {
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
  } else {
    return false;
  }
  set_lambda(bd, bt);
  return true;
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
  if (found) {
    // Canonical rotation (smallest tail first), as Howard's cycles have.
    std::rotate(cycle_.begin(),
                std::min_element(cycle_.begin(), cycle_.end(),
                                 [&](uint32_t p, uint32_t q) {
                                   return b.from_[p] < b.from_[q];
                                 }),
                cycle_.end());
  }
  return found;
}

McrBatch::Block::Cert McrBatch::Block::certify(std::span<const Ps> row) {
  const McrBatch& b = batch_;
  const McrScratch& s = s_;
  const uint32_t n = b.num_nodes_;
  // lambda = ld / lt; the potentials are scaled by lt.
  int64_t ld = best_d_, lt = best_t_;
  auto& d = dcert_;
  auto& q = queue_;
  q.clear();
  in_queue_.assign(n, 0);
  for (uint32_t i = n; i-- > 0;) {
    const uint32_t v = i;
    if (s.csr_off_[v] < s.csr_off_[v + 1]) {
      q.push_back(v);
      in_queue_[v] = 1;
    }
  }
  raised_by_.assign(n, kNoArc);
  visit_.resize(n, 0);
  bool repaired = false;
  const size_t budget = kCertPopFactor * static_cast<size_t>(n) + 64;
  size_t search_at = kRaiseSearchFirst * static_cast<size_t>(n);
  size_t head = 0;
  while (head < q.size()) {
    if (head > budget) return Cert::Failed;
    if (head >= search_at) {
      search_at = head + n;
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
    for (uint32_t k = s.csr_off_[v]; k < s.csr_off_[v + 1]; ++k) {
      const int64_t val = d[b.cand_to_[k]] + lt * row[s.csr_arc_[k]] -
                          ld * b.cand_tok_[k];
      if (val > dv) {
        dv = val;
        raise = k;
      }
    }
    if (raise == kNoArc) continue;
    d[v] = dv;
    raised_by_[v] = s.csr_arc_[raise];
    for (uint32_t k = b.pred_off_[v]; k < b.pred_off_[v + 1]; ++k) {
      const uint32_t x = b.pred_from_[k];
      if (!in_queue_[x]) {
        in_queue_[x] = 1;
        q.push_back(x);
      }
    }
  }
  return repaired ? Cert::Repaired : Cert::Certified;
}

void McrBatch::Block::solve(std::span<const Ps> row, CycleRatioResult* out) {
  DESYN_ASSERT(row.size() == batch_.num_arcs());
  // A tripped request deadline reaches the samples of every worker.
  cancel_point();
  const McrArcs g = batch_.row_view(row);
  if (best_cycle(row)) {
    const Cert c = certify(row);
    if (c != Cert::Failed) {
      ++(c == Cert::Repaired ? stats_.repaired : stats_.certified);
      out->ratio = static_cast<double>(best_d_) / static_cast<double>(best_t_);
      out->cycle_arcs.clear();
      for (uint32_t a : best_arcs_) out->cycle_arcs.push_back(ArcId(a));
      canonicalize_cycle(g, out);
      return;
    }
  }
  if (cold_) s_.init_policy_cold(g);
  cold_ = false;
  ++stats_.howard;
  *out = s_.howard(g, batch_.comps_);
  cycle_.clear();
  for (ArcId a : out->cycle_arcs) cycle_.push_back(a.value());
  if (!known(out->cycle_arcs)) learn(cycle_);
  // The converged potentials certify this solve's per-component ratios;
  // with the global lambda only larger on token-bearing arcs, they remain
  // a valid starting certificate.
  best_t_ = cycle_tokens(batch_.tokens_, cycle_);
  adopt_potentials(s_.d_, s_.rd_, best_t_, &dcert_);
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

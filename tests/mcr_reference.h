// The maximum-cycle-ratio oracle: exact Bellman-Ford positive-cycle
// detection, sharing no code with the production certificate climb
// (pn::max_cycle_ratio and pn::McrBatch). test_pn checks the cold solve and
// every Monte-Carlo sample against it; bench_mcr races it against the cold
// solve.
//
// At lambda = D/T a cycle is positive under the integer arc weights
// T * delay - D * tokens exactly when its ratio exceeds lambda. The search
// starts at lambda = -1/1, where every cycle of a live graph weighs
// D + T >= 1, so it finds a cycle whenever there is one (zero delays
// included). It then climbs: it adopts the found cycle's exact ratio and
// searches again, until no positive cycle remains. Each step raises lambda
// strictly and there are finitely many cycles, so the last cycle found is
// critical.
#pragma once

#include <algorithm>
#include <vector>

#include "pn/analysis.h"
#include "pn/mcr.h"

namespace desyn::pn {

/// Longest-path Bellman-Ford relaxation under the weights T * delay -
/// D * tokens. Returns the arcs of a positive cycle in cycle order, or an
/// empty vector if there is none. Every cycle of the predecessor graph is
/// positive, and while a positive cycle keeps raising the distances the
/// predecessor graph cannot stay acyclic; it is searched after each pass.
inline std::vector<ArcId> positive_cycle(const McrArcs& g, int64_t D,
                                         int64_t T) {
  const uint32_t n = g.num_nodes;
  std::vector<int64_t> dist(n, 0);
  std::vector<uint32_t> parent(n, UINT32_MAX);
  std::vector<uint32_t> seen(n, 0);
  for (;;) {
    bool changed = false;
    for (size_t a = 0; a < g.num_arcs(); ++a) {
      const int64_t nd = dist[g.from[a]] + T * g.delay[a] - D * g.tokens[a];
      if (nd > dist[g.to[a]]) {
        dist[g.to[a]] = nd;
        parent[g.to[a]] = static_cast<uint32_t>(a);
        changed = true;
      }
    }
    if (!changed) return {};
    // Walk the predecessor graph from every node; a walk that meets its
    // own stamp closed a cycle.
    std::fill(seen.begin(), seen.end(), 0);
    for (uint32_t v = 0; v < n; ++v) {
      uint32_t u = v;
      while (parent[u] != UINT32_MAX && seen[u] == 0) {
        seen[u] = v + 1;
        u = g.from[parent[u]];
      }
      if (parent[u] == UINT32_MAX || seen[u] != v + 1) continue;
      std::vector<ArcId> cycle;
      const uint32_t head = u;
      do {
        cycle.push_back(ArcId(parent[u]));
        u = g.from[parent[u]];
      } while (u != head);
      std::reverse(cycle.begin(), cycle.end());
      return cycle;
    }
  }
}

/// The oracle on a flat graph: a genuinely critical cycle, rotated to start
/// at its smallest transition like the solvers' cycles, with its exact D/T
/// as the ratio. An acyclic graph yields ratio 0 and an empty cycle.
inline CycleRatioResult reference_flat(const McrArcs& g) {
  CycleRatioResult res;
  for (int64_t D = -1, T = 1;;) {
    std::vector<ArcId> better = positive_cycle(g, D, T);
    if (better.empty()) break;
    res.cycle_arcs = std::move(better);
    D = T = 0;
    for (ArcId a : res.cycle_arcs) {
      D += g.delay[a.value()];
      T += g.tokens[a.value()];
    }
  }
  if (res.cycle_arcs.empty()) return res;
  for (ArcId a : res.cycle_arcs) {
    res.delay += g.delay[a.value()];
    res.tokens += g.tokens[a.value()];
  }
  res.ratio = cycle_ratio(g, res.cycle_arcs);
  std::rotate(res.cycle_arcs.begin(),
              std::min_element(res.cycle_arcs.begin(), res.cycle_arcs.end(),
                               [&](ArcId p, ArcId q) {
                                 return g.from[p.value()] < g.from[q.value()];
                               }),
              res.cycle_arcs.end());
  for (ArcId a : res.cycle_arcs) {
    res.cycle.push_back(TransId(g.from[a.value()]));
  }
  return res;
}

inline CycleRatioResult max_cycle_ratio_reference(const MarkedGraph& mg) {
  DESYN_ASSERT(is_live(mg),
               "max_cycle_ratio_reference requires a live marked graph");
  return reference_flat(flatten(mg).view());
}

}  // namespace desyn::pn

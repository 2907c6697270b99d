#include "pn/analysis.h"

#include <algorithm>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <queue>

namespace desyn::pn {

namespace {

/// DFS cycle detection over the subgraph of arcs satisfying `use_arc`.
bool has_cycle(const MarkedGraph& mg,
               const std::function<bool(const Arc&)>& use_arc) {
  enum class Color : uint8_t { White, Grey, Black };
  std::vector<Color> color(mg.num_transitions(), Color::White);
  std::vector<std::pair<uint32_t, size_t>> stack;  // (transition, next out idx)
  for (uint32_t s = 0; s < mg.num_transitions(); ++s) {
    if (color[s] != Color::White) continue;
    stack.push_back({s, 0});
    color[s] = Color::Grey;
    while (!stack.empty()) {
      auto& [t, idx] = stack.back();
      const auto& outs = mg.transition(TransId(t)).out;
      bool descended = false;
      while (idx < outs.size()) {
        const Arc& a = mg.arc(outs[idx]);
        ++idx;
        if (!use_arc(a)) continue;
        uint32_t v = a.to.value();
        if (color[v] == Color::Grey) return true;
        if (color[v] == Color::White) {
          color[v] = Color::Grey;
          stack.push_back({v, 0});
          descended = true;
          break;
        }
      }
      if (!descended) {
        color[t] = Color::Black;
        stack.pop_back();
      }
    }
  }
  return false;
}

}  // namespace

bool is_live(const MarkedGraph& mg) {
  return !has_cycle(mg, [](const Arc& a) { return a.tokens == 0; });
}

int place_bound(const MarkedGraph& mg, ArcId a) {
  // Min-token path from head(a) back to tail(a); plus a's own tokens.
  const Arc& target = mg.arc(a);
  const uint32_t n = static_cast<uint32_t>(mg.num_transitions());
  constexpr int kInf = std::numeric_limits<int>::max() / 2;
  std::vector<int> dist(n, kInf);
  using Item = std::pair<int, uint32_t>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> pq;
  dist[target.to.value()] = 0;
  pq.push({0, target.to.value()});
  while (!pq.empty()) {
    auto [d, t] = pq.top();
    pq.pop();
    if (d > dist[t]) continue;
    for (ArcId out : mg.transition(TransId(t)).out) {
      const Arc& arc = mg.arc(out);
      int nd = d + arc.tokens;
      if (nd < dist[arc.to.value()]) {
        dist[arc.to.value()] = nd;
        pq.push({nd, arc.to.value()});
      }
    }
  }
  if (dist[target.from.value()] >= kInf) return -1;
  return dist[target.from.value()] + target.tokens;
}

bool is_safe(const MarkedGraph& mg) {
  // Bound of the place on arc a = u -> v: a's tokens plus the fewest
  // tokens on a path v ~> u. Safety needs it to be exactly 1 for every
  // arc, so group arcs by head and run one 0-1 BFS per distinct head
  // (min-token distances to every tail at once), buffers reused.
  const uint32_t n = static_cast<uint32_t>(mg.num_transitions());
  std::vector<std::vector<ArcId>> by_head(n);
  for (uint32_t i = 0; i < mg.num_arcs(); ++i) {
    const Arc& a = mg.arc(ArcId(i));
    if (a.tokens >= 2) return false;
    by_head[a.to.value()].push_back(ArcId(i));
  }
  constexpr int kInf = std::numeric_limits<int>::max();
  std::vector<int> dist(n, kInf);
  std::vector<uint32_t> seen;  // nodes whose dist is set, for the reset
  std::deque<uint32_t> dq;
  for (uint32_t v = 0; v < n; ++v) {
    if (by_head[v].empty()) continue;
    for (uint32_t t : seen) dist[t] = kInf;
    seen.clear();
    dist[v] = 0;
    seen.push_back(v);
    dq.push_back(v);
    while (!dq.empty()) {
      uint32_t t = dq.front();
      dq.pop_front();
      for (ArcId out : mg.transition(TransId(t)).out) {
        const Arc& arc = mg.arc(out);
        const int nd = dist[t] + arc.tokens;  // tokens are 0 or 1 here
        const uint32_t w = arc.to.value();
        if (nd >= dist[w]) continue;
        if (dist[w] == kInf) seen.push_back(w);
        dist[w] = nd;
        if (arc.tokens == 0) {
          dq.push_front(w);
        } else {
          dq.push_back(w);
        }
      }
    }
    for (ArcId a : by_head[v]) {
      const Arc& arc = mg.arc(a);
      const int d = dist[arc.from.value()];
      if (d == kInf || d + arc.tokens != 1) return false;
    }
  }
  return true;
}

ReachResult explore(const MarkedGraph& mg, uint64_t max_states) {
  ReachResult res;
  std::map<Marking, bool> seen;
  std::queue<Marking> frontier;
  Marking m0 = mg.initial_marking();
  seen[m0] = true;
  frontier.push(m0);
  res.states = 1;
  for (int t : m0) res.max_tokens = std::max(res.max_tokens, t);
  while (!frontier.empty()) {
    Marking m = frontier.front();
    frontier.pop();
    for (TransId t : mg.enabled_set(m)) {
      Marking next = m;
      mg.fire(t, next);
      if (seen.emplace(next, true).second) {
        ++res.states;
        for (int tok : next) res.max_tokens = std::max(res.max_tokens, tok);
        if (res.states >= max_states) return res;  // complete stays false
        frontier.push(next);
      }
    }
  }
  res.complete = true;
  return res;
}

long admits_sequence(const MarkedGraph& mg, std::span<const TransId> seq) {
  Marking m = mg.initial_marking();
  for (size_t i = 0; i < seq.size(); ++i) {
    if (!mg.enabled(seq[i], m)) return static_cast<long>(i);
    mg.fire(seq[i], m);
  }
  return -1;
}

}  // namespace desyn::pn

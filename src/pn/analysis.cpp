#include "pn/analysis.h"

#include <algorithm>
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

MinTokenSearch::MinTokenSearch(const MarkedGraph& mg)
    : first_(mg.num_transitions() + 1, 0),
      out_(mg.num_arcs()),
      dist_(mg.num_transitions(), kUnreachable) {
  for (uint32_t i = 0; i < mg.num_arcs(); ++i) {
    ++first_[mg.arc(ArcId(i)).from.value() + 1];
  }
  for (size_t t = 1; t < first_.size(); ++t) first_[t] += first_[t - 1];
  // Arc-id order within each out-list, as MarkedGraph's own out lists.
  std::vector<uint32_t> fill(first_.begin(), first_.end() - 1);
  for (uint32_t i = 0; i < mg.num_arcs(); ++i) {
    const Arc& a = mg.arc(ArcId(i));
    out_[fill[a.from.value()]++] = {a.to.value(), a.tokens};
  }
}

const std::vector<int>& MinTokenSearch::from(TransId src, int bound) {
  for (uint32_t t : seen_) dist_[t] = kUnreachable;
  seen_.clear();
  const uint32_t s = src.value();
  dist_[s] = 0;
  seen_.push_back(s);
  dq_.push_back(s);
  while (!dq_.empty()) {
    const uint32_t t = dq_.front();
    dq_.pop_front();
    for (uint32_t i = first_[t]; i < first_[t + 1]; ++i) {
      const auto [w, tokens] = out_[i];
      const int nd = dist_[t] + tokens;
      if (nd >= dist_[w] || nd > bound) continue;
      if (dist_[w] == kUnreachable) seen_.push_back(w);
      dist_[w] = nd;
      if (tokens == 0) {
        dq_.push_front(w);
      } else {
        dq_.push_back(w);
      }
    }
  }
  return dist_;
}

bool is_safe(const MarkedGraph& mg) {
  // Bound of the place on arc a = u -> v: a's tokens plus the fewest
  // tokens on a path v ~> u. Safety needs it to be exactly 1 for every
  // arc, so run one search per distinct head (min-token distances to the
  // tails of all its in-arcs at once). No tail may lie further than 1
  // token away, so each search stops there: a tail beyond reads as
  // unreachable, which fails the check just as its true distance would.
  for (uint32_t i = 0; i < mg.num_arcs(); ++i) {
    if (mg.arc(ArcId(i)).tokens >= 2) return false;
  }
  MinTokenSearch search(mg);
  for (uint32_t v = 0; v < mg.num_transitions(); ++v) {
    const std::vector<ArcId>& in = mg.transition(TransId(v)).in;
    if (in.empty()) continue;
    const std::vector<int>& dist = search.from(TransId(v), 1);
    for (ArcId a : in) {
      const Arc& arc = mg.arc(a);
      const int d = dist[arc.from.value()];
      if (d == MinTokenSearch::kUnreachable || d + arc.tokens != 1) {
        return false;
      }
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

// The partition optimizer's candidate ranking: weighted cluster pairs,
// popped best first under one total order (heavier, then the smaller tie
// hash, then the smaller pair), and folded together as clusters merge.
//
// It ranks clusters, not pairs. Each pair has one slot, listed in the rows
// of both its clusters; each cluster keeps its best active pair, and a
// tournament tree over the clusters finds the best of those (the order
// being total, it is its partner's best too). A fold relabels the dying
// cluster's slots in place: nothing goes stale, the slot count never grows.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "base/common.h"
#include "base/rng.h"

namespace desyn::flow {

class ClusterRank {
 public:
  /// A pair, a < b; `failed` if it or a pair folded into it was rejected.
  struct Candidate { int a, b; bool failed; };

  explicit ClusterRank(size_t clusters)
      : n_(std::bit_ceil(clusters)), rows_(clusters), best_(clusters, kNone),
        second_(clusters, 0), dead_(clusters, 0), mark_(clusters, kNone),
        tree_(2 * n_, -1) {
    for (size_t c = 0; c < clusters; ++c) tree_[n_ + c] = static_cast<int>(c);
  }

  /// Adds one to the weight of the pair (a, b), a < b, which starts out
  /// active. Bumps come grouped by a, and all before the first pop.
  void bump(int a, int b) {
    DESYN_ASSERT(!built_ && a < b);
    if (const uint32_t s = mark_[b]; s != kNone && slots_[s].a == a) {
      ++slots_[s].weight;
      return;
    }
    mark_[b] = static_cast<uint32_t>(slots_.size());
    slots_.push_back({tie_hash(a, b), 1, a, b, true, false});
    rows_[a].push_back(mark_[b]);
    rows_[b].push_back(mark_[b]);
  }

  /// Deactivates and returns the best active pair, nullopt once none is
  /// left; reject() or merge() settles it before the next pop.
  std::optional<Candidate> pop() {
    if (!built_) {
      std::fill(mark_.begin(), mark_.end(), kNone);
      for (int c = 0; c < static_cast<int>(rows_.size()); ++c) sweep(c, skip);
      for (size_t i = n_ - 1; i > 0; --i) {
        tree_[i] = winner(tree_[2 * i], tree_[2 * i + 1]);
      }
      built_ = true;
    }
    const int top = tree_[1];
    if (top < 0 || best_[top] == kNone) return std::nullopt;
    popped_ = best_[top];
    slots_[popped_].active = false;
    return best(top);
  }

  /// c's best active pair (none once c died); exact between a settle and
  /// the next pop.
  std::optional<Candidate> best(int c) const {
    if (best_[c] == kNone) return std::nullopt;
    const Slot& s = slots_[best_[c]];
    return Candidate{s.a, s.b, s.failed};
  }

  /// The popped pair failed: it stays inactive, and marked, until a fold
  /// adds weight to it.
  void reject() {
    Slot& s = slots_[popped_];
    s.failed = true;
    rescan(s.a);
    rescan(s.b);
  }

  /// The popped pair (a, b) merged: b dies and each (b, x) folds into an
  /// active (a, x), adding its weight and its failure mark.
  void merge() {
    const int a = slots_[popped_].a, b = slots_[popped_].b;
    // Their best slots change or die in the fold: out of the tree first.
    best_[a] = best_[b] = kNone;
    place(a);
    place(b);
    dead_[b] = 1;
    for (uint32_t s : rows_[b]) {
      if (const int x = partner(s, b); !dead_[x] && x != a) mark_[x] = s;
    }
    // One pass over a's row folds each (b, x) into an existing (a, x),
    // which then outweighs (b, x) and so replaces it as x's best.
    sweep(a, [&](uint32_t ax, int x) {
      const uint32_t bx = std::exchange(mark_[x], kNone);
      if (bx == kNone) return;
      slots_[ax].weight += slots_[bx].weight;
      slots_[ax].active = true;
      slots_[ax].failed |= slots_[bx].failed;
      if (best_[x] == bx) best_[x] = ax;
      if (best_[x] == ax || offer(x, ax)) place(x);
    });
    // b's other pairs become (a, x) in place: same weight, new tie hash,
    // and x's row already lists the slot.
    for (uint32_t s : rows_[b]) {
      const int x = partner(s, b);
      if (mark_[x] != s) continue;  // dead, a, or already folded
      mark_[x] = kNone;
      Slot& ax = slots_[s];
      const int lo = std::min(a, x), hi = std::max(a, x);
      ax = {tie_hash(lo, hi), ax.weight, lo, hi, true, ax.failed};
      rows_[a].push_back(s);
      offer(a, s);
      if (best_[x] == s && second_[x] >= ax.weight) {
        rescan(x);  // another pair of x may now win the weight tie
      } else if (best_[x] == s || offer(x, s)) {
        place(x);
      }
    }
    std::vector<uint32_t>().swap(rows_[b]);
    place(a);
  }

 private:
  static constexpr uint32_t kNone = ~uint32_t{0};

  struct Slot { uint64_t h; int weight, a, b; bool active, failed; };

  /// Slot::h. Pairs of equal weight order by splitmix64 (base/rng.h) of
  /// their packed key, salted with a fixed constant. Changing the salt
  /// reorders ties and so changes the committed partitions.
  static uint64_t tie_hash(int a, int b) {
    constexpr uint64_t kTieSalt = 1;
    return splitmix64(kTieSalt ^ ((uint64_t{static_cast<uint32_t>(a)} << 32) |
                                  static_cast<uint32_t>(b)));
  }

  /// The other end of slot s, which lists cluster c.
  int partner(uint32_t s, int c) const { return slots_[s].a ^ slots_[s].b ^ c; }

  bool better(uint32_t i, uint32_t j) const {
    const Slot &x = slots_[i], &y = slots_[j];
    if (x.weight != y.weight) return x.weight > y.weight;
    if (x.h != y.h) return x.h < y.h;
    return x.a != y.a ? x.a < y.a : x.b < y.b;
  }

  /// Lets active slot s, not c's best, compete for c's best; true if it
  /// won. second_[c] stays an upper bound on the weights of c's other
  /// active pairs, so a best whose tie hash changes keeps its place
  /// without a rescan while it is strictly the heaviest.
  bool offer(int c, uint32_t s) {
    const bool won = best_[c] == kNone || better(s, best_[c]);
    const uint32_t loser = won ? std::exchange(best_[c], s) : s;
    if (loser != kNone) {
      second_[c] = std::max(second_[c], slots_[loser].weight);
    }
    return won;
  }

  /// Drops c's slots whose partner died, visits the rest with their
  /// partners, and then has c's best and second_ exact.
  template <class Visit>
  void sweep(int c, Visit&& visit) {
    std::vector<uint32_t>& row = rows_[c];
    best_[c] = kNone;
    second_[c] = 0;
    size_t kept = 0;
    for (const uint32_t s : row) {
      const int x = partner(s, c);
      if (dead_[x]) continue;
      row[kept++] = s;
      visit(s, x);
      if (slots_[s].active) offer(c, s);
    }
    row.resize(kept);
  }

  static void skip(uint32_t /*slot*/, int /*partner*/) {}
  void rescan(int c) {
    sweep(c, skip);
    place(c);
  }

  /// Of two tree entries, the cluster with the better best slot.
  int winner(int d, int e) const {
    if (e < 0 || best_[e] == kNone) return d;
    if (d < 0 || best_[d] == kNone) return e;
    return better(best_[e], best_[d]) ? e : d;
  }

  /// Replays c's matches after its best changed, up to the first node
  /// whose winner stays another cluster.
  void place(int c) {
    for (size_t i = (n_ + static_cast<size_t>(c)) / 2; i > 0; i /= 2) {
      const int w = winner(tree_[2 * i], tree_[2 * i + 1]);
      if (w == tree_[i] && w != c) return;
      tree_[i] = w;
    }
  }

  size_t n_;  // leaves: clusters, rounded up to a power of two
  std::vector<Slot> slots_;
  std::vector<std::vector<uint32_t>> rows_;  // per cluster: its slots
  std::vector<uint32_t> best_;  // per cluster: best active slot
  std::vector<int> second_;     // per cluster: see offer()
  std::vector<char> dead_;      // per cluster: merged away
  std::vector<uint32_t> mark_;  // bump(), merge(): per partner, a slot
  std::vector<int> tree_;       // node i plays 2i and 2i+1; leaf n_+c is c
  uint32_t popped_ = kNone;
  bool built_ = false;
};

}  // namespace desyn::flow

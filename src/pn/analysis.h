// Structural and behavioral analyses on marked graphs.
//
// Classical results used here (Commoner/Genrich/Murata):
//  * An MG is live iff every directed cycle carries at least one token —
//    equivalently, the subgraph of zero-token arcs is acyclic.
//  * In a live MG, the bound of a place equals the minimum token count over
//    the cycles through it; the MG is safe iff every such minimum is 1.
//
// MinTokenSearch is the one min-token search: is_safe runs it once per arc
// head, bounded at one token, and the linter's protocol contracts
// (check/check.cpp) run it unbounded on the same extracted graph once per
// source bank.
#pragma once

#include <deque>
#include <limits>
#include <span>

#include "pn/petri.h"

namespace desyn::pn {

/// Liveness: no token-free directed cycle.
bool is_live(const MarkedGraph& mg);

/// Token bound of the place on `a`: minimum initial token count over all
/// cycles through `a`. Returns -1 if `a` lies on no cycle (structurally
/// unbounded under repeated firing of its producer).
int place_bound(const MarkedGraph& mg, ArcId a);

/// Fewest tokens on a path from one transition to every transition: a 0-1
/// BFS that re-queues a transition whenever its distance drops, so it is
/// exact for any token counts and linear when every arc carries 0 or 1.
/// The arcs are flattened once into per-transition out-lists, and every
/// search reuses the same buffers, so one search per source stays cheap.
class MinTokenSearch {
 public:
  static constexpr int kUnreachable = std::numeric_limits<int>::max();

  explicit MinTokenSearch(const MarkedGraph& mg);

  /// Distances from `src`, indexed by transition, kUnreachable where no
  /// path exists. With a `bound`, the search stops at that many tokens:
  /// distances up to `bound` are exact, and transitions every path to
  /// which carries more read kUnreachable. Valid until the next call.
  const std::vector<int>& from(TransId src, int bound = kUnreachable);

 private:
  std::vector<uint32_t> first_;  ///< out-list offsets, one per transition + 1
  std::vector<std::pair<uint32_t, int>> out_;  ///< (head, tokens) per arc
  std::vector<int> dist_;
  std::vector<uint32_t> seen_;  ///< transitions whose dist_ is set
  std::deque<uint32_t> dq_;
};

/// Safety: every arc lies on a cycle and has bound 1. Requires liveness.
/// One MinTokenSearch::from per distinct arc head, bounded at 1 token (a
/// longer path already breaks safety); place_bound() is the per-arc
/// oracle.
bool is_safe(const MarkedGraph& mg);

/// Explicit reachability (for small control graphs and conformance tests).
struct ReachResult {
  uint64_t states = 0;    ///< distinct markings found
  bool complete = false;  ///< false if max_states was hit
  int max_tokens = 0;     ///< max tokens observed on any single arc
};
ReachResult explore(const MarkedGraph& mg, uint64_t max_states = 1 << 20);

/// Replay validator: returns the index of the first transition in `seq`
/// that is not enabled when its turn comes (firing all previous ones), or
/// -1 if the entire sequence is admissible from the initial marking.
long admits_sequence(const MarkedGraph& mg, std::span<const TransId> seq);

}  // namespace desyn::pn

// Structural and behavioral analyses on marked graphs.
//
// Classical results used here (Commoner/Genrich/Murata):
//  * An MG is live iff every directed cycle carries at least one token —
//    equivalently, the subgraph of zero-token arcs is acyclic.
//  * In a live MG, the bound of a place equals the minimum token count over
//    the cycles through it; the MG is safe iff every such minimum is 1.
#pragma once

#include <span>

#include "pn/petri.h"

namespace desyn::pn {

/// Liveness: no token-free directed cycle.
bool is_live(const MarkedGraph& mg);

/// Token bound of the place on `a`: minimum initial token count over all
/// cycles through `a`. Returns -1 if `a` lies on no cycle (structurally
/// unbounded under repeated firing of its producer).
int place_bound(const MarkedGraph& mg, ArcId a);

/// Safety: every arc lies on a cycle and has bound 1. Requires liveness.
/// One 0-1 BFS per distinct arc head; place_bound() is the per-arc oracle.
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

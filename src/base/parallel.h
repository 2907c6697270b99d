// The one executor: every fan-out in the flow (sweep cells, Monte-Carlo
// sample blocks) runs through parallel_for. Workers claim granule indices
// from one atomic counter and re-install the caller's cancel token
// (base/cancel.h). The first exception of any type is parked, no further
// granules are handed out, and it is rethrown on the caller once every
// worker has joined.
//
// One jobs budget covers nesting: a worker of a w-worker call with `jobs`
// runs with the thread-local share max(1, jobs / w), and a parallel_for it
// makes is capped at that share (unbounded outside any parallel_for).
#pragma once

#include <cstddef>

namespace desyn {

namespace detail {
void parallel_for(size_t granules, int jobs, const void* fn,
                  void (*call)(const void* fn, size_t granule));
}  // namespace detail

/// Runs fn(g) for every g in [0, granules) on up to min(jobs, this
/// thread's share) threads, the caller among them; with one worker, inline
/// on the caller with no thread and no allocation. `fn` runs concurrently
/// and must only write state owned by its granule (results by index, so
/// output is byte-identical at any job count).
template <class Fn>
void parallel_for(size_t granules, int jobs, const Fn& fn) {
  detail::parallel_for(granules, jobs, &fn, [](const void* f, size_t g) {
    (*static_cast<const Fn*>(f))(g);
  });
}

}  // namespace desyn

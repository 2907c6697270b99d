#include "base/parallel.h"

#include <algorithm>
#include <atomic>
#include <climits>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "base/cancel.h"

namespace desyn::detail {

namespace {
thread_local int t_share = INT_MAX;  // this thread's budget for nested calls
}  // namespace

void parallel_for(size_t granules, int jobs, const void* fn,
                  void (*call)(const void*, size_t)) {
  const int budget = std::max(1, std::min(jobs, t_share));
  const int workers = static_cast<int>(
      std::clamp<size_t>(granules, 1, static_cast<size_t>(budget)));
  const CancelToken* cancel = current_cancel();
  std::atomic<size_t> next{0};
  std::atomic<bool> aborted{false};
  std::exception_ptr error;
  std::mutex error_mu;
  auto park = [&] {
    aborted = true;
    std::lock_guard<std::mutex> lock(error_mu);
    if (!error) error = std::current_exception();
  };
  // The caller runs this loop too; at one worker it is the whole call.
  auto work = [&] {
    CancelScope scope(cancel);
    const int outer_share = std::exchange(t_share, budget / workers);
    try {
      for (size_t g = next++; g < granules && !aborted; g = next++) call(fn, g);
    } catch (...) {
      park();
    }
    t_share = outer_share;
  };

  std::vector<std::thread> pool;
  try {
    for (int w = 1; w < workers; ++w) pool.emplace_back(work);
  } catch (...) {
    park();  // the threads already started still have to be joined
  }
  work();
  for (std::thread& t : pool) t.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace desyn::detail

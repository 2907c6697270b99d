// Deadlines and cooperative cancellation.
//
// A CancelToken carries an optional deadline and a cancel flag; long-running
// code calls `cancel_point()` at loop heads and stage boundaries, which
// throws DeadlineError / CancelledError when the current thread's token has
// tripped. Tokens are installed per thread with a RAII CancelScope rather
// than threaded through signatures: flow stages are keyed by content hashes
// of their *inputs*, and a deadline is not an input — keeping it out of the
// call graph keeps it out of the cache keys by construction.
//
// With no scope installed (the default everywhere outside a svc request),
// `cancel_point()` is a thread-local pointer load and a branch.
#pragma once

#include <atomic>
#include <chrono>

#include "base/common.h"

namespace desyn {

class CancelledError : public Error {
 public:
  CancelledError() : Error("operation cancelled") {}
};

class DeadlineError : public Error {
 public:
  DeadlineError() : Error("deadline exceeded") {}
};

class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Arms a deadline `ms` from now (steady clock). ms <= 0 arms nothing.
  void set_deadline_after_ms(int64_t ms) {
    if (ms <= 0) return;
    deadline_ = std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
    // Release pairs with the acquire in expired(): a thread that sees the
    // flag also sees the deadline value.
    has_deadline_.store(true, std::memory_order_release);
  }
  void cancel() { cancelled_.store(true, std::memory_order_release); }

  bool cancelled() const { return cancelled_.load(std::memory_order_acquire); }
  bool expired() const {
    return has_deadline_.load(std::memory_order_acquire) &&
           std::chrono::steady_clock::now() >= deadline_;
  }
  /// Throws CancelledError / DeadlineError if tripped. Cancellation wins
  /// over expiry so a drain-initiated cancel reports as "cancelled" even on
  /// requests whose deadline has also passed.
  void check() const {
    if (cancelled()) throw CancelledError();
    if (expired()) throw DeadlineError();
  }

 private:
  std::atomic<bool> cancelled_{false};
  std::atomic<bool> has_deadline_{false};
  std::chrono::steady_clock::time_point deadline_{};
};

namespace detail {
/// constinit: no dynamic initialization, so an access needs no TLS wrapper
/// call (GCC's UBSan null check misfires on the wrapper's result).
extern thread_local constinit const CancelToken* t_cancel;
}  // namespace detail

/// Installs `token` as the current thread's cancel token for the scope's
/// lifetime; nests (the previous token is restored on destruction). Pass the
/// result of current_cancel() to a worker thread's scope to propagate the
/// caller's token across the spawn.
class CancelScope {
 public:
  explicit CancelScope(const CancelToken* token) : prev_(detail::t_cancel) {
    detail::t_cancel = token;
  }
  ~CancelScope() { detail::t_cancel = prev_; }
  CancelScope(const CancelScope&) = delete;
  CancelScope& operator=(const CancelScope&) = delete;

 private:
  const CancelToken* prev_;
};

/// The current thread's token, or nullptr when none is installed.
inline const CancelToken* current_cancel() { return detail::t_cancel; }

/// Throws if the current thread's token (if any) has tripped.
inline void cancel_point() {
  if (const CancelToken* t = detail::t_cancel) t->check();
}

}  // namespace desyn

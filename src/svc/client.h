// Thin blocking client for the desyn server (see server.h for the
// protocol). One connection, sequential request/response round trips —
// what the CLI's `submit` subcommand and the stress tests need — plus a
// retrying submit for flaky transports: submissions are content-addressed
// and side-effect-free on the server, so replaying one is always safe.
#pragma once

#include <cstdint>
#include <string>

#include "base/common.h"

namespace desyn::svc {

/// A failure worth retrying: the server was unreachable, shed load, or
/// the connection died mid-round-trip — nothing that indicts the request
/// itself. Typed errors about the request (parse/request/flow/deadline)
/// are NOT transient and surface as plain Error.
class TransientError : public Error {
 public:
  explicit TransientError(const std::string& what) : Error(what) {}
};

class Client {
 public:
  /// Connect to the server's unix socket. Throws TransientError when the
  /// socket is absent or refuses the connection (the server may still be
  /// starting — callers with retry treat this as try-again). A positive
  /// `io_timeout_ms` arms SO_RCVTIMEO/SO_SNDTIMEO on the connection.
  explicit Client(const std::string& socket_path, int io_timeout_ms = 0);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Send one request line and block for the response line. `request`
  /// must not contain '\n' (the protocol's line delimiter); the returned
  /// response has its delimiter stripped. Throws TransientError when the
  /// server hangs up mid-round-trip or the io deadline expires. A server
  /// that hangs up before taking the whole request may still have answered
  /// (a shed connection's `busy` refusal); that answer is returned.
  std::string roundtrip(const std::string& request);

 private:
  /// The next response line; throws TransientError(`closed_what`) when the
  /// server hangs up first.
  std::string read_line(const char* closed_what);

  int fd_ = -1;
  std::string buf_;  ///< bytes read past the last response line
};

/// Build a desyn-svc-v1 request line from the flow inputs. `timeout_ms`
/// (a per-request deadline, 0 = none) is omitted when defaulted, keeping
/// request bytes stable for older servers and caches.
std::string make_request(const std::string& verilog, const std::string& clock,
                         const std::string& strategy, double margin,
                         const std::string& protocol, int64_t timeout_ms = 0);

/// Extract the raw bytes of the "result" object from a successful
/// response line — exactly as the server emitted them, so saved results
/// compare byte-identically across cached and cold submissions. Throws
/// Error (quoting any server error) when the response is not a success.
std::string extract_result(const std::string& response);

struct RetryOptions {
  int retries = 0;        ///< extra attempts after the first
  int io_timeout_ms = 0;  ///< per-attempt socket deadline; 0 = none
  int base_delay_ms = 50;  ///< backoff base (doubles per attempt)
  uint64_t seed = 0;       ///< deterministic jitter seed
};

/// Submit `request` with up to 1 + retries attempts, each on a fresh
/// connection. Retried failures: TransientError (unreachable, timeout,
/// mid-stream hangup) and the server's retryable typed errors (`busy`,
/// `internal`). Request-indicting errors (parse/request/flow/deadline/
/// cancelled/limit) return immediately — retrying cannot fix them.
/// Backoff between attempts is exponential with deterministic jitter:
/// base_delay_ms << attempt, plus up to 50% jitter from `seed`.
/// Returns the response line; rethrows the last failure when every
/// attempt burned.
std::string submit_with_retry(const std::string& socket_path,
                              const std::string& request,
                              const RetryOptions& opt = {});

}  // namespace desyn::svc

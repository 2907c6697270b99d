// The persistent desyn server: a flow engine behind a unix socket.
//
// Protocol (schema "desyn-svc-v1"): line-delimited JSON, one request per
// line, one response per line, over an AF_UNIX stream socket. A request
// names a circuit and the flow knobs:
//
//   {"verilog": "<structural verilog>", "clock": "clk",
//    "strategy": "prefix:1", "margin": 1.1, "protocol": "pulse"}
//
// strategy/margin/protocol are optional (defaults: prefix, 1.1, pulse).
// An optional "timeout_ms" (integer, [0, 3600000], 0 = none) arms a
// per-request deadline: the flow is cancelled cooperatively at stage
// boundaries and inside the MCR solver loops once it expires.
// "sim_jobs" (integer, [1, 1024]) is accepted and validated for
// compatibility with older clients, then ignored: it never changes the
// result or the cache identity.
// A successful response reuses the desyn-sweep-v2 cell vocabulary and
// carries the emitted circuit:
//
//   {"schema": "desyn-svc-v1", "cached": <bool>, "result":
//     {"circuit": ..., "strategy": ..., "protocol": ..., "margin": ...,
//      "banks": ..., "controller_cells": ..., "delay_cells": ...,
//      "sync_cells": ..., "desync_cells": ...,
//      "predicted_period_ps": ..., "verilog": "..."}}
//
// An optional boolean request field "lint" additionally runs the static
// verifier (src/check) on the desynchronized design and appends its
// desyn-lint-v1 run object (docs/LINT.md) to the result:
//
//   {..., "verilog": "...", "lint": {"circuit": ..., "clean": <bool>,
//                                    "errors": N, "diags": [...], ...}}
//
// The lint report is itself a content-addressed engine stage, so a
// re-submitted design pays nothing for asking again.
//
// "cached" reports whether the engine served the submission from its
// result cache; the "result" object is byte-identical either way. Every
// failure is a typed error response — the connection (and the server)
// survives malformed input:
//
//   {"schema": "desyn-svc-v1", "error": {"kind": "<kind>",
//                                        "message": "..."}}
//
//   parse      the line is not valid JSON
//   request    the JSON is missing/invalid fields (bad strategy name,
//              unknown clock net, unreadable circuit, margin out of range)
//   flow       the flow itself rejected the design (e.g. multiple clocks)
//   deadline   the request's timeout_ms expired mid-flow
//   cancelled  the request was cancelled (server drain)
//   busy       the server shed the connection at admission (max_pending);
//              retryable — submissions are content-addressed
//   limit      a request line exceeded max_request_bytes (connection is
//              then dropped)
//   internal   an injected fault or unexpected exception; retryable
//
// Concurrency and graceful degradation: one acceptor thread admits
// connections into a bounded queue; a fixed pool of worker threads drains
// it, one connection at a time, exceptions isolated per connection. When
// the queue is full the acceptor writes a typed `busy` response and
// closes — no client can grow server state unboundedly. Accepted sockets
// carry SO_RCVTIMEO/SO_SNDTIMEO deadlines so a stalled or idle peer
// cannot pin a worker. All workers share one Engine (stage artifacts
// computed for one client are served to every other). docs/ROBUSTNESS.md
// covers the failure model end to end.
#pragma once

#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "base/cancel.h"
#include "flow/engine.h"

namespace desyn::svc {

struct ServerOptions {
  std::string socket_path;  ///< required: where to bind the unix socket
  int threads = 2;          ///< worker pool size
  size_t capacity = 96;     ///< engine artifact-store capacity (entries)
  std::string cache_dir;    ///< optional on-disk artifact tier
  int max_pending = 16;     ///< admitted connections awaiting a worker
                            ///< before the acceptor sheds with `busy`
  int io_timeout_ms = 30000;  ///< per-connection socket read/write
                              ///< deadline; 0 = none
  size_t max_request_bytes = 16u << 20;  ///< request-line cap (`limit`)
};

class Server {
 public:
  /// `tech` must outlive the server.
  Server(const cell::Tech& tech, const ServerOptions& opt);
  ~Server();  ///< stop()s if still running

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind + listen on the socket and launch the acceptor + worker pool.
  /// Throws Error when the socket cannot be created (path too long, bind
  /// failure). A stale socket file at the path is replaced.
  void start();

  /// Shut the listener down, join acceptor + workers, unlink the socket
  /// file. Idempotent. In-flight requests finish (their responses are
  /// written); idle and queued connections are dropped.
  void stop();

  /// Cancels every in-flight request (they answer with a typed
  /// `cancelled` error). Pair with stop() for a bounded-time drain when a
  /// second SIGTERM demands immediate shutdown.
  void cancel_inflight();

  bool running() const { return listen_fd_ >= 0; }
  /// Connections admitted and waiting for a worker.
  size_t pending() const;
  const std::string& socket_path() const { return opt_.socket_path; }
  flow::Engine& engine() { return engine_; }

  /// Handle one request line (without trailing newline) and return the
  /// response line (without trailing newline). Exposed so tests can
  /// exercise the protocol without a socket, and the CLI's single-shot
  /// path can share the exact response bytes.
  std::string handle_request(const std::string& line);

 private:
  void acceptor();
  void worker();
  void serve_connection(int fd);
  bool write_line(int fd, std::string line);

  const cell::Tech& tech_;
  ServerOptions opt_;
  flow::Engine engine_;
  int listen_fd_ = -1;
  std::thread acceptor_;
  std::vector<std::thread> workers_;
  mutable std::mutex conn_mu_;  ///< guards conns_/pending_/inflight_/stopping_
  std::condition_variable pending_cv_;
  std::deque<int> pending_;  ///< admitted, waiting for a worker
  std::set<int> conns_;      ///< connections currently being served
  std::set<CancelToken*> inflight_;  ///< tokens of requests mid-flow
  bool stopping_ = false;
};

}  // namespace desyn::svc

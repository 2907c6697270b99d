#include "svc/server.h"

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>

#include "base/fault.h"
#include "base/json.h"
#include "check/check.h"
#include "netlist/reader.h"

namespace desyn::svc {

namespace {

constexpr int64_t kMaxTimeoutMs = 3'600'000;  // request "timeout_ms" cap

std::string error_response(const char* kind, const std::string& message) {
  return cat("{\"schema\": \"desyn-svc-v1\", \"error\": {\"kind\": \"", kind,
             "\", \"message\": \"", json::escape(message), "\"}}");
}

/// The "result" object (sweep-v2 vocabulary + the emitted circuit). The
/// bytes are deterministic and independent of cache state — the CI smoke
/// job compares two submissions' saved results with cmp.
std::string result_object(const std::string& circuit,
                          const std::string& strategy, const char* protocol,
                          double margin, const flow::FlowOutcome& out,
                          const std::string& lint_json) {
  char buf[160];
  std::string s = cat("{\"circuit\": \"", json::escape(circuit),
                      "\", \"strategy\": \"", json::escape(strategy),
                      "\", \"protocol\": \"", protocol, "\",");
  std::snprintf(buf, sizeof buf, " \"margin\": %.4f,", margin);
  s += buf;
  s += cat(" \"banks\": ", out.stats.banks,
           ", \"controller_cells\": ", out.stats.controller_cells,
           ", \"delay_cells\": ", out.stats.delay_cells,
           ", \"sync_cells\": ", out.stats.cells_in,
           ", \"desync_cells\": ", out.stats.cells_out, ",");
  std::snprintf(buf, sizeof buf, " \"predicted_period_ps\": %.6f,",
                out.stats.predicted_period_ps);
  s += buf;
  s += cat(" \"verilog\": \"", json::escape(*out.verilog), "\"");
  if (!lint_json.empty()) s += cat(", \"lint\": ", lint_json);
  s += "}";
  return s;
}

void set_io_deadlines(int fd, int timeout_ms) {
  if (timeout_ms <= 0) return;
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = static_cast<suseconds_t>(timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
}

}  // namespace

Server::Server(const cell::Tech& tech, const ServerOptions& opt)
    : tech_(tech),
      opt_(opt),
      engine_(tech, flow::EngineOptions{opt.capacity, opt.cache_dir}) {
  DESYN_ASSERT(opt_.threads > 0);
  DESYN_ASSERT(opt_.max_pending > 0);
  DESYN_ASSERT(opt_.max_request_bytes > 0);
}

Server::~Server() { stop(); }

std::string Server::handle_request(const std::string& line) {
  json::Value req;
  try {
    req = json::parse(line);
  } catch (const std::exception& e) {
    return error_response("parse", e.what());
  }

  // Decode + validate the request fields.
  flow::DesyncOptions opt;
  std::string strategy_label;
  const char* protocol_name = nullptr;
  nl::NetId clock;
  std::unique_ptr<nl::Netlist> ff;
  int64_t timeout_ms = 0;
  try {
    if (!req.is_object()) fail("request must be a JSON object");
    const json::Value* verilog = req.get("verilog");
    if (!verilog || !verilog->is_string()) {
      fail("missing string field 'verilog'");
    }
    const json::Value* clock_name = req.get("clock");
    if (!clock_name || !clock_name->is_string()) {
      fail("missing string field 'clock'");
    }
    opt.strategy =
        flow::PartitionSpec::parse(req.get_string("strategy", "prefix"));
    strategy_label = opt.strategy.label();
    opt.margin = req.get_number("margin", 1.1);
    if (!(opt.margin >= 1.0) || !(opt.margin <= 100.0)) {
      fail("margin must be in [1, 100]");
    }
    opt.protocol = ctl::parse_protocol(req.get_string("protocol", "pulse"));
    protocol_name = ctl::protocol_name(opt.protocol);
    // `sim_jobs` is accepted and validated so v1 request bytes that carry
    // it stay valid, then ignored: the simulator is serial and the server
    // never simulates. It never enters a cache key.
    const double sim_jobs = req.get_number("sim_jobs", 1);
    if (sim_jobs < 1 || sim_jobs > 1024 ||
        sim_jobs != static_cast<int>(sim_jobs)) {
      fail("sim_jobs must be an integer in [1, 1024]");
    }
    // A deadline shapes execution, never the result, so it stays out of
    // every cache key (see base/cancel.h).
    const double t = req.get_number("timeout_ms", 0);
    if (t < 0 || t > static_cast<double>(kMaxTimeoutMs) ||
        t != static_cast<int64_t>(t)) {
      fail("timeout_ms must be an integer in [0, ", kMaxTimeoutMs, "]");
    }
    timeout_ms = static_cast<int64_t>(t);
    ff = std::make_unique<nl::Netlist>(
        nl::read_verilog(verilog->string, "<request>"));
    clock = ff->find_net(clock_name->string);
    if (!clock.valid()) {
      fail("no net named '", clock_name->string, "' in the circuit");
    }
  } catch (const std::exception& e) {
    return error_response("request", e.what());
  }

  // Arm the request's cancel token and register it so cancel_inflight()
  // can trip it from another thread; the scope installs it thread-locally
  // for every cancel_point() below us.
  CancelToken token;
  token.set_deadline_after_ms(timeout_ms);
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    inflight_.insert(&token);
  }
  struct Deregister {
    Server* s;
    CancelToken* t;
    ~Deregister() {
      std::lock_guard<std::mutex> lock(s->conn_mu_);
      s->inflight_.erase(t);
    }
  } deregister{this, &token};
  CancelScope scope(&token);

  // Run (or serve) the flow; "lint": true additionally runs the static
  // verifier (a cached engine stage) and embeds its run object.
  flow::FlowOutcome out;
  std::string lint_json;
  try {
    out = engine_.run(*ff, clock, opt);
    if (req.get_bool("lint", false)) {
      std::shared_ptr<const check::LintReport> rep =
          engine_.lint(*ff, clock, opt);
      lint_json =
          check::render_json(*rep, ff->name(), opt.protocol, opt.margin);
    }
  } catch (const DeadlineError&) {
    return error_response(
        "deadline", cat("timeout_ms=", timeout_ms, " expired mid-flow"));
  } catch (const CancelledError&) {
    return error_response("cancelled", "request cancelled by server drain");
  } catch (const fault::InjectedFault& e) {
    // Injected faults surface as retryable internal errors: the flow left
    // no partial state (stage artifacts publish atomically), so a
    // resubmission is safe and — deterministic firing windows permitting —
    // succeeds.
    return error_response("internal", e.what());
  } catch (const std::exception& e) {
    return error_response("flow", e.what());
  }
  return cat("{\"schema\": \"desyn-svc-v1\", \"cached\": ",
             out.cached ? "true" : "false", ", \"result\": ",
             result_object(ff->name(), strategy_label, protocol_name,
                           opt.margin, out, lint_json),
             "}");
}

void Server::start() {
  DESYN_ASSERT(listen_fd_ < 0, "server already running");
  if (opt_.socket_path.empty()) fail("server needs a socket path");

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (opt_.socket_path.size() >= sizeof(addr.sun_path)) {
    fail("socket path too long: ", opt_.socket_path);
  }
  std::memcpy(addr.sun_path, opt_.socket_path.c_str(),
              opt_.socket_path.size() + 1);

  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) fail("socket(): ", std::strerror(errno));
  ::unlink(opt_.socket_path.c_str());  // replace a stale socket file
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    int err = errno;
    ::close(fd);
    fail("bind(", opt_.socket_path, "): ", std::strerror(err));
  }
  if (::listen(fd, 64) < 0) {
    int err = errno;
    ::close(fd);
    ::unlink(opt_.socket_path.c_str());
    fail("listen(): ", std::strerror(err));
  }
  listen_fd_ = fd;
  workers_.reserve(static_cast<size_t>(opt_.threads));
  for (int i = 0; i < opt_.threads; ++i) {
    workers_.emplace_back([this] { worker(); });
  }
  acceptor_ = std::thread([this] { acceptor(); });
}

void Server::stop() {
  if (listen_fd_ < 0) return;
  // The acceptor blocked in accept() returns with an error once the
  // listener is shut down; the fd stays open until every thread has
  // exited so none of them can race against a re-used descriptor number.
  ::shutdown(listen_fd_, SHUT_RDWR);
  {
    // Workers blocked in read() on an idle connection would never notice
    // the listener going away: half-close every live connection so their
    // reads return 0. SHUT_RD only — a worker mid-request can still write
    // its response before dropping the connection.
    std::lock_guard<std::mutex> lock(conn_mu_);
    stopping_ = true;
    for (int fd : conns_) ::shutdown(fd, SHUT_RD);
  }
  pending_cv_.notify_all();
  acceptor_.join();
  for (std::thread& t : workers_) t.join();
  workers_.clear();
  ::close(listen_fd_);
  listen_fd_ = -1;
  ::unlink(opt_.socket_path.c_str());
  std::lock_guard<std::mutex> lock(conn_mu_);
  for (int fd : pending_) ::close(fd);  // admitted but never served: drop
  pending_.clear();
  stopping_ = false;  // the server may be start()ed again
}

void Server::cancel_inflight() {
  std::lock_guard<std::mutex> lock(conn_mu_);
  for (CancelToken* t : inflight_) t->cancel();
}

size_t Server::pending() const {
  std::lock_guard<std::mutex> lock(conn_mu_);
  return pending_.size();
}

void Server::acceptor() {
  for (;;) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener shut down (or fatally broken)
    }
    if (fault::should_fail("svc.accept")) {
      ::close(fd);  // modeled accept-path failure: the peer sees EOF
      continue;
    }
    set_io_deadlines(fd, opt_.io_timeout_ms);
    bool shed = false;
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      if (stopping_) {  // raced with stop(): drop, don't serve
        ::close(fd);
        continue;
      }
      if (pending_.size() >= static_cast<size_t>(opt_.max_pending)) {
        shed = true;  // respond outside the lock
      } else {
        pending_.push_back(fd);
      }
    }
    if (shed) {
      // Graceful degradation: a typed, retryable refusal instead of an
      // unbounded queue. Written from the acceptor — cheap by design.
      write_line(fd, error_response(
                         "busy", cat("server at capacity (", opt_.max_pending,
                                     " connections queued); retry later")));
      ::close(fd);
      continue;
    }
    pending_cv_.notify_one();
  }
}

void Server::worker() {
  for (;;) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(conn_mu_);
      pending_cv_.wait(lock, [this] { return stopping_ || !pending_.empty(); });
      if (stopping_) return;  // queued connections are stop()'s to close
      fd = pending_.front();
      pending_.pop_front();
      conns_.insert(fd);
    }
    try {
      serve_connection(fd);
    } catch (...) {
      // Worker isolation: no request may take the thread (and with it a
      // pool slot) down. The connection is dropped; the pool survives.
    }
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      conns_.erase(fd);
    }
    ::close(fd);
  }
}

bool Server::write_line(int fd, std::string line) {
  if (fault::should_fail("svc.write")) return false;  // modeled write failure
  line += '\n';
  size_t off = 0;
  while (off < line.size()) {
    // MSG_NOSIGNAL: a peer that closed mid-response must not SIGPIPE the
    // server; the write fails with EPIPE and the connection is dropped.
    ssize_t w = ::send(fd, line.data() + off, line.size() - off, MSG_NOSIGNAL);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;  // client gone or SO_SNDTIMEO expired
    off += static_cast<size_t>(w);
  }
  return true;
}

void Server::serve_connection(int fd) {
  std::string buf;
  char chunk[65536];
  for (;;) {
    if (fault::should_fail("svc.read")) return;  // modeled read failure
    ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    // EAGAIN/EWOULDBLOCK here is SO_RCVTIMEO: the peer sat idle (or
    // stalled mid-line) past the deadline. Drop it — a worker is too
    // valuable to leave parked on a silent connection.
    if (n <= 0) return;
    buf.append(chunk, static_cast<size_t>(n));
    size_t start = 0;
    for (size_t eol; (eol = buf.find('\n', start)) != std::string::npos;
         start = eol + 1) {
      std::string line = buf.substr(start, eol - start);
      if (line.empty()) continue;  // blank lines are keep-alive no-ops
      if (line.size() > opt_.max_request_bytes) {
        write_line(fd, error_response(
                           "limit", cat("request line exceeds ",
                                        opt_.max_request_bytes, " bytes")));
        return;
      }
      if (!write_line(fd, handle_request(line))) return;
    }
    buf.erase(0, start);
    if (buf.size() > opt_.max_request_bytes) {
      // A partial line already past the cap: reject now rather than
      // buffering an unbounded request — the rest of the oversized line
      // cannot be resynchronized against, so the connection drops.
      write_line(fd, error_response(
                         "limit", cat("request line exceeds ",
                                      opt_.max_request_bytes, " bytes")));
      return;
    }
  }
}

}  // namespace desyn::svc

#include "svc/client.h"

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>

#include "base/json.h"

namespace desyn::svc {

Client::Client(const std::string& socket_path, int io_timeout_ms) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    fail("socket path too long: ", socket_path);
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) fail("socket(): ", std::strerror(errno));
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    int err = errno;
    ::close(fd_);
    fd_ = -1;
    throw TransientError(
        cat("connect(", socket_path, "): ", std::strerror(err)));
  }
  if (io_timeout_ms > 0) {
    timeval tv{};
    tv.tv_sec = io_timeout_ms / 1000;
    tv.tv_usec = static_cast<suseconds_t>(io_timeout_ms % 1000) * 1000;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  }
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

std::string Client::roundtrip(const std::string& request) {
  DESYN_ASSERT(request.find('\n') == std::string::npos,
               "request must be a single line");
  std::string line = request;
  line += '\n';
  size_t off = 0;
  while (off < line.size()) {
    // MSG_NOSIGNAL: a server that dropped us must surface as EPIPE (a
    // transient error), not a SIGPIPE that kills the client.
    ssize_t w = ::send(fd_, line.data() + off, line.size() - off,
                       MSG_NOSIGNAL);
    if (w < 0 && errno == EINTR) continue;
    if (w < 0 && errno == EPIPE) {
      // A shedding server answers before it reads, then closes: its
      // refusal may be waiting even though the request was cut off.
      return read_line("server closed the connection while writing");
    }
    if (w <= 0) {
      throw TransientError("server closed the connection while writing");
    }
    off += static_cast<size_t>(w);
  }
  return read_line("server closed the connection while reading");
}

std::string Client::read_line(const char* closed_what) {
  char chunk[65536];
  for (;;) {
    size_t eol = buf_.find('\n');
    if (eol != std::string::npos) {
      std::string response = buf_.substr(0, eol);
      buf_.erase(0, eol + 1);
      return response;
    }
    ssize_t n = ::read(fd_, chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      throw TransientError("timed out waiting for the server's response");
    }
    if (n <= 0) throw TransientError(closed_what);
    buf_.append(chunk, static_cast<size_t>(n));
  }
}

std::string make_request(const std::string& verilog, const std::string& clock,
                         const std::string& strategy, double margin,
                         const std::string& protocol, int64_t timeout_ms) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.4f", margin);
  // Defaults are omitted so request lines (and anything keyed on them)
  // are byte-identical to older clients that never sent the field.
  std::string timeout_field =
      timeout_ms > 0 ? cat(", \"timeout_ms\": ", timeout_ms) : std::string();
  return cat("{\"verilog\": \"", json::escape(verilog), "\", \"clock\": \"",
             json::escape(clock), "\", \"strategy\": \"",
             json::escape(strategy), "\", \"margin\": ", buf,
             ", \"protocol\": \"", json::escape(protocol), "\"", timeout_field,
             "}");
}

std::string extract_result(const std::string& response) {
  // The response layout is fixed (server.cpp): ... , "result": {...}}
  // Raw extraction — not a parse/re-serialize round trip — keeps the
  // saved bytes exactly what the server emitted.
  json::Value v = json::parse(response);  // reject garbage first
  if (const json::Value* err = v.get("error")) {
    fail("server error (", err->get_string("kind", "?"),
         "): ", err->get_string("message", "?"));
  }
  const std::string marker = "\"result\": ";
  size_t pos = response.find(marker);
  if (!v.get("result") || pos == std::string::npos || response.empty() ||
      response.back() != '}') {
    fail("malformed server response");
  }
  return response.substr(pos + marker.size(),
                         response.size() - (pos + marker.size()) - 1);
}

namespace {

/// Server-reported error kinds that a retry can plausibly fix. Everything
/// else indicts the request and is returned to the caller untouched.
bool retryable_response(const std::string& response) {
  try {
    json::Value v = json::parse(response);
    const json::Value* err = v.get("error");
    if (!err) return false;
    std::string kind = err->get_string("kind", "");
    return kind == "busy" || kind == "internal";
  } catch (const std::exception&) {
    return false;  // not even JSON: surface it, don't loop on garbage
  }
}

}  // namespace

std::string submit_with_retry(const std::string& socket_path,
                              const std::string& request,
                              const RetryOptions& opt) {
  Rng jitter(opt.seed ^ 0x7261657472797273ull);  // distinct per-seed stream
  for (int attempt = 0;; ++attempt) {
    try {
      // A fresh connection per attempt: the previous one may be
      // half-dead, and reconnecting is what clears svc.accept/read/write
      // style failures.
      Client client(socket_path, opt.io_timeout_ms);
      std::string response = client.roundtrip(request);
      if (attempt < opt.retries && retryable_response(response)) {
        throw TransientError(cat("retryable server response: ", response));
      }
      return response;
    } catch (const TransientError&) {
      if (attempt >= opt.retries) throw;
    }
    // Exponential backoff, capped, with deterministic jitter so a stampede
    // of identical clients still decorrelates.
    int64_t delay = static_cast<int64_t>(opt.base_delay_ms)
                    << std::min(attempt, 6);
    delay += static_cast<int64_t>(jitter.below(
        static_cast<uint64_t>(delay / 2 + 1)));
    std::this_thread::sleep_for(std::chrono::milliseconds(delay));
  }
}

}  // namespace desyn::svc

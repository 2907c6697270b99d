// The svc layer probe of `explore`'s traced run: a real `desyn_cli serve`
// process with 2 worker threads, driven by 2 closed-loop client
// connections. Each client owns a disjoint set of designs and sends a
// seeded stream over five request classes; the engine capacity holds the
// whole working set, so which requests hit the result cache is fixed by the
// stream alone, run after run. No simulation.
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <set>
#include <thread>

#include "base/json.h"
#include "base/rng.h"
#include "base/sha256.h"
#include "flow/engine.h"
#include "netlist/reader.h"
#include "netlist/writer.h"
#include "svc/client.h"
#include "svc/server.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kClients = 2;
constexpr int kServerThreads = 2;
/// Holds every artifact a session creates: no eviction, so cache hits
/// depend on the request stream only (and flow.evictions reads 0 unless a
/// change makes the engine evict inside its capacity).
constexpr int kCapacity = 100000;
/// Blocks per client: 1000 requests in all, so p99 has ten samples beyond
/// it.
constexpr int kBlocks = 5;

/// A block is kBlock requests per client in this class mix. The tail
/// classes are 8% of requests, so p99 falls inside their mass; the
/// costliest requests, auto:1.05 variants, are one in 300 (0.3%), too few
/// to put p99 on their boundary.
enum Class { kCached, kVariant, kEco, kCold, kLint, kClasses };
const char* const kClassNames[] = {"cached", "variant", "eco", "cold", "lint"};
constexpr int kMix[kClasses] = {92, 3, 2, 2, 1};
constexpr int kBlock = 100;

const char* const kPrefix = "{\"schema\": \"desyn-svc-v1\", \"cached\": ";

struct Request {
  Class cls;
  std::string line;
  bool expect_cached;
  int base = -1;  ///< cached class: index of the base line it repeats
};

struct ClientPlan {
  std::vector<Design> designs;       ///< this client's base designs
  std::vector<std::string> base;     ///< their base request lines
  std::vector<std::string> base_result;  ///< set-up's result bytes
  std::vector<Request> stream;
};

std::string request_for(const Design& d, const std::string& strategy,
                        double margin, const std::string& protocol) {
  return svc::make_request(d.verilog, d.netlist.net(d.clock).name, strategy,
                           margin, protocol);
}

/// Client `c`'s base designs: disjoint between the clients, 7-72 KB of
/// Verilog each, three fixed and one seeded. Small designs make a cached
/// round trip a few ms, so a run holds thousands of requests.
std::vector<Design> client_designs(int c, uint64_t seed) {
  static const char* const kOwned[kClients][3] = {
      {"fir8x12", "mesh6x6x2", "lfsr64"}, {"pipe8x16", "counters4x8", "crc32"}};
  std::vector<Design> out;
  for (circuits::Suite& s : circuits::scaling_suite()) {
    for (const char* name : kOwned[c]) {
      if (s.name == name) out.push_back(make_design(s.name, s.circuit));
    }
  }
  out.push_back(make_design(
      "rpipe24x8.c" + std::to_string(c),
      circuits::random_pipeline(seed * 16 + static_cast<uint64_t>(c), 24, 8)));
  return out;
}

/// One pin-compatible field edit (a gate-kind swap or an init flip) of a
/// seeded cell: the ECO fast paths' input.
Design eco_edit(const Design& base, CounterRng& rng, int serial) {
  nl::Netlist edit = base.netlist;
  std::vector<nl::CellId> cand;
  for (nl::CellId c : edit.cells()) {
    cell::Kind k = edit.cell(c).kind;
    if (k == cell::Kind::Xor || k == cell::Kind::Xnor || k == cell::Kind::Inv ||
        k == cell::Kind::Buf || k == cell::Kind::Dff) {
      cand.push_back(c);
    }
  }
  nl::CellId c = cand[rng.below(cand.size())];
  switch (edit.cell(c).kind) {
    case cell::Kind::Xor: edit.set_kind(c, cell::Kind::Xnor); break;
    case cell::Kind::Xnor: edit.set_kind(c, cell::Kind::Xor); break;
    case cell::Kind::Inv: edit.set_kind(c, cell::Kind::Buf); break;
    case cell::Kind::Buf: edit.set_kind(c, cell::Kind::Inv); break;
    default:
      edit.set_init(c, edit.cell(c).init == cell::V::V0 ? cell::V::V1
                                                       : cell::V::V0);
  }
  Design d;
  d.name = base.name + ".eco" + std::to_string(serial);
  d.verilog = nl::to_verilog(edit);
  d.netlist = std::move(edit);
  d.clock = base.clock;
  return d;
}

/// The seeded request stream of one client: `blocks` blocks in kMix, order
/// shuffled within each block. Each class cycles through the client's
/// designs, so every block costs about the same whatever the seed. Cache expectations follow from the stream:
/// a line the client sent before (in set-up or earlier in the stream) is a
/// result-cache hit.
void build_stream(ClientPlan& cp, int c, uint64_t seed, int blocks) {
  CounterRng rng(seed, static_cast<uint64_t>(c));
  std::set<std::string> seen(cp.base.begin(), cp.base.end());
  std::string last_variant = cp.base[0];
  int serial = 0;
  int n[kClasses] = {};  // requests of each class so far
  const size_t nd = cp.designs.size();
  for (int b = 0; b < blocks; ++b) {
    std::vector<Class> order;
    for (int k = 0; k < kClasses; ++k) {
      order.insert(order.end(), static_cast<size_t>(kMix[k]), Class(k));
    }
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.below(i)]);
    }
    for (Class cls : order) {
      Request r{cls, {}, false};
      const int k = n[cls]++;
      const size_t d = static_cast<size_t>(k) % nd;
      switch (cls) {
        case kCached:
          r.base = static_cast<int>(d);
          r.line = cp.base[static_cast<size_t>(r.base)];
          break;
        case kVariant: {
          // A new margin every time; every tenth variant is an auto:1.05
          // search, the others alternate the protocol.
          const double margin = 1.1001 + 0.0001 * k;
          const bool is_auto = k % 10 == 9;
          r.line = request_for(cp.designs[d], is_auto ? "auto:1.05" : "prefix",
                               margin, k % 2 ? "semi" : "pulse");
          last_variant = r.line;
          break;
        }
        case kEco:
          r.line = request_for(eco_edit(cp.designs[d], rng, serial), "prefix",
                               1.1, "pulse");
          break;
        case kCold: {
          Design fresh = make_design(
              "cold.c" + std::to_string(c) + "." + std::to_string(k),
              circuits::random_pipeline(
                  seed * 7919u + static_cast<uint64_t>(k * kClients + c),
                  16, 8));
          r.line = request_for(fresh, "prefix", 1.1, "pulse");
          break;
        }
        case kLint:
          // The latest variant's coordinate: its flow is cached, its lint
          // is not.
          r.line = last_variant.substr(0, last_variant.size() - 1) +
                   ", \"lint\": true}";
          break;
        case kClasses:
          break;
      }
      const std::string key =
          cls == kLint ? last_variant : r.line;  // lint rides on the flow key
      r.expect_cached = seen.count(key) > 0;
      seen.insert(key);
      cp.stream.push_back(std::move(r));
      ++serial;
    }
  }
}

/// The served `desyn_cli serve` child process; stopped and reaped on
/// destruction.
class ServerProcess {
 public:
  ServerProcess(const Config& cfg, const std::string& socket) : socket_(socket) {
    std::vector<std::string> args = {
        cfg.cli, "serve", "--socket", socket, "--threads",
        std::to_string(kServerThreads), "--capacity",
        std::to_string(kCapacity)};
    if (!cfg.fault.empty()) {
      args.push_back("--fault-spec");
      args.push_back(cfg.fault);
    }
    pid_ = fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      prctl(PR_SET_PDEATHSIG, SIGTERM);  // never outlive the benchmark
      int null = open("/dev/null", O_WRONLY);
      if (null >= 0) dup2(null, STDOUT_FILENO);
      std::vector<char*> argv;
      for (std::string& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      execv(argv[0], argv.data());
      _exit(127);
    }
    // Ready once it accepts a connection.
    const auto t0 = Clock::now();
    for (;;) {
      try {
        svc::Client probe(socket_);
        break;
      } catch (const svc::TransientError&) {
        int status = 0;
        if (waitpid(pid_, &status, WNOHANG) == pid_) {
          throw std::runtime_error("desyn_cli serve exited at start-up");
        }
        if (seconds_since(t0) > 30) {
          kill(pid_, SIGKILL);
          waitpid(pid_, &status, 0);
          throw std::runtime_error("desyn_cli serve not ready after 30 s");
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
  }
  ~ServerProcess() {
    if (pid_ <= 0) return;
    kill(pid_, SIGTERM);
    int status = 0;
    waitpid(pid_, &status, 0);
    std::error_code ec;
    std::filesystem::remove(socket_, ec);
  }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  pid_t pid() const { return pid_; }

 private:
  std::string socket_;
  pid_t pid_ = -1;
};

bool is_error(const std::string& response) {
  return response.compare(0, std::strlen(kPrefix), kPrefix) != 0;
}
bool is_cached(const std::string& response) {
  return response.compare(std::strlen(kPrefix), 4, "true") == 0;
}
/// The raw "result" object bytes of a success response.
std::string_view result_bytes(const std::string& response, bool cached) {
  size_t at = std::strlen(kPrefix) + (cached ? 4 : 5) + std::strlen(", \"result\": ");
  return std::string_view(response).substr(at, response.size() - at - 1);
}

/// Round trip with reconnect-and-retry on transport failures and the
/// server's retryable kinds (busy, internal); submissions are
/// content-addressed, so replaying one is safe.
std::string roundtrip(std::unique_ptr<svc::Client>& client,
                      const std::string& socket, const std::string& line,
                      size_t& retries) {
  for (int attempt = 0;; ++attempt) {
    try {
      if (!client) client = std::make_unique<svc::Client>(socket);
      std::string resp = client->roundtrip(line);
      const bool retryable =
          resp.find("\"kind\": \"busy\"") != std::string::npos ||
          resp.find("\"kind\": \"internal\"") != std::string::npos;
      if (!is_error(resp) || !retryable || attempt == 3) return resp;
    } catch (const svc::TransientError&) {
      if (attempt == 3) throw;
    }
    ++retries;
    client.reset();
  }
}

}  // namespace

void trace_svc_layer(Result& res, const Config& cfg) {
  const cell::Tech& tech = cell::Tech::generic90();
  const std::string socket =
      (std::filesystem::path(cfg.out_dir) /
       ("svc-" + std::to_string(getpid()) + ".sock"))
          .string();
  auto fail = [&res](const std::string& what) { res.fail("svc layer: " + what); };

  // Generate and serialise every design and the whole request stream,
  // start the server, and submit each base design once (cold).
  std::vector<ClientPlan> plans(kClients);
  for (int c = 0; c < kClients; ++c) {
    ClientPlan& cp = plans[static_cast<size_t>(c)];
    cp.designs = client_designs(c, cfg.seed);
    for (const Design& d : cp.designs) {
      cp.base.push_back(request_for(d, "prefix", 1.1, "pulse"));
    }
    build_stream(cp, c, cfg.seed, kBlocks);
  }
  std::optional<ServerProcess> server(std::in_place, cfg, socket);
  {
    svc::Client client(socket);
    for (ClientPlan& cp : plans) {
      for (const std::string& line : cp.base) {
        std::string resp = client.roundtrip(line);
        if (is_error(resp)) throw std::runtime_error("svc layer set-up: " + resp);
        cp.base_result.emplace_back(result_bytes(resp, is_cached(resp)));
      }
    }
  }

  // The clients run independently; every round trip is checked.
  struct Sample {
    Class cls;
    double rtt_ms;
  };
  struct ClientRun {
    std::vector<Sample> samples;
    std::string pattern;  ///< the served `cached` flags, '1'/'0'
    std::vector<std::string> errors;
    size_t retries = 0;
    size_t resp_bytes = 0;
  };
  std::vector<ClientRun> runs(kClients);
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c]() {
        const ClientPlan& cp = plans[static_cast<size_t>(c)];
        ClientRun& run = runs[static_cast<size_t>(c)];
        std::unique_ptr<svc::Client> client;
        for (size_t i = 0; i < cp.stream.size(); ++i) {
          const Request& r = cp.stream[i];
          const auto t0 = Clock::now();
          std::string resp;
          try {
            trace::Span s("svc.rtt", (static_cast<uint64_t>(c) << 32) | (i + 1));
            resp = roundtrip(client, socket, r.line, run.retries);
          } catch (const std::exception& e) {
            resp = std::string("transport: ") + e.what();
          }
          run.samples.push_back({r.cls, ms_since(t0)});
          run.resp_bytes += resp.size();
          std::string err;
          if (is_error(resp)) {
            err = resp.substr(0, 300);
          } else {
            const bool cached = is_cached(resp);
            run.pattern += cached ? '1' : '0';
            if (cached != r.expect_cached) {
              err = "guard: cached flag differs from the stream's pattern";
            } else if (r.cls == kCached &&
                       result_bytes(resp, cached) !=
                           cp.base_result[static_cast<size_t>(r.base)]) {
              err = "resubmit result bytes differ from the first submission";
            }
          }
          if (!err.empty()) {
            run.errors.push_back(std::string(kClassNames[r.cls]) + " #" +
                                 std::to_string(i) + ": " + err);
          }
        }
      });
    }
    for (std::thread& t : clients) t.join();
  }
  std::vector<std::vector<double>> rtt_by_class(kClasses);
  size_t retries = 0, resp_bytes = 0;
  for (int c = 0; c < kClients; ++c) {
    const ClientRun& run = runs[static_cast<size_t>(c)];
    for (const Sample& s : run.samples) rtt_by_class[s.cls].push_back(s.rtt_ms);
    res.attempted += run.samples.size();
    for (const std::string& e : run.errors) fail(e);
    res.pin("svc.cached_pattern.c" + std::to_string(c), sha256(run.pattern).hex());
    retries += run.retries;
    resp_bytes += run.resp_bytes;
  }
  res.notes.push_back("svc layer probe:");
  for (int k = 0; k < kClasses; ++k) {
    char buf[128];
    std::snprintf(buf, sizeof buf,
                  "  class %-8s %5zu requests  rtt p50 %8.2f ms  p99 %8.2f ms",
                  kClassNames[k], rtt_by_class[k].size(),
                  quantile(rtt_by_class[k], 0.5), quantile(rtt_by_class[k], 0.99));
    res.notes.push_back(buf);
  }

  // Every distinct request, resubmitted, must be cached and carry the
  // Verilog a fresh engine's cold run produces.
  {
    flow::Engine fresh(tech);
    svc::Client client(socket);
    std::set<std::string> checked;
    for (ClientPlan& cp : plans) {
      std::vector<std::string> lines = cp.base;
      for (const Request& r : cp.stream) {
        if (r.cls != kCached && r.cls != kLint) lines.push_back(r.line);
      }
      for (const std::string& line : lines) {
        if (!checked.insert(line).second) continue;
        ++res.attempted;
        std::string resp = client.roundtrip(line);
        json::Value req = json::parse(line);
        nl::Netlist ff = nl::read_verilog(req.get_string("verilog", ""));
        flow::DesyncOptions opt;
        opt.strategy = flow::PartitionSpec::parse(req.get_string("strategy", ""));
        opt.margin = req.get_number("margin", 1.1);
        opt.protocol = ctl::parse_protocol(req.get_string("protocol", ""));
        const nl::NetId clock = ff.find_net(req.get_string("clock", ""));
        const std::string want = *fresh.run(ff, clock, opt).verilog;
        std::string got;
        if (!is_error(resp)) {
          const json::Value doc = json::parse(resp);
          if (const json::Value* r = doc.get("result")) {
            got = r->get_string("verilog", "");
          }
        }
        if (got != want) {
          fail("served Verilog differs from a cold engine run (" + ff.name() + ")");
        } else if (!is_cached(resp)) {
          fail("a resubmitted request missed the result cache (" + ff.name() + ")");
        }
      }
    }
  }
  server.reset();

  // Replay the same lines, in order, into an in-process server: the
  // per-request handling time without socket, framing or queueing.
  svc::ServerOptions so;
  so.socket_path = socket;
  so.capacity = kCapacity;
  svc::Server replay(tech, so);
  for (const ClientPlan& cp : plans) {
    for (const std::string& line : cp.base) (void)replay.handle_request(line);
  }
  std::vector<std::vector<double>> handle(kClients);
  std::vector<std::vector<double>> handle_by_class(kClasses);
  const size_t n = plans[0].stream.size();
  for (size_t i = 0; i < n; ++i) {
    for (int c = 0; c < kClients; ++c) {
      const Request& r = plans[static_cast<size_t>(c)].stream[i];
      const auto t0 = Clock::now();
      std::string resp;
      {
        trace::Span s("svc.handle", (static_cast<uint64_t>(c) << 32) | (i + 1));
        resp = replay.handle_request(r.line);
      }
      const double ms = ms_since(t0);
      handle[static_cast<size_t>(c)].push_back(ms);
      handle_by_class[r.cls].push_back(ms);
      trace::Span s("base.json_parse");
      (void)json::parse(resp);
    }
  }
  std::vector<double> transport;
  for (int c = 0; c < kClients; ++c) {
    const std::vector<Sample>& smp = runs[static_cast<size_t>(c)].samples;
    for (size_t i = 0; i < smp.size(); ++i) {
      if (smp[i].cls == kCached) {
        transport.push_back(smp[i].rtt_ms - handle[static_cast<size_t>(c)][i]);
      }
    }
  }
  for (int k = 0; k < kClasses; ++k) {
    res.set(std::string("svc.rtt_p50_ms.") + kClassNames[k],
            quantile(rtt_by_class[k], 0.5), "ms");
    res.set(std::string("svc.handle_p50_ms.") + kClassNames[k],
            quantile(handle_by_class[k], 0.5), "ms");
  }
  res.set("svc.transport_p50_ms.cached", quantile(transport, 0.5), "ms");
  res.set("base.json_parse_ms", trace::total_ms("base.json_parse"), "ms");
  res.set("svc.resp_mb", static_cast<double>(resp_bytes) / 1e6, "MB");
  res.set("svc.retries", static_cast<double>(retries), "count");
  const flow::StageCounters k = replay.engine().counters();
  const double adj_total = static_cast<double>(k.adjacency_eco + k.adjacency_runs);
  res.set("flow.result_hit_ratio",
          k.runs ? static_cast<double>(k.result_hits) / static_cast<double>(k.runs) : 0,
          "ratio");
  res.set("flow.eco_fast_ratio",
          adj_total > 0 ? static_cast<double>(k.adjacency_eco) / adj_total : 0,
          "ratio");
  res.set("flow.adjacency_eco", static_cast<double>(k.adjacency_eco), "count");
  res.set("flow.synth_patched", static_cast<double>(k.synth_patched), "count");
  res.set("flow.mcr_warm", static_cast<double>(k.mcr_warm), "count");
  res.set("flow.evictions",
          static_cast<double>(replay.engine().store_stats().evictions), "count");
  for (const char* name : {"flow.result_hit_ratio", "flow.eco_fast_ratio",
                           "flow.adjacency_eco", "flow.synth_patched",
                           "flow.mcr_warm", "flow.evictions"}) {
    res.pin(name, res.get(name));
  }
}

}  // namespace perfbench

#include "common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <queue>

#include "dlx/cpu_builder.h"
#include "dlx/programs.h"
#include "netlist/reader.h"
#include "netlist/writer.h"

namespace perfbench {

void Result::fail(const std::string& what) {
  ++failed;
  failures.push_back(what);
}

void Result::set(const std::string& name, double value,
                 const std::string& unit) {
  for (auto& m : metrics) {
    if (m.first == name) {
      m.second = {value, unit};
      return;
    }
  }
  metrics.push_back({name, {value, unit}});
}

void Result::pin(const std::string& name, const std::string& value) {
  deterministic.push_back({name, value});
}

void Result::pin(const std::string& name, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  pin(name, std::string(buf));
}

double Result::get(const std::string& name) const {
  for (const auto& m : metrics) {
    if (m.first == name) return m.second.first;
  }
  return 0.0;
}

Design make_design(std::string name, const circuits::Circuit& c) {
  Design d;
  d.name = std::move(name);
  d.verilog = nl::to_verilog(c.netlist);
  d.netlist = nl::read_verilog(d.verilog, d.name);
  d.clock = d.netlist.find_net(c.netlist.net(c.clock).name);
  return d;
}

circuits::Circuit dlx_circuit() {
  circuits::Circuit c{nl::Netlist("dlx"), {}};
  dlx::DlxConfig cfg;
  c.clock = dlx::build_dlx(c.netlist, cfg, dlx::standard_workloads()[0].words)
                .clk;
  return c;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0;
  for (double x : v) s += std::log(x);
  return std::exp(s / static_cast<double>(v.size()));
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double steal_seconds() {
  // "cpu  user nice system idle iowait irq softirq steal ..." in ticks.
  std::ifstream in("/proc/stat");
  std::string cpu;
  double field = 0, steal = 0;
  in >> cpu;
  for (int i = 1; i <= 8 && in >> field; ++i) {
    if (i == 8) steal = field;
  }
  return steal / static_cast<double>(sysconf(_SC_CLK_TCK));
}

namespace {

volatile uint64_t g_kernel_sink;

uint64_t lcg(uint64_t& x) {
  x = x * 6364136223846793005ull + 1442695040888963407ull;
  return x >> 33;
}

/// An event-queue loop: pop the earliest of 256 events, schedule its
/// successor from a 32 Ki-entry table. The table is read once first, so
/// the loop runs from the core's own cache whatever the op before it
/// touched: it measures the core's speed.
double event_queue_ms() {
  static const std::vector<uint32_t> next = [] {
    std::vector<uint32_t> n(1u << 15);
    uint64_t x = 0x9E3779B97F4A7C15ull;
    for (uint32_t& e : n) e = lcg(x) & (n.size() - 1);
    return n;
  }();
  using Event = std::pair<uint32_t, uint32_t>;
  std::vector<Event> heap;
  heap.reserve(512);
  uint64_t sum = std::accumulate(next.begin(), next.end(), uint64_t{0});
  const auto t0 = Clock::now();
  std::priority_queue<Event, std::vector<Event>, std::greater<>> q(
      std::greater<>(), std::move(heap));
  for (uint32_t i = 0; i < 256; ++i) q.push({i, i});
  for (int k = 0; k < 40000; ++k) {
    const auto [t, v] = q.top();
    q.pop();
    sum += v;
    const uint32_t w = next[v];
    q.push({t + 1 + (w & 7), w});
  }
  const double ms = ms_since(t0);
  g_kernel_sink = sum;
  return ms;
}

/// A pointer chase along one random cycle through 4 MiB. It is not read
/// first: how much of it is still cached when the chase starts depends on
/// the other guests sharing the host's last-level cache, and that is the
/// slowdown it measures. The op before it also evicts some of it, so a
/// change to an op's memory footprint moves the probe a little too.
double pointer_chase_ms() {
  static const std::vector<uint32_t> ring = [] {
    std::vector<uint32_t> order(1u << 20), r(order.size());
    std::iota(order.begin(), order.end(), 0u);
    uint64_t x = 7;
    for (size_t i = order.size() - 1; i > 0; --i) {
      std::swap(order[i], order[lcg(x) % (i + 1)]);
    }
    for (size_t i = 0; i < order.size(); ++i) {
      r[order[i]] = order[(i + 1) % order.size()];
    }
    return r;
  }();
  const auto t0 = Clock::now();
  uint32_t v = 0;
  uint64_t sum = 0;
  for (int k = 0; k < 100000; ++k) {
    v = ring[v];
    sum += v;
  }
  const double ms = ms_since(t0);
  g_kernel_sink = sum;
  return ms;
}

/// The kernels' median times on the reference host (Release, GCC 12, 4-vCPU
/// Xeon) while it was quiet, with 16 MiB of other memory touched between
/// probes as an op would.
constexpr double kEventQueueRefMs = 3.3;
constexpr double kPointerChaseRefMs = 8.7;

}  // namespace

double host_slowdown() {
  return std::sqrt(event_queue_ms() / kEventQueueRefMs *
                   pointer_chase_ms() / kPointerChaseRefMs);
}

ScaledTimer::ScaledTimer() : before_(probe()) {}

double ScaledTimer::probe() {
  const auto t0 = Clock::now();
  const double slowdown = host_slowdown();
  probe_s_ += seconds_since(t0);
  return slowdown;
}

OpTime ScaledTimer::stop() {
  const double wall = seconds_since(t0_);
  const double after = probe();
  const double scaled = wall / (0.5 * (before_ + after));
  before_ = after;
  return {wall, scaled};
}

int pass_count(int seconds, double pass_estimate_s) {
  return std::max(2, static_cast<int>(std::lround(seconds / pass_estimate_s)));
}

void time_setup(Result& res, const std::function<void(bool last)>& once) {
  ScaledTimer timer;
  std::vector<double> scaled;
  std::string note = "set-up repetitions, wall (scaled) s:";
  for (int i = 0; i < kSetupReps; ++i) {
    timer.start();
    once(i + 1 == kSetupReps);
    const OpTime t = timer.stop();
    scaled.push_back(t.scaled_s);
    char buf[48];
    std::snprintf(buf, sizeof buf, " %.3f (%.3f)", t.wall_s, t.scaled_s);
    note += buf;
  }
  res.set("setup_s", median(scaled), "s");
  res.notes.push_back(note);
}

void report_ops(Result& res, size_t ops, const std::vector<PassTime>& passes,
                double timed_s, const ScaledTimer& timer, const Usage& start) {
  const double cpu_s = cpu_seconds() - start.cpu_s - timer.probe_s();
  const double steal_s = steal_seconds() - start.steal_s;
  double wall_s = 0, scaled_s = 0;
  for (const PassTime& p : passes) {
    wall_s += p.wall_s;
    scaled_s += p.scaled_s;
  }
  res.set("wall_s", scaled_s / static_cast<double>(passes.size()), "s");
  res.set("ops_per_s", static_cast<double>(ops) / scaled_s, "1/s");
  res.set("base.cpu_per_wall", cpu_s / (timed_s - timer.probe_s()), "ratio");
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "timed phase: %zu ops in %zu passes, %.3f s, of which ops "
                "%.3f s (scaled %.3f s) and host probes %.3f s",
                ops, passes.size(), timed_s, wall_s, scaled_s, timer.probe_s());
  res.notes.push_back(buf);
  std::snprintf(buf, sizeof buf, "mean host slowdown over the ops: %.3f",
                wall_s / scaled_s);
  res.notes.push_back(buf);
  std::string times = "pass times, wall (scaled) s:";
  for (const PassTime& p : passes) {
    std::snprintf(buf, sizeof buf, " %.3f (%.3f)", p.wall_s, p.scaled_s);
    times += buf;
  }
  res.notes.push_back(times);
  std::snprintf(buf, sizeof buf,
                "host steal during the timed phase: %.2f s summed over all "
                "CPUs (%.1f%% of its wall time)",
                steal_s, 100.0 * steal_s / timed_s);
  res.notes.push_back(buf);
}

}  // namespace perfbench

// Shared plumbing of the desyn benchmark driver: run configuration, the
// result it prints, timing statistics and process measurements.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "circuits/circuits.h"

namespace perfbench {

// The benchmark is a client of the whole library.
using namespace desyn;

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double ms_since(Clock::time_point t0) { return 1e3 * seconds_since(t0); }

struct Config {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string cli;      ///< desyn_cli binary (the svc layer probe serves with it)
  std::string out_dir;  ///< reports, traces and the determinism ledger
  std::string fault;    ///< optional fault::Spec armed for the whole run
  std::string commit;   ///< git commit, recorded in the report
  std::string source_digest;  ///< digest of the built sources; keys the ledger
};

/// What one run reports: the op accounting plus named metrics in the order
/// they were set. `failures` keeps a message per failed op or guard.
struct Result {
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::string> failures;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  /// Values that must repeat exactly for a fixed seed (steadiness guard).
  std::vector<std::pair<std::string, std::string>> deterministic;
  /// Free-form lines for the report file (per-op timings, trace overhead).
  std::vector<std::string> notes;

  void fail(const std::string& what);
  void set(const std::string& name, double value, const std::string& unit);
  void pin(const std::string& name, const std::string& value);
  void pin(const std::string& name, double value);
  double get(const std::string& name) const;
};

/// One generated input: the program only ever sees `verilog`; `netlist` is
/// that text parsed back.
struct Design {
  std::string name;
  std::string verilog;
  nl::Netlist netlist{"design"};
  nl::NetId clock;
};

/// Serialise a generated circuit and parse it back (the set-up's input
/// preparation).
Design make_design(std::string name, const circuits::Circuit& c);

/// The DLX case study running the first standard program.
circuits::Circuit dlx_circuit();

double quantile(std::vector<double> v, double q);  ///< linear interpolation
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }
double geomean(const std::vector<double>& v);

/// VmHWM of this process, in MiB.
double peak_rss_mb();
/// User + system CPU seconds of this process.
double cpu_seconds();
/// Host steal time so far, summed over this machine's CPUs (/proc/stat):
/// time a virtual CPU wanted to run but the hypervisor ran someone else.
double steal_seconds();

/// How much slower than the reference host this machine runs right now:
/// the geometric mean of two fixed kernels' times (an event-queue loop and
/// a pointer chase through 4 MiB), each over its reference-host time. The
/// kernels are the benchmark's own code, so no change to the library moves
/// them. On the reference host the factor drifts between about 0.8 and 1.4
/// from one ten-second stretch to the next (other guests share its cores),
/// and every timing of the library drifts with it.
double host_slowdown();

/// One op's time: as measured, and at reference-host speed.
struct OpTime {
  double wall_s;
  double scaled_s;
};

/// Times consecutive ops at reference-host speed. The host is probed
/// (host_slowdown) on construction and after every op; an op's scaled
/// time is its wall time over the mean of the probes on either side.
class ScaledTimer {
 public:
  ScaledTimer();
  void start() { t0_ = Clock::now(); }
  /// Ends the op begun by the last start().
  OpTime stop();
  /// Wall seconds spent probing so far.
  double probe_s() const { return probe_s_; }

 private:
  double probe();

  double before_;
  double probe_s_ = 0;
  Clock::time_point t0_;
};

/// The timed phase repeats a fixed op list this many times: enough passes
/// to fill about `seconds` on the reference host, never fewer than two.
int pass_count(int seconds, double pass_estimate_s);

/// Set-up is repeated this many times per run and its median reported; the
/// last repetition's state is what the timed phase uses.
constexpr int kSetupReps = 5;

/// Run `once(last)` kSetupReps times; set setup_s to the median of the
/// repetitions' scaled seconds and note every repetition's wall and scaled
/// time.
void time_setup(Result& res, const std::function<void(bool last)>& once);

/// CPU and steal seconds at the start of a timed phase.
struct Usage {
  double cpu_s;
  double steal_s;
};

/// Wall and scaled seconds of the ops of one pass.
struct PassTime {
  double wall_s = 0;
  double scaled_s = 0;
  void add(const OpTime& t) {
    wall_s += t.wall_s;
    scaled_s += t.scaled_s;
  }
};

/// The end-to-end timing metrics every workload reports from its `ops`
/// and pass times: wall_s is the mean scaled pass, ops_per_s the ops over
/// the scaled time of all passes. Also base.cpu_per_wall (CPU seconds
/// over the timed phase's wall time, both less the `timer`'s probing) and
/// notes of the wall times, the host slowdown and the host steal time.
void report_ops(Result& res, size_t ops, const std::vector<PassTime>& passes,
                double timed_s, const ScaledTimer& timer, const Usage& start);

}  // namespace perfbench

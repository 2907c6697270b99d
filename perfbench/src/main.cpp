// desyn_perfbench: one seeded workload of the desyn benchmark per run.
//
//   desyn_perfbench --workload verify|explore --seed N --seconds S
//                   --trace 0|1 --cli <desyn_cli> --out-dir <dir>
//                   [--commit <rev>] [--source-digest <hex>]
//                   [--fault <fault::Spec>]
//
// Prints a human summary, then as its last stdout line one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Untraced runs report the
// end-to-end metrics, traced runs the per-layer ones. The full report
// (provenance, every metric, per-op notes, failures) and, when tracing, the
// Chrome trace and self-time table go under --out-dir.
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <span>
#include <sstream>
#include <thread>

#include "base/fault.h"
#include "base/json.h"
#include "trace.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE ""
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

namespace fs = std::filesystem;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json: untraced runs print exactly the first list,
// traced runs exactly the second.
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"wall_s", "s"},
    {"ops_per_s", "1/s"},      {"peak_rss_mb", "MB"},
    {"desync_cells", "count"}, {"ctl_cells", "count"},
    {"measured_period_ps", "ps"}, {"model_error", "ratio"},
};

const MetricDef kPerLayer[] = {
    {"sim.flow_eq_ms", "ms"},
    {"sim.build_ms", "ms"},
    {"sim.events", "count"},
    {"sim.events_per_s", "1/s"},
    {"netlist.read_ms", "ms"},
    {"netlist.hash_ms", "ms"},
    {"core.partition_ms", "ms"},
    {"core.latchify_ms", "ms"},
    {"sta.adjacency_ms", "ms"},
    {"ctl.synth_ms", "ms"},
    {"pn.mcr_ms", "ms"},
    {"netlist.write_ms", "ms"},
    {"svc.rtt_p50_ms.cached", "ms"},
    {"svc.rtt_p50_ms.variant", "ms"},
    {"svc.rtt_p50_ms.eco", "ms"},
    {"svc.rtt_p50_ms.cold", "ms"},
    {"svc.rtt_p50_ms.lint", "ms"},
    {"svc.handle_p50_ms.cached", "ms"},
    {"svc.handle_p50_ms.variant", "ms"},
    {"svc.handle_p50_ms.eco", "ms"},
    {"svc.handle_p50_ms.cold", "ms"},
    {"svc.handle_p50_ms.lint", "ms"},
    {"svc.transport_p50_ms.cached", "ms"},
    {"base.json_parse_ms", "ms"},
    {"svc.resp_mb", "MB"},
    {"svc.retries", "count"},
    {"flow.result_hit_ratio", "ratio"},
    {"flow.eco_fast_ratio", "ratio"},
    {"flow.adjacency_eco", "count"},
    {"flow.synth_patched", "count"},
    {"flow.mcr_warm", "count"},
    {"flow.evictions", "count"},
    {"core.optimize_ms", "ms"},
    {"core.opt_candidates", "count"},
    {"core.opt_pruned", "count"},
    {"core.opt_warm_solves", "count"},
    {"core.opt_cold_solves", "count"},
    {"core.opt_cand_per_s", "1/s"},
    {"flow.mc_ms", "ms"},
    {"pn.mc_samples_per_s", "1/s"},
    {"check.lint_ms", "ms"},
    {"check.arcs_checked", "count"},
    {"check.paths_checked", "count"},
    {"check.edges_checked", "count"},
    {"flow.margin_opt_ms", "ms"},
    {"flow.banks_shaved", "count"},
    {"base.cpu_per_wall", "ratio"},
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "desyn_perfbench: %s\nusage: desyn_perfbench --workload "
               "verify|explore --seed N --seconds S --trace 0|1 --cli "
               "<desyn_cli> --out-dir <dir> [--commit REV] [--source-digest "
               "HEX] [--fault SPEC]\n",
               why.c_str());
  std::exit(2);
}

Config parse_args(int argc, char** argv) {
  Config cfg;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (i + 1 >= argc) usage("missing value for " + a);
    std::string v = argv[++i];
    try {
      if (a == "--workload") cfg.workload = v;
      else if (a == "--seed") cfg.seed = std::stoull(v), have_seed = true;
      else if (a == "--seconds") cfg.seconds = std::stoi(v);
      else if (a == "--trace") cfg.trace = std::stoi(v) != 0;
      else if (a == "--cli") cfg.cli = v;
      else if (a == "--out-dir") cfg.out_dir = v;
      else if (a == "--commit") cfg.commit = v;
      else if (a == "--source-digest") cfg.source_digest = v;
      else if (a == "--fault") cfg.fault = v;
      else usage("unknown option " + a);
    } catch (const std::logic_error&) {
      usage("bad value for " + a + ": " + v);
    }
  }
  if (cfg.workload != "verify" && cfg.workload != "explore") {
    usage("--workload must be verify or explore");
  }
  for (char ch : cfg.source_digest) {
    if (!std::isxdigit(static_cast<unsigned char>(ch))) {
      usage("--source-digest must be hexadecimal");
    }
  }
  if (!have_seed || cfg.seconds < 1 || cfg.out_dir.empty()) {
    usage("--seed, --seconds >= 1 and --out-dir are required");
  }
  return cfg;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Steadiness guard: values that must repeat exactly for a fixed seed and
/// fixed sources are kept in a ledger per (workload, seed, source digest);
/// a later run that reads otherwise fails. Other sources get a ledger of
/// their own, so a change that moves these values is metric movement, not
/// a guard failure. A fault-armed run, or one without a digest, neither
/// reads nor writes it.
void check_ledger(const Config& cfg, Result& res) {
  if (!cfg.fault.empty() || cfg.source_digest.empty()) return;
  fs::path dir = fs::path(cfg.out_dir) / "ledger";
  fs::create_directories(dir);
  fs::path path = dir / (cfg.workload + "-seed" + std::to_string(cfg.seed) +
                         "-" + cfg.source_digest);
  std::map<std::string, std::string> known;
  {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
      size_t eq = line.find('=');
      if (eq != std::string::npos) known[line.substr(0, eq)] = line.substr(eq + 1);
    }
  }
  for (const auto& [name, value] : res.deterministic) {
    auto it = known.find(name);
    if (it == known.end()) {
      known[name] = value;
    } else if (it->second != value) {
      res.fail("guard: deterministic value " + name + " was " + it->second +
               ", now " + value);
    }
  }
  if (res.failed == 0) {
    std::ofstream out(path);
    for (const auto& [name, value] : known) out << name << '=' << value << '\n';
  }
}

/// The traced run's cost: its wall_s minus the untraced run's of the same
/// workload and seed, when that run's report is at hand.
void note_trace_overhead(const std::string& traced_stem, Result& res) {
  std::string untraced = traced_stem.substr(0, traced_stem.size() - 7);
  std::ifstream in(untraced + ".report.json");
  if (!in) {
    res.notes.push_back("tracing overhead: no untraced report of this seed");
    return;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  const json::Value* wall = nullptr;
  json::Value doc = json::parse(ss.str());
  if (const json::Value* m = doc.get("metrics")) wall = m->get("wall_s");
  if (!wall) return;
  const double plain = wall->get_number("value", 0);
  const double traced = res.get("wall_s");
  res.notes.push_back("tracing overhead: traced wall_s " + num(traced) +
                      " - untraced wall_s " + num(plain) + " = " +
                      num(traced - plain) + " s");
}

void write_report(const Config& cfg, const Result& res,
                  const std::string& stem) {
  std::ofstream out(stem + ".report.json");
  out << "{\n  \"schema\": \"desyn-perfbench-v1\",\n";
  out << "  \"provenance\": {\"workload\": \"" << cfg.workload
      << "\", \"seed\": " << cfg.seed << ", \"seconds\": " << cfg.seconds
      << ", \"trace\": " << (cfg.trace ? 1 : 0)
      << ", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"cpu\": \"" << json::escape(cpu_model()) << "\", \"compiler\": \""
      << json::escape(PERFBENCH_COMPILER) << "\", \"build_type\": \""
      << PERFBENCH_BUILD_TYPE << "\", \"commit\": \""
      << json::escape(cfg.commit) << "\", \"source_digest\": \""
      << cfg.source_digest << "\", \"fault\": \""
      << json::escape(cfg.fault) << "\"},\n";
  out << "  \"attempted\": " << res.attempted << ", \"failed\": " << res.failed
      << ",\n  \"metrics\": {";
  for (size_t i = 0; i < res.metrics.size(); ++i) {
    const auto& [name, m] = res.metrics[i];
    out << (i ? ",\n    " : "\n    ") << '"' << name << "\": {\"value\": "
        << num(m.first) << ", \"unit\": \"" << m.second << "\"}";
  }
  out << "\n  },\n  \"failures\": [";
  for (size_t i = 0; i < res.failures.size(); ++i) {
    out << (i ? ",\n    " : "\n    ") << '"' << json::escape(res.failures[i])
        << '"';
  }
  out << "],\n  \"notes\": [";
  for (size_t i = 0; i < res.notes.size(); ++i) {
    out << (i ? ",\n    " : "\n    ") << '"' << json::escape(res.notes[i])
        << '"';
  }
  out << "]\n}\n";
}

int run(const Config& cfg) {
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if (build_type != "Release" && build_type != "RelWithDebInfo") {
    std::fprintf(stderr,
                 "desyn_perfbench: refusing to time a '%s' build; configure "
                 "with -DCMAKE_BUILD_TYPE=Release\n",
                 build_type.c_str());
    return 2;
  }
  fs::create_directories(cfg.out_dir);
  trace::enable(cfg.trace);

  Result res = cfg.workload == "verify" ? run_verify(cfg) : run_explore(cfg);
  for (const char* name :
       {"desync_cells", "ctl_cells", "measured_period_ps", "model_error"}) {
    res.pin(name, res.get(name));
  }
  check_ledger(cfg, res);
  const double fail_ratio =
      res.attempted ? static_cast<double>(res.failed) /
                          static_cast<double>(res.attempted)
                    : 1.0;
  res.notes.push_back("fail_ratio " + num(fail_ratio));

  const std::string stem =
      (fs::path(cfg.out_dir) /
       (cfg.workload + "-seed" + std::to_string(cfg.seed) +
        (cfg.trace ? "-traced" : "")))
          .string();
  if (cfg.trace) {
    trace::write(stem);
    res.notes.push_back("trace: " + stem + ".trace.json, self time: " + stem +
                        ".selftime.txt");
    note_trace_overhead(stem, res);
  }
  write_report(cfg, res, stem);

  // Human summary, then the machine line.
  std::printf("desyn perfbench  workload=%s seed=%llu nproc=%u build=%s "
              "compiler=%s commit=%s sources=%s\ncpu: %s\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              std::thread::hardware_concurrency(), build_type.c_str(),
              PERFBENCH_COMPILER, cfg.commit.c_str(),
              cfg.source_digest.c_str(), cpu_model().c_str());
  for (const std::string& n : res.notes) std::printf("  %s\n", n.c_str());
  for (const std::string& f : res.failures) std::printf("  FAIL %s\n", f.c_str());
  std::printf("attempted %zu, failed %zu, fail_ratio %s\n", res.attempted,
              res.failed, num(fail_ratio).c_str());

  std::ostringstream line;
  line << "{\"correct\": " << (res.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << std::max<size_t>(res.attempted, 1)
       << ", \"failed\": " << res.failed << ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& d : cfg.trace ? std::span<const MetricDef>(kPerLayer)
                                      : std::span<const MetricDef>(kEndToEnd)) {
    std::printf("  %-30s %16s %s\n", d.name, num(res.get(d.name)).c_str(),
                d.unit);
    line << (first ? "" : ", ") << '"' << d.name << "\": {\"value\": "
         << num(res.get(d.name)) << ", \"unit\": \"" << d.unit << "\"}";
    first = false;
  }
  line << "}}";
  std::printf("%s\n", line.str().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Config cfg = perfbench::parse_args(argc, argv);
  try {
    if (!cfg.fault.empty()) {
      // Validate the spec up front; workloads arm it for their timed phase.
      (void)desyn::fault::Spec::parse(cfg.fault);
    }
    return perfbench::run(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "desyn_perfbench: %s\n", e.what());
    return 1;
  }
}

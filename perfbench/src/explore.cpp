// `explore`: the design-space analyses on designs whose flows set-up has
// already run into the process engine — the partition optimizer, the
// Monte-Carlo period analysis, the static linter and the per-bank margin
// shaver, each on 2 threads where it has them. No simulation, no service.
#include <algorithm>
#include <cstdio>
#include <optional>

#include "base/fault.h"
#include "check/check.h"
#include "flow/engine.h"
#include "flow/mc.h"
#include "probes.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Reference-host time of one pass, host probes included (Release, 4-core
/// Xeon).
constexpr double kPassEstimateS = 3.5;
constexpr int kJobs = 2;
constexpr size_t kMcSamples = 256;

struct Target {
  const char* name;
  std::vector<double> budgets;      ///< optimize_partition period budgets
  std::vector<const char*> lints;   ///< strategies linted
};

/// mesh16x16x1 gives the linter hundreds of banks; the DLX is the paper's
/// case study (its per-flip-flop lint takes 100 s, so prefix only); the
/// random pipeline is drawn from the workload seed.
const std::vector<Target>& targets() {
  static const std::vector<Target> t = {
      {"dlx", {1.05, 1.02}, {"prefix"}},
      {"mesh16x16x1", {1.05}, {"prefix", "perff"}},
      {"rpipe128x4", {1.05}, {"prefix", "perff"}},
  };
  return t;
}

circuits::Circuit generate(const std::string& name, uint64_t seed) {
  if (name == "dlx") return dlx_circuit();
  if (name == "mesh16x16x1") return circuits::register_mesh(16, 16, 1);
  return circuits::random_pipeline(seed, 128, 4);
}

flow::DesyncOptions coordinate(const char* strategy) {
  flow::DesyncOptions opt;
  opt.strategy = flow::PartitionSpec::parse(strategy);
  opt.opt_jobs = kJobs;
  return opt;
}

}  // namespace

Result run_explore(const Config& cfg) {
  const cell::Tech& tech = cell::Tech::generic90();
  Result res;
  std::vector<Design> designs;

  // Set-up: generate, serialise and parse back, then one cold flow per
  // linted coordinate into the process engine (optimize_margins and the
  // analyses below are served from it). The DLX's `perff` coordinate, too
  // slow to lint, still gets one cold flow, in a short-lived engine of its
  // own, so set-up times the flow on both strategies of every design.
  std::vector<std::string> flow_notes;
  auto set_up = [&](bool last) {
    designs.clear();
    for (const Target& t : targets()) {
      designs.push_back(make_design(t.name, generate(t.name, cfg.seed)));
    }
    std::optional<flow::Engine> local;
    flow::Engine* engine = &flow::Engine::process(tech);
    if (!last) engine = &local.emplace(tech);
    flow_notes.clear();
    for (size_t i = 0; i < designs.size(); ++i) {
      for (const char* st : {"prefix", "perff"}) {
        const std::vector<const char*>& lints = targets()[i].lints;
        const bool linted = std::find_if(lints.begin(), lints.end(),
                                         [st](const char* l) {
                                           return std::string(l) == st;
                                         }) != lints.end();
        const auto t0 = Clock::now();
        std::optional<flow::Engine> spare;
        (void)(linted ? *engine : spare.emplace(tech))
            .desynchronize(designs[i].netlist, designs[i].clock,
                           coordinate(st));
        char buf[160];
        std::snprintf(buf, sizeof buf, "set-up flow %-24s %8.1f ms",
                      (designs[i].name + " " + st).c_str(), ms_since(t0));
        flow_notes.push_back(buf);
      }
    }
  };
  time_setup(res, set_up);
  res.notes.insert(res.notes.end(), flow_notes.begin(), flow_notes.end());

  flow::Engine& engine = flow::Engine::process(tech);
  std::vector<flow::DesyncResult> produced;
  std::vector<std::shared_ptr<const flow::DesyncResult>> linted;
  for (size_t i = 0; i < designs.size(); ++i) {
    for (const char* st : targets()[i].lints) {
      linted.push_back(engine.desynchronize(designs[i].netlist,
                                            designs[i].clock, coordinate(st)));
    }
  }
  if (!cfg.fault.empty()) fault::arm(fault::Spec::parse(cfg.fault));

  flow::McOptions mc;
  mc.samples = kMcSamples;
  mc.seed = cfg.seed;
  mc.jobs = kJobs;
  flow::OptimizeStats opt_stats;
  size_t lint_arcs = 0, lint_paths = 0, lint_edges = 0, banks_shaved = 0;
  size_t mc_samples = 0;

  const int passes = pass_count(cfg.seconds, kPassEstimateS);
  std::vector<double> lat_ms;
  std::vector<PassTime> pass_times;
  PassTime this_pass;
  const Usage usage0{cpu_seconds(), steal_seconds()};
  const auto t_timed = Clock::now();
  ScaledTimer timer;
  uint64_t op = 0;
  // Runs one analysis as an op: timed, spanned, failures counted.
  auto analysis = [&](const char* span, const std::string& label, int pass,
                      const std::function<std::string()>& body) {
    ++res.attempted;
    std::string err;
    timer.start();
    try {
      trace::Span s(span, ++op);
      err = body();
    } catch (const std::exception& e) {
      err = e.what();
    }
    const OpTime t = timer.stop();
    this_pass.add(t);
    lat_ms.push_back(1e3 * t.wall_s);
    if (!err.empty()) res.fail(label + ": " + err);
    if (pass == 0) {
      char buf[160];
      std::snprintf(buf, sizeof buf, "op %-32s %9.1f ms", label.c_str(),
                    lat_ms.back());
      res.notes.push_back(buf);
    }
  };

  for (int p = 0; p < passes; ++p) {
    const bool count = p == 0;  // counters of one pass; later ones repeat it
    this_pass = {};
    size_t li = 0;
    for (size_t i = 0; i < designs.size(); ++i) {
      const Design& d = designs[i];
      const Target& t = targets()[i];
      const flow::DesyncResult& prefix = *linted[li];
      for (double budget : t.budgets) {
        char label[64];
        std::snprintf(label, sizeof label, "%s optimize auto:%.2f",
                      d.name.c_str(), budget);
        analysis("core.optimize", label, p, [&]() -> std::string {
          flow::PartitionOptOptions o;
          o.period_budget = budget;
          o.jobs = kJobs;
          flow::PartitionOptResult r =
              flow::optimize_partition(d.netlist, d.clock, tech, o);
          if (count) {
            opt_stats.candidates += r.stats.candidates;
            opt_stats.pruned += r.stats.pruned;
            opt_stats.warm_solves += r.stats.warm_solves;
            opt_stats.cold_solves += r.stats.cold_solves;
          }
          if (r.period > budget * r.baseline_period * (1 + 1e-12)) {
            return "period " + std::to_string(r.period) + " over budget";
          }
          return "";
        });
      }
      analysis("flow.mc", d.name + " mc", p, [&]() -> std::string {
        flow::McReport r =
            flow::mc_analysis(prefix, tech, flow::Margins(1.10), mc);
        if (count) mc_samples += r.samples;
        if (r.samples != kMcSamples + mc.corners.size() || r.period.p50 <= 0) {
          return "incomplete Monte-Carlo report";
        }
        return "";
      });
      for (const char* st : t.lints) {
        const flow::DesyncResult& dr = *linted[li++];
        analysis("check.lint", d.name + " lint " + st, p, [&]() -> std::string {
          check::LintReport r = check::lint(dr, tech);
          if (count) {
            lint_arcs += r.arcs_checked;
            lint_paths += r.paths_checked;
            lint_edges += r.edges_checked;
          }
          return r.errors() == 0 ? "" : std::to_string(r.errors()) + " lint errors";
        });
      }
      analysis("flow.margin_opt", d.name + " optimize_margins", p,
               [&]() -> std::string {
                 flow::MarginOptResult r = flow::optimize_margins(
                     d.netlist, d.clock, tech, coordinate("prefix"), mc);
                 if (count) banks_shaved += r.banks_shaved;
                 if (r.optimized.violation_samples >
                     r.baseline.violation_samples) {
                   return "more violating samples than the uniform margin";
                 }
                 return "";
               });
    }
    pass_times.push_back(this_pass);
  }
  const double timed_s = seconds_since(t_timed);
  fault::disarm();
  report_ops(res, lat_ms.size(), pass_times, timed_s, timer, usage0);
  res.set("peak_rss_mb", peak_rss_mb(), "MB");
  for (const auto& dr : linted) produced.push_back(*dr);
  report_hardware(res, produced, tech);

  res.pin("core.opt_candidates", static_cast<double>(opt_stats.candidates));
  res.pin("core.opt_pruned", static_cast<double>(opt_stats.pruned));
  res.pin("core.opt_warm_solves", static_cast<double>(opt_stats.warm_solves));
  res.pin("core.opt_cold_solves", static_cast<double>(opt_stats.cold_solves));
  res.pin("check.arcs_checked", static_cast<double>(lint_arcs));
  res.pin("check.paths_checked", static_cast<double>(lint_paths));
  res.pin("check.edges_checked", static_cast<double>(lint_edges));
  res.pin("flow.banks_shaved", static_cast<double>(banks_shaved));

  if (cfg.trace) {
    const double opt_ms = trace::total_ms("core.optimize");
    res.set("core.optimize_ms", opt_ms, "ms");
    res.set("core.opt_candidates", static_cast<double>(opt_stats.candidates), "count");
    res.set("core.opt_pruned", static_cast<double>(opt_stats.pruned), "count");
    res.set("core.opt_warm_solves", static_cast<double>(opt_stats.warm_solves), "count");
    res.set("core.opt_cold_solves", static_cast<double>(opt_stats.cold_solves), "count");
    res.set("core.opt_cand_per_s",
            static_cast<double>(opt_stats.candidates) * passes / (1e-3 * opt_ms),
            "1/s");
    const double mc_ms = trace::total_ms("flow.mc");
    res.set("flow.mc_ms", mc_ms, "ms");
    res.set("pn.mc_samples_per_s",
            static_cast<double>(mc_samples) * passes / (1e-3 * mc_ms), "1/s");
    res.set("check.lint_ms", trace::total_ms("check.lint"), "ms");
    res.set("check.arcs_checked", static_cast<double>(lint_arcs), "count");
    res.set("check.paths_checked", static_cast<double>(lint_paths), "count");
    res.set("check.edges_checked", static_cast<double>(lint_edges), "count");
    res.set("flow.margin_opt_ms", trace::total_ms("flow.margin_opt"), "ms");
    res.set("flow.banks_shaved", static_cast<double>(banks_shaved), "count");
    std::vector<const Design*> base;
    for (const Design& d : designs) base.push_back(&d);
    trace_layers(res, base, coordinate("prefix"), tech);
    trace_svc_layer(res, cfg);
  }
  return res;
}

}  // namespace perfbench

// `verify`: flow equivalence one cell at a time, serially, on an engine
// that set-up has already warmed with every cell's flow. The timed phase is
// almost entirely sync and desync gate-level simulation.
#include <cstdio>
#include <optional>

#include "base/fault.h"
#include "flow/engine.h"
#include "probes.h"
#include "trace.h"
#include "verif/flow_equivalence.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Reference-host time of one pass over the plan, host probes included
/// (Release, 4-core Xeon).
constexpr double kPassEstimateS = 5.0;

struct Cell {
  size_t design;
  std::string strategy;
  ctl::Protocol protocol;
};

constexpr ctl::Protocol kSemi = ctl::Protocol::SemiDecoupled;
constexpr ctl::Protocol kPulse = ctl::Protocol::Pulse;

/// The verified cells per design: every design runs `prefix` under both
/// protocols; `perff` only where it stays cheap (per-flip-flop banking of
/// pipe8x16, fir8x12, the DLX or the random pipelines takes 2-7 s a cell
/// and would swamp the pass). `mesh6x6x2` (0.8 s a cell) runs once. The
/// list keeps the warm working set (partition, latchify, adjacency, synth
/// per coordinate: 78 entries) inside the engine's 96-entry capacity.
struct Plan {
  const char* design;
  std::vector<std::pair<const char*, ctl::Protocol>> cells;
};
const std::vector<Plan>& plans() {
  static const std::vector<Plan> p = {
      {"pipe4x8", {{"prefix", kSemi}, {"prefix", kPulse}, {"perff", kSemi},
                   {"perff", kPulse}}},
      {"lfsr16", {{"prefix", kSemi}, {"prefix", kPulse}, {"perff", kSemi},
                  {"perff", kPulse}}},
      {"lfsr64", {{"prefix", kSemi}, {"prefix", kPulse}, {"perff", kSemi}}},
      {"counters4x8", {{"prefix", kSemi}, {"prefix", kPulse},
                       {"perff", kPulse}}},
      {"fir8x12", {{"prefix", kSemi}, {"prefix", kPulse}}},
      {"pipe8x16", {{"prefix", kSemi}, {"prefix", kPulse}}},
      {"mesh6x6x2", {{"prefix", kSemi}}},
      {"dlx", {{"prefix", kSemi}, {"prefix", kPulse}}},
      {"rpipe8x8.0", {{"prefix", kSemi}, {"prefix", kPulse}}},
      {"rpipe8x8.1", {{"prefix", kSemi}, {"prefix", kPulse}}},
  };
  return p;
}

/// The plan's designs in order: scaling-suite circuits, the DLX case study
/// and two random pipelines drawn from the workload seed.
std::vector<Design> make_designs(uint64_t seed) {
  std::vector<circuits::Suite> suite = circuits::scaling_suite();
  std::vector<Design> out;
  for (const Plan& p : plans()) {
    const std::string name = p.design;
    if (name == "dlx") {
      out.push_back(make_design(name, dlx_circuit()));
    } else if (name.rfind("rpipe8x8.", 0) == 0) {
      const uint64_t k = name.back() - '0';
      out.push_back(
          make_design(name, circuits::random_pipeline(seed * 2 + k, 8, 8)));
    } else {
      for (const circuits::Suite& s : suite) {
        if (s.name == name) out.push_back(make_design(name, s.circuit));
      }
    }
  }
  return out;
}

std::vector<Cell> make_cells() {
  std::vector<Cell> cells;
  for (size_t d = 0; d < plans().size(); ++d) {
    for (const auto& [st, protocol] : plans()[d].cells) {
      cells.push_back({d, st, protocol});
    }
  }
  return cells;
}

flow::DesyncOptions options(const Cell& c) {
  flow::DesyncOptions opt;
  opt.strategy = flow::PartitionSpec::parse(c.strategy);
  opt.protocol = c.protocol;
  return opt;
}

size_t stage_runs(const flow::StageCounters& c) {
  return c.partition_runs + c.latchify_runs + c.adjacency_runs +
         c.adjacency_eco + c.synth_runs + c.synth_patched + c.mcr_runs +
         c.mcr_warm;
}

}  // namespace

Result run_verify(const Config& cfg) {
  const cell::Tech& tech = cell::Tech::generic90();
  Result res;
  std::vector<Design> designs;
  std::vector<Cell> cells;

  // Set-up: generate, serialise and parse back every design, then one cold
  // flow per cell into the engine flow equivalence will be served from.
  // Earlier repetitions warm a private engine so each one is cold. Designs
  // whose `perff` cells are too slow to verify still get one cold `perff`
  // flow, each in a short-lived engine of its own (the process engine's
  // capacity is kept for the cells), so set-up times the flow on both
  // strategies of every design.
  std::vector<std::string> flow_notes;
  auto set_up = [&](bool last) {
    designs = make_designs(cfg.seed);
    cells = make_cells();
    std::optional<flow::Engine> local;
    flow::Engine* engine = &flow::Engine::process(tech);
    if (!last) engine = &local.emplace(tech);
    flow_notes.clear();
    auto cold_flow = [&](flow::Engine& e, const Design& d, const Cell& c) {
      const auto t0 = Clock::now();
      (void)e.desynchronize(d.netlist, d.clock, options(c));
      char buf[160];
      std::snprintf(buf, sizeof buf, "set-up flow %-24s %8.1f ms",
                    (d.name + " " + c.strategy + " " +
                     ctl::protocol_name(c.protocol)).c_str(), ms_since(t0));
      flow_notes.push_back(buf);
    };
    for (const Cell& c : cells) cold_flow(*engine, designs[c.design], c);
    for (size_t d = 0; d < designs.size(); ++d) {
      bool has_perff = false;
      for (const Cell& c : cells) has_perff |= c.design == d && c.strategy == "perff";
      if (!has_perff) {
        flow::Engine spare(tech);
        cold_flow(spare, designs[d], {d, "perff", kSemi});
      }
    }
  };
  time_setup(res, set_up);
  res.notes.insert(res.notes.end(), flow_notes.begin(), flow_notes.end());

  // Timed phase.
  flow::Engine& engine = flow::Engine::process(tech);
  if (!cfg.fault.empty()) fault::arm(fault::Spec::parse(cfg.fault));
  const size_t stages_before = stage_runs(engine.counters());
  const int passes = pass_count(cfg.seconds, kPassEstimateS);
  std::vector<double> lat_ms;
  std::vector<PassTime> pass_times;
  std::vector<verif::FlowEqResult> first(cells.size());
  const verif::Stimulus stim = verif::random_stimulus(cfg.seed);
  const Usage usage0{cpu_seconds(), steal_seconds()};
  const auto t_timed = Clock::now();
  ScaledTimer timer;
  for (int p = 0; p < passes; ++p) {
    PassTime pass;
    for (size_t i = 0; i < cells.size(); ++i) {
      const Cell& c = cells[i];
      const Design& d = designs[c.design];
      verif::FlowEqOptions opt;
      opt.desync = options(c);
      ++res.attempted;
      verif::FlowEqResult r;
      timer.start();
      try {
        trace::Span s("sim.flow_eq", lat_ms.size() + 1);
        r = verif::check_flow_equivalence(d.netlist, d.clock, stim, tech, opt);
      } catch (const std::exception& e) {
        r.mismatch = e.what();
      }
      const OpTime t = timer.stop();
      pass.add(t);
      lat_ms.push_back(1e3 * t.wall_s);
      const std::string label = d.name + " " + c.strategy + " " +
                                ctl::protocol_name(c.protocol);
      if (!r.equivalent || r.desync_setup_violations != 0) {
        res.fail("verify " + label + ": " +
                 (r.mismatch.empty() ? "setup violations" : r.mismatch));
      } else if (p == 0) {
        first[i] = r;
      } else if (r.desync_period != first[i].desync_period ||
                 r.desync_cells != first[i].desync_cells) {
        res.fail("verify " + label + ": result differs between passes");
      }
      if (p == 0) {
        char buf[160];
        std::snprintf(buf, sizeof buf, "cell %-24s %9.1f ms  meas %8.0f ps  "
                      "pred %8.0f ps", label.c_str(), lat_ms.back(),
                      r.desync_period, r.predicted_period);
        res.notes.push_back(buf);
      }
    }
    pass_times.push_back(pass);
  }
  const double timed_s = seconds_since(t_timed);
  fault::disarm();
  report_ops(res, lat_ms.size(), pass_times, timed_s, timer, usage0);

  // Guard: set-up's warm-up held, so the timed phase ran no flow stage.
  const size_t stages = stage_runs(engine.counters()) - stages_before;
  if (stages != 0) {
    res.fail("guard: timed phase ran " + std::to_string(stages) +
             " engine stages (set-up warm-up was evicted)");
  }

  size_t desync_cells = 0, ctl_cells = 0;
  std::vector<double> measured, error;
  for (const verif::FlowEqResult& r : first) {
    if (!r.equivalent) continue;
    desync_cells += r.desync_cells;
    ctl_cells += r.controller_cells + r.delay_cells;
    measured.push_back(r.desync_period);
    error.push_back(std::max(1e-9, model_error(r.predicted_period,
                                               r.desync_period)));
  }
  res.set("peak_rss_mb", peak_rss_mb(), "MB");
  res.set("desync_cells", static_cast<double>(desync_cells), "count");
  res.set("ctl_cells", static_cast<double>(ctl_cells), "count");
  res.set("measured_period_ps", geomean(measured), "ps");
  res.set("model_error", geomean(error), "ratio");

  if (cfg.trace) {
    res.set("sim.flow_eq_ms", trace::total_ms("sim.flow_eq"), "ms");
    std::vector<const Design*> base;
    for (const Design& d : designs) base.push_back(&d);
    flow::DesyncOptions opt;
    opt.protocol = ctl::Protocol::SemiDecoupled;
    trace_layers(res, base, opt, tech);
  }
  return res;
}

}  // namespace perfbench

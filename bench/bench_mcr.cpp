// A3 — ablation: analytic vs. measured cycle time, plus the MCR solver
// benchmark. Section 1 checks that the timed protocol model's maximum
// cycle ratio predicts the event-driven simulation period. Section 2 races
// the production solver (pn::max_cycle_ratio, one certificate climb) against
// the exact Bellman-Ford oracle of tests/mcr_reference.h on every suite
// control model and on large generated fabrics (thousands of transitions),
// asserting equal ratios and a genuine oracle cycle; docs/PERF.md records
// the baseline numbers.
//
//   bench_mcr [--json <path>]
//
// --json writes the solver-race rows as a machine-readable report (schema
// desyn-bench-v1) so per-commit perf trajectories can be tracked; CI
// uploads it as an artifact.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "base/cli_args.h"
#include "bench_util.h"
#include "circuits/circuits.h"
#include "core/desynchronizer.h"
#include "pn/mcr.h"
#include "verif/flow_equivalence.h"
#include "../tests/mcr_reference.h"

using namespace desyn;
using bench::time_ms;
using cell::Tech;

namespace {

struct RaceRow {
  std::string model;
  size_t transitions = 0, arcs = 0;
  double solver_ms = 0, ref_ms = 0;
  double ratio = 0;
  bool agree = false;
};

/// Time both solvers on one model, verify their ratios are equal and the
/// oracle's cycle is genuine, print a row. Returns false on disagreement
/// (the bench then exits nonzero).
bool race_solvers(const char* name, const pn::MarkedGraph& mg, int reps_s,
                  int reps_r, std::vector<RaceRow>* rows) {
  pn::CycleRatioResult h, r;
  double th = time_ms([&] { h = pn::max_cycle_ratio(mg); }, reps_s);
  double tr = time_ms([&] { r = pn::max_cycle_ratio_reference(mg); }, reps_r);
  bool agree =
      h.ratio == r.ratio && !r.cycle_arcs.empty() &&
      pn::cycle_ratio(pn::flatten(mg).view(), r.cycle_arcs) == r.ratio;
  printf("  %-16s %6zu %6zu %10.3f %10.3f %8.2fx  %s\n", name,
         mg.num_transitions(), mg.num_arcs(), th, tr, tr / th,
         agree ? "" : "DISAGREE");
  rows->push_back({name, mg.num_transitions(), mg.num_arcs(), th, tr, h.ratio,
                   agree});
  return agree;
}

void write_json(const std::string& path, const std::vector<RaceRow>& rows) {
  std::vector<std::string> cases;
  for (const RaceRow& r : rows) {
    cases.push_back(bench::fmt(
        "{\"model\": \"%s\", \"transitions\": %zu, \"arcs\": %zu, "
        "\"solver_ms\": %.6f, \"reference_ms\": %.6f, \"ratio_ps\": %.6f, "
        "\"agree\": %s}",
        r.model.c_str(), r.transitions, r.arcs, r.solver_ms, r.ref_ms, r.ratio,
        r.agree ? "true" : "false"));
  }
  bench::write_report(path, "bench_mcr", cases);
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--json") {
      json_path = cli::need_value(argc, argv, i, "--json");
    } else {
      fprintf(stderr, "usage: bench_mcr [--json <path>]\n");
      return 2;
    }
  }
  const Tech& t = Tech::generic90();
  printf("== A3: analytic (max-cycle-ratio) vs. measured desync period ==\n\n");
  printf("  %-16s %12s %12s %8s\n", "circuit", "analytic", "measured", "err");
  for (auto& s : circuits::scaling_suite()) {
    flow::DesyncResult dr =
        flow::desynchronize(s.circuit.netlist, s.circuit.clock, t);
    auto mcr = pn::max_cycle_ratio(flow::timed_control_model(dr, t));

    verif::FlowEqOptions opt;
    opt.rounds = 25;
    auto r = verif::check_flow_equivalence(s.circuit.netlist, s.circuit.clock,
                                           verif::random_stimulus(5), t, opt);
    double err = 100.0 * (r.desync_period - mcr.ratio) / mcr.ratio;
    printf("  %-16s %10.0fps %10.0fps %7.1f%%  %s\n", s.name.c_str(),
           mcr.ratio, r.desync_period, err,
           r.equivalent ? "" : "(NOT EQUIVALENT)");
  }
  printf("\n  the model abstracts fanout-dependent gate delays and the\n"
         "  pulse-generation path, so small positive errors are expected.\n");

  printf("\n== MCR solvers: certificate climb vs. Bellman-Ford "
         "reference ==\n\n");
  printf("  %-16s %6s %6s %10s %10s %9s\n", "model", "trans", "arcs",
         "solver(ms)", "ref(ms)", "speedup");
  bool ok = true;
  std::vector<RaceRow> rows;
  for (auto& s : circuits::scaling_suite()) {
    flow::DesyncResult dr =
        flow::desynchronize(s.circuit.netlist, s.circuit.clock, t);
    pn::MarkedGraph mg = flow::timed_control_model(dr, t);
    ok &= race_solvers(s.name.c_str(), mg, 50, 5, &rows);
  }
  // Large generated fabrics: thousands of control-model transitions.
  {
    auto c = circuits::register_mesh(32, 32, 1);
    flow::DesyncResult dr = flow::desynchronize(c.netlist, c.clock, t);
    ok &= race_solvers("mesh32x32x1", flow::timed_control_model(dr, t), 5, 1,
                       &rows);
  }
  {
    auto c = circuits::random_pipeline(13, 1024, 4);
    flow::DesyncResult dr = flow::desynchronize(c.netlist, c.clock, t);
    ok &= race_solvers("rpipe1024x4", flow::timed_control_model(dr, t), 5, 1,
                       &rows);
  }
  if (!json_path.empty()) write_json(json_path, rows);
  if (!ok) {
    printf("\n  SOLVER DISAGREEMENT (see rows above)\n");
    return 1;
  }
  printf("\n  both solvers return the same exact ratio on every model, and\n"
         "  every reference cycle is genuine.\n");
  return 0;
}

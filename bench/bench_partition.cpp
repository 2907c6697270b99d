// Partition-strategy Pareto study and optimizer-scaling benchmark:
// controller + matched-delay gate cost versus predicted cycle time across
// bank partitioning strategies, on the acceptance designs (the DLX case
// study, rpipe32x8, mesh6x6x2) *and* the large fabrics the incremental
// optimizer unlocked (mesh16x16x1, mesh32x32x1, rpipe1024x4 — thousands
// of per-flip-flop control transitions). The MCR-guided optimizer
// (auto:B) should dominate the fixed strategies: fewer control cells than
// per-flip-flop at a predicted period within B of the Prefix baseline.
// Results are recorded in docs/PERF.md.
//
// Cost reported is the real synthesized control network (controller logic
// + DELAY cells, ctl::synthesize_controllers output), not an estimate;
// predicted periods are the max cycle ratio of the timed control model.
// auto:* rows additionally report the optimizer's scaling counters
// (candidates / pruned / warm / cold solves) and wall time.
//
//   bench_partition [--only d1,d2] [--strategies s1,s2] [--json <path>]
//                   [--budget-ms M]
//
// --only filters the design list by name; rpipe4096x4 (16k per-flip-flop
// banks) runs only when named there. --budget-ms M makes the bench exit
// nonzero if any auto:* or perff case exceeds M wall milliseconds — the CI
// regression gate for the optimizer's scaling and for the cold
// per-flip-flop flow.
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "base/cli_args.h"
#include "bench_util.h"
#include "circuits/circuits.h"
#include "core/desynchronizer.h"
#include "dlx/cpu_builder.h"
#include "dlx/programs.h"
#include "pn/mcr.h"

using namespace desyn;

namespace {

struct Design {
  std::string name;
  nl::Netlist netlist;
  nl::NetId clock;
};

std::vector<Design> designs(const std::vector<std::string>& only) {
  auto wanted = [&](const std::string& n) {
    if (only.empty()) return true;
    for (const std::string& o : only) {
      if (o == n) return true;
    }
    return false;
  };
  std::vector<Design> out;
  if (wanted("dlx")) {
    dlx::DlxConfig cfg;
    nl::Netlist nl("dlx");
    dlx::build_dlx(nl, cfg, dlx::fibonacci_program(8));
    nl::NetId clk = nl.find_net("clk");
    out.push_back({"dlx", std::move(nl), clk});
  }
  for (circuits::Suite& s : circuits::scaling_suite()) {
    if ((s.name == "rpipe32x8" || s.name == "mesh6x6x2") && wanted(s.name)) {
      out.push_back({s.name, std::move(s.circuit.netlist), s.circuit.clock});
    }
  }
  struct Gen {
    const char* name;
    circuits::Circuit (*make)();
    bool opt_in = false;  ///< run only when named in --only
  };
  const Gen large[] = {
      {"mesh16x16x1", [] { return circuits::register_mesh(16, 16, 1); }},
      {"mesh32x32x1", [] { return circuits::register_mesh(32, 32, 1); }},
      {"rpipe1024x4", [] { return circuits::random_pipeline(13, 1024, 4); }},
      {"rpipe4096x4", [] { return circuits::random_pipeline(13, 4096, 4); },
       true},
  };
  for (const Gen& g : large) {
    if (!wanted(g.name) || (g.opt_in && only.empty())) continue;
    circuits::Circuit c = g.make();
    out.push_back({g.name, std::move(c.netlist), c.clock});
  }
  return out;
}

struct Case {
  std::string design;
  std::string strategy;
  size_t banks = 0;
  size_t cells = 0;      ///< synthesized controller + matched-delay cells
  double predicted = 0;  ///< predicted period (ps)
  double vs_prefix = 0;
  double wall_ms = 0;
  bool is_auto = false;
  flow::OptimizeStats stats;  ///< auto rows only
  int merges = 0;
};

void write_json(const std::string& path, const std::vector<Case>& cases) {
  std::vector<std::string> objs;
  for (const Case& c : cases) {
    std::string o = bench::fmt(
        "{\"design\": \"%s\", \"strategy\": \"%s\", \"banks\": %zu, "
        "\"cells\": %zu, \"predicted_ps\": %.6f, \"vs_prefix\": %.4f, "
        "\"wall_ms\": %.3f",
        c.design.c_str(), c.strategy.c_str(), c.banks, c.cells, c.predicted,
        c.vs_prefix, c.wall_ms);
    if (c.is_auto) {
      o += bench::fmt(
          ",\n     \"candidates\": %zu, \"pruned\": %zu, "
          "\"warm_solves\": %zu, \"cold_solves\": %zu, \"merges\": %d",
          c.stats.candidates, c.stats.pruned, c.stats.warm_solves,
          c.stats.cold_solves, c.merges);
    }
    objs.push_back(o + "}");
  }
  bench::write_report(path, "bench_partition", objs);
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> only;
  std::vector<std::string> strategies = {"prefix",    "perff",     "single",
                                         "auto:1.02", "auto:1.05", "auto:1.2"};
  std::string json_path;
  double budget_ms = 0;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--only") {
      only = cli::split_list(cli::need_value(argc, argv, i, "--only"));
    } else if (a == "--strategies") {
      strategies =
          cli::split_list(cli::need_value(argc, argv, i, "--strategies"));
    } else if (a == "--json") {
      json_path = cli::need_value(argc, argv, i, "--json");
    } else if (a == "--budget-ms") {
      budget_ms = cli::parse_nonneg(
          cli::need_value(argc, argv, i, "--budget-ms"), "--budget-ms value");
    } else {
      fail("unknown option '", a, "'");
    }
  }

  const cell::Tech& tech = cell::Tech::generic90();
  const ctl::Protocol protocol = ctl::Protocol::SemiDecoupled;

  std::printf(
      "Partition Pareto (protocol %s): control cells vs predicted period\n\n",
      ctl::protocol_name(protocol));
  std::printf("%-12s %-10s %6s %10s %11s %10s %10s  %s\n", "design",
              "strategy", "banks", "ctl+delay", "pred(ps)", "vs prefix",
              "wall(ms)", "optimizer (cand/pruned/warm/cold)");
  std::vector<Case> cases;
  bool over_budget = false;
  for (Design& d : designs(only)) {
    double prefix_period = 0;
    for (const std::string& strat : strategies) {
      Case c;
      c.design = d.name;
      c.strategy = strat;
      flow::DesyncOptions opt;
      opt.strategy = flow::PartitionSpec::parse(strat);
      opt.protocol = protocol;
      c.is_auto = opt.strategy.mode == flow::PartitionSpec::Mode::Auto;
      std::optional<flow::DesyncResult> dr;
      c.wall_ms = bench::time_ms([&] {
        if (c.is_auto) {
          // Run the optimizer directly so its scaling counters are
          // reportable, then drive the flow with the resulting partition.
          flow::PartitionOptOptions popt;
          popt.period_budget = opt.strategy.auto_budget;
          popt.protocol = protocol;
          flow::PartitionOptResult r =
              flow::optimize_partition(d.netlist, d.clock, tech, popt);
          c.stats = r.stats;
          c.merges = r.merges;
          opt.strategy =
              flow::PartitionSpec::explicit_(std::move(r.partition));
        }
        dr.emplace(flow::desynchronize(d.netlist, d.clock, tech, opt));
      });
      c.banks = dr->cg.num_banks();
      c.cells = dr->ctrl.cells.size();
      c.predicted =
          pn::max_cycle_ratio(flow::timed_control_model(*dr, tech)).ratio;
      if (strat == "prefix") prefix_period = c.predicted;
      c.vs_prefix = prefix_period > 0 ? c.predicted / prefix_period : 0.0;
      if ((c.is_auto || strat == "perff") && budget_ms > 0 &&
          c.wall_ms > budget_ms) {
        over_budget = true;
      }
      char optbuf[96] = "";
      if (c.is_auto) {
        std::snprintf(optbuf, sizeof optbuf, "%zu/%zu/%zu/%zu",
                      c.stats.candidates, c.stats.pruned, c.stats.warm_solves,
                      c.stats.cold_solves);
      }
      std::printf("%-12s %-10s %6zu %10zu %11.0f %9.2fx %10.1f  %s\n",
                  d.name.c_str(), strat.c_str(), c.banks, c.cells, c.predicted,
                  c.vs_prefix, c.wall_ms, optbuf);
      cases.push_back(std::move(c));
    }
    std::printf("\n");
  }
  if (!json_path.empty()) write_json(json_path, cases);
  if (over_budget) {
    std::printf(
        "FAIL: an auto:* or perff case exceeded the %.0f ms wall budget\n",
        budget_ms);
    return 1;
  }
  return 0;
}

// bench_mc — Monte-Carlo period analysis on the sampled timed control
// models of mesh16x16x1 (~256 control banks, the partition-optimizer scale
// target) and rpipe128x4 (random_pipeline(3, 128, 4), whose critical
// cycles the batch solver's 1- and 2-arc dictionary misses).
//
//   bench_mc [--samples N] [--json <path>] [--min-speedup X]
//
// Each model's N statistical samples (plus the 1.0 corner, seed 3) are the
// rows flow::mc_analysis solves, materialized by flow::mc_delay_rows. The
// baseline solves every row cold (pn::max_cycle_ratio: the structure
// build plus one certificate climb from zero potentials); the contender is
// McrBatch::solve_all, which builds the structure once and certifies each
// sample from its block predecessor. Every batch ratio is asserted
// bit-equal to its cold solve before any time is reported, and the
// parallel rows are asserted identical to the serial ones. The batch rows
// also count the samples the dictionary certified as it stood and those it
// certified after repairing itself with cycles the relaxation found.
//
// The mc_analysis rows time the whole analysis end to end — every block
// drawn and solved on the worker that owns it — at jobs 1, 2 and 4 (mean
// of 3 calls), asserting the reports byte-identical across job counts.
// Next to it they split the work: `fill` is mc_delay_rows (the draws plus
// writing the matrix the analysis never builds) and `solve` the batch
// solve of that matrix, at the same job count.
//
// --min-speedup gates the mesh16x16x1 serial (jobs = 1) batch-vs-cold
// ratio — CI uses 4 at 256 samples — so the structure sharing itself is
// gated, not thread scaling (which a loaded single-CPU runner cannot
// promise). rpipe128x4's rows are reported, not gated: its cold solve is
// about half the mesh's, so its ratio sits near the bound by construction.
// --json writes the rows as a machine-readable report (schema
// desyn-bench-v1).
#include <cstdio>
#include <string>
#include <vector>

#include "base/cli_args.h"
#include "bench_util.h"
#include "circuits/circuits.h"
#include "core/desynchronizer.h"
#include "flow/mc.h"
#include "pn/mcr.h"

using namespace desyn;
using bench::time_ms;

namespace {

struct Row {
  std::string name;
  double cold_ms = 0;
  double fast_ms = 0;
  double speedup = 0;
  pn::McrBatchStats stats;
  bool identical = false;  ///< bit-equal ratios vs. the cold solves
};

/// One end-to-end flow::mc_analysis run, with its fill/solve split.
struct AnalysisRow {
  std::string name;
  double fill_ms = 0;
  double solve_ms = 0;
  double ms = 0;
  double ms_per_sample = 0;
  bool identical = false;  ///< report byte-equal to the jobs = 1 run
};

struct ModelRows {
  std::string model;
  uint32_t nodes = 0;
  size_t arcs = 0;
  std::vector<Row> batch;
  std::vector<AnalysisRow> analyses;
};

ModelRows run_model(const std::string& name, const circuits::Circuit& c,
                    size_t samples) {
  const cell::Tech& tech = cell::Tech::generic90();
  const flow::DesyncResult dr = flow::desynchronize(c.netlist, c.clock, tech);
  const flow::Margins margins(1.10);
  flow::McOptions mc;
  mc.samples = samples;
  mc.seed = 3;
  const flow::McDelayRows rows = flow::mc_delay_rows(dr, tech, margins, mc);
  const size_t S = rows.samples;
  const size_t na = rows.flat.from.size();
  const pn::McrBatch batch(rows.flat.view());

  ModelRows out{name, rows.flat.num_nodes, na, {}, {}};
  std::printf("== %s: %u nodes, %zu arcs, %zu samples ==\n\n", name.c_str(),
              out.nodes, na, S);

  // Baseline: one independent cold solve per sample.
  std::vector<pn::CycleRatioResult> cold(S);
  const double cold_ms = time_ms([&] {
    for (size_t s = 0; s < S; ++s) {
      pn::McrArcs row = rows.flat.view();
      row.delay = std::span<const Ps>(rows.rows).subspan(s * na, na);
      cold[s] = pn::max_cycle_ratio(row);
    }
  });

  std::vector<pn::CycleRatioResult> serial;
  for (int jobs : {1, 2, 4}) {
    std::vector<pn::CycleRatioResult> res;
    Row r{cat("batch-j", jobs), cold_ms, 0, 0, {}, false};
    r.fast_ms = time_ms(
        [&] { res = batch.solve_all(rows.rows, S, jobs, &r.stats); });
    r.speedup = cold_ms / r.fast_ms;
    r.identical = res.size() == S;
    for (size_t s = 0; r.identical && s < S; ++s) {
      r.identical = res[s].ratio == cold[s].ratio &&
                    (jobs == 1 || res[s].cycle_arcs == serial[s].cycle_arcs);
    }
    if (jobs == 1) serial = std::move(res);
    out.batch.push_back(r);
  }
  std::printf("  %-10s %10s %10s %9s %9s %9s %10s\n", "case", "cold(ms)",
              "fast(ms)", "speedup", "certified", "repaired", "identical");
  for (const Row& r : out.batch) {
    std::printf("  %-10s %10.3f %10.3f %8.1fx %9zu %9zu %10s\n",
                r.name.c_str(), r.cold_ms, r.fast_ms, r.speedup,
                r.stats.certified, r.stats.repaired,
                r.identical ? "yes" : "NO");
  }

  flow::McReport serial_rep;
  for (int jobs : {1, 2, 4}) {
    mc.jobs = jobs;
    AnalysisRow a{cat("mc_analysis-j", jobs), 0, 0, 0, 0, false};
    a.fill_ms = time_ms(
        [&] { (void)flow::mc_delay_rows(dr, tech, margins, mc); }, 3);
    a.solve_ms =
        time_ms([&] { (void)batch.solve_all(rows.rows, S, jobs); }, 3);
    flow::McReport rep;
    a.ms = time_ms([&] { rep = flow::mc_analysis(dr, tech, margins, mc); }, 3);
    a.ms_per_sample = a.ms / static_cast<double>(rep.samples);
    a.identical =
        jobs == 1 || (rep.periods == serial_rep.periods &&
                      rep.min_slacks == serial_rep.min_slacks &&
                      rep.violation_samples == serial_rep.violation_samples);
    if (jobs == 1) serial_rep = std::move(rep);
    out.analyses.push_back(a);
  }
  std::printf("\n  %-14s %10s %10s %10s %10s %10s\n", "case", "fill(ms)",
              "solve(ms)", "ms", "ms/sample", "identical");
  for (const AnalysisRow& a : out.analyses) {
    std::printf("  %-14s %10.3f %10.3f %10.3f %10.4f %10s\n", a.name.c_str(),
                a.fill_ms, a.solve_ms, a.ms, a.ms_per_sample,
                a.identical ? "yes" : "NO");
  }
  std::printf("\n");
  return out;
}

void write_json(const std::string& path, const std::vector<ModelRows>& models,
                size_t samples) {
  std::vector<std::string> cases;
  for (const ModelRows& m : models) {
    for (const Row& r : m.batch) {
      cases.push_back(bench::fmt(
          "{\"model\": \"%s\", \"nodes\": %u, \"arcs\": %zu, "
          "\"case\": \"%s\", \"cold_ms\": %.3f, \"fast_ms\": %.3f, "
          "\"speedup\": %.2f, \"certified\": %zu, \"repaired\": %zu, "
          "\"identical\": %s}",
          m.model.c_str(), m.nodes, m.arcs, r.name.c_str(), r.cold_ms,
          r.fast_ms, r.speedup, r.stats.certified, r.stats.repaired,
          r.identical ? "true" : "false"));
    }
    for (const AnalysisRow& a : m.analyses) {
      cases.push_back(bench::fmt(
          "{\"model\": \"%s\", \"case\": \"%s\", \"fill_ms\": %.3f, "
          "\"solve_ms\": %.3f, \"ms\": %.3f, \"ms_per_sample\": %.4f, "
          "\"identical\": %s}",
          m.model.c_str(), a.name.c_str(), a.fill_ms, a.solve_ms, a.ms,
          a.ms_per_sample, a.identical ? "true" : "false"));
    }
  }
  bench::write_report(path, "bench_mc", cases,
                      bench::fmt("\"samples\": %zu, \"seed\": 3", samples));
}

}  // namespace

int main(int argc, char** argv) {
  size_t samples = 256;
  std::string json_path;
  double min_speedup = 0;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--samples") {
      samples = static_cast<size_t>(cli::parse_count(
          cli::need_value(argc, argv, i, "--samples"), "--samples value"));
    } else if (a == "--json") {
      json_path = cli::need_value(argc, argv, i, "--json");
    } else if (a == "--min-speedup") {
      min_speedup = cli::parse_nonneg(
          cli::need_value(argc, argv, i, "--min-speedup"),
          "--min-speedup value");
    } else {
      std::fprintf(
          stderr,
          "usage: bench_mc [--samples N] [--json <path>] [--min-speedup X]\n");
      return 2;
    }
  }

  std::printf("== bench_mc: Monte-Carlo period analysis, %zu statistical "
              "samples ==\n\n",
              samples);
  std::vector<ModelRows> models;
  models.push_back(
      run_model("mesh16x16x1", circuits::register_mesh(16, 16, 1), samples));
  models.push_back(run_model(
      "rpipe128x4", circuits::random_pipeline(3, 128, 4), samples));

  if (!json_path.empty()) write_json(json_path, models, samples);
  bool ok = true;
  for (const ModelRows& m : models) {
    for (const Row& r : m.batch) ok = ok && r.identical;
    for (const AnalysisRow& a : m.analyses) ok = ok && a.identical;
  }
  if (!ok) {
    std::fprintf(stderr,
                 "FAIL: batch ratios diverged from cold solves or "
                 "mc_analysis reports differ across job counts\n");
    return 1;
  }
  if (min_speedup > 0 && models[0].batch[0].speedup < min_speedup) {
    std::fprintf(stderr,
                 "FAIL: %s serial batch speedup %.1fx < required %.1fx\n",
                 models[0].model.c_str(), models[0].batch[0].speedup,
                 min_speedup);
    return 1;
  }
  for (const ModelRows& m : models) {
    const Row& r = m.batch[0];
    std::printf("%s: batch %.1fx serial, %.1fx at 2 jobs, %.1fx at 4 jobs "
                "vs cold solves\n",
                m.model.c_str(), r.speedup, m.batch[1].speedup,
                m.batch[2].speedup);
  }
  return 0;
}

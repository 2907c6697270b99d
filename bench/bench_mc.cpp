// bench_mc — the structure-shared batch Howard solver (pn::McrBatch) vs.
// a cold solve per sample, on the mesh16x16x1 timed control model (~256
// control banks, the partition-optimizer scale target).
//
//   bench_mc [--samples N] [--json <path>] [--min-speedup X]
//
// A Monte-Carlo variation sweep solves the same marked graph under N
// sampled delay assignments. The baseline is N independent cold solves
// (McrBatch::solve_one_cold: a flat max_cycle_ratio, full structure build
// + cold Howard per row); the contender builds the structure once and
// warm-starts each sample from its block predecessor. Every batch ratio
// is asserted bit-equal to its cold oracle before any time is reported,
// and the parallel rows are asserted byte-identical to the serial ones.
//
// The mc_analysis rows time the whole Monte-Carlo analysis of the same
// flow end to end — the element draws and delay-matrix fill plus the batch
// solve — in ms per sample at jobs 1, 2 and 4 (mean of 3 calls),
// asserting the reports byte-identical across job counts.
//
// --min-speedup gates the serial (jobs = 1) batch-vs-cold ratio — CI uses
// 8 at 256 samples — so the structure sharing itself is gated, not thread
// scaling (which a loaded single-CPU runner cannot promise). --json writes
// the rows as a machine-readable report (schema desyn-bench-v1).
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "base/cli_args.h"
#include "base/rng.h"
#include "bench_util.h"
#include "circuits/circuits.h"
#include "core/desynchronizer.h"
#include "core/partition.h"
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
  bool identical = false;  ///< bit-equal ratios vs. the cold oracle
};

/// One end-to-end flow::mc_analysis run (fill + solve).
struct AnalysisRow {
  std::string name;
  double ms = 0;
  double ms_per_sample = 0;
  bool identical = false;  ///< report byte-equal to the jobs = 1 run
};

void write_json(const std::string& path, const std::vector<Row>& rows,
                const std::vector<AnalysisRow>& analyses, size_t samples,
                size_t nodes, size_t arcs) {
  std::vector<std::string> cases;
  for (const Row& r : rows) {
    cases.push_back(bench::fmt(
        "{\"case\": \"%s\", \"cold_ms\": %.3f, \"fast_ms\": %.3f, "
        "\"speedup\": %.2f, \"identical\": %s}",
        r.name.c_str(), r.cold_ms, r.fast_ms, r.speedup,
        r.identical ? "true" : "false"));
  }
  for (const AnalysisRow& r : analyses) {
    cases.push_back(bench::fmt(
        "{\"case\": \"%s\", \"ms\": %.3f, \"ms_per_sample\": %.4f, "
        "\"identical\": %s}",
        r.name.c_str(), r.ms, r.ms_per_sample,
        r.identical ? "true" : "false"));
  }
  bench::write_report(
      path, "bench_mc", cases,
      bench::fmt("\"samples\": %zu, \"nodes\": %zu, \"arcs\": %zu", samples,
                 nodes, arcs));
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

  const cell::Tech& tech = cell::Tech::generic90();
  circuits::Circuit c = circuits::register_mesh(16, 16, 1);
  flow::DesyncResult dr = flow::desynchronize(c.netlist, c.clock, tech);
  pn::McrFlat flat = pn::flatten(flow::timed_control_model(dr, tech));
  const size_t na = flat.from.size();

  // The sampled delay matrix: every arc of every sample gets an independent
  // +/-10% factor from a counter-based draw, mimicking the variation
  // model's per-element sampling (the solver cost is identical).
  std::vector<Ps> delays(samples * na);
  for (size_t s = 0; s < samples; ++s) {
    for (size_t j = 0; j < na; ++j) {
      double f = 0.9 + 0.2 * rng_unit(42, j, s);
      delays[s * na + j] =
          static_cast<Ps>(std::llround(static_cast<double>(flat.delay[j]) * f));
    }
  }

  std::printf("== bench_mc: batched Howard on %s (%u nodes, %zu arcs, "
              "%zu samples) ==\n\n",
              c.netlist.name().c_str(), flat.num_nodes, na, samples);

  pn::McrBatch batch(flat.view());

  // Baseline: one independent cold solve per sample.
  std::vector<pn::CycleRatioResult> cold(samples);
  double cold_ms = time_ms([&] {
    for (size_t s = 0; s < samples; ++s) {
      cold[s] = batch.solve_one_cold(
          std::span<const Ps>(delays).subspan(s * na, na));
    }
  });

  std::vector<Row> rows;
  std::vector<pn::CycleRatioResult> serial;
  for (int jobs : {1, 2, 4}) {
    std::vector<pn::CycleRatioResult> res;
    double ms =
        time_ms([&] { res = batch.solve_all(delays, samples, jobs); });
    bool identical = res.size() == samples;
    for (size_t s = 0; identical && s < samples; ++s) {
      identical = res[s].ratio == cold[s].ratio &&
                  (jobs == 1 || res[s].cycle_arcs == serial[s].cycle_arcs);
    }
    if (jobs == 1) serial = std::move(res);
    rows.push_back({cat("batch-j", jobs), cold_ms, ms, cold_ms / ms,
                    identical});
  }

  std::printf("  %-10s %10s %10s %9s %10s\n", "case", "cold(ms)", "fast(ms)",
              "speedup", "identical");
  bool ok = true;
  for (const Row& r : rows) {
    std::printf("  %-10s %10.3f %10.3f %8.1fx %10s\n", r.name.c_str(),
                r.cold_ms, r.fast_ms, r.speedup, r.identical ? "yes" : "NO");
    ok = ok && r.identical;
  }

  // End to end: the variation model's draws, the delay-matrix fill and the
  // batch solve of flow::mc_analysis on the same flow.
  std::vector<AnalysisRow> analyses;
  flow::McReport serial_rep;
  for (int jobs : {1, 2, 4}) {
    flow::McOptions mc;
    mc.samples = samples;
    mc.jobs = jobs;
    flow::McReport rep;
    const double ms = time_ms(
        [&] { rep = flow::mc_analysis(dr, tech, flow::Margins(), mc); }, 3);
    const bool identical =
        jobs == 1 || (rep.periods == serial_rep.periods &&
                      rep.min_slacks == serial_rep.min_slacks &&
                      rep.violation_samples == serial_rep.violation_samples);
    analyses.push_back({cat("mc_analysis-j", jobs), ms,
                        ms / static_cast<double>(rep.samples), identical});
    if (jobs == 1) serial_rep = std::move(rep);
  }
  std::printf("\n  %-14s %10s %14s %10s\n", "case", "ms", "ms/sample",
              "identical");
  for (const AnalysisRow& r : analyses) {
    std::printf("  %-14s %10.3f %14.4f %10s\n", r.name.c_str(), r.ms,
                r.ms_per_sample, r.identical ? "yes" : "NO");
    ok = ok && r.identical;
  }

  if (!json_path.empty()) {
    write_json(json_path, rows, analyses, samples, flat.num_nodes, na);
  }
  if (!ok) {
    std::fprintf(stderr,
                 "FAIL: batch ratios diverged from cold solves or "
                 "mc_analysis reports differ across job counts\n");
    return 1;
  }
  if (min_speedup > 0 && rows[0].speedup < min_speedup) {
    std::fprintf(stderr, "FAIL: serial batch speedup %.1fx < required %.1fx\n",
                 rows[0].speedup, min_speedup);
    return 1;
  }
  std::printf("\nbatch %.1fx serial, %.1fx at 2 jobs, %.1fx at 4 jobs vs "
              "%zu cold solves\n",
              rows[0].speedup, rows[1].speedup, rows[2].speedup, samples);
  return 0;
}

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

void write_json(const std::string& path, const std::vector<Row>& rows,
                size_t samples, size_t nodes, size_t arcs) {
  std::vector<std::string> cases;
  for (const Row& r : rows) {
    cases.push_back(bench::fmt(
        "{\"case\": \"%s\", \"cold_ms\": %.3f, \"fast_ms\": %.3f, "
        "\"speedup\": %.2f, \"identical\": %s}",
        r.name.c_str(), r.cold_ms, r.fast_ms, r.speedup,
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
  if (!json_path.empty()) {
    write_json(json_path, rows, samples, flat.num_nodes, na);
  }
  if (!ok) {
    std::fprintf(stderr, "FAIL: batch ratios diverged from cold solves\n");
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

// desyn_cli — the flow as a command-line tool.
//
// Single-design mode:
//
//   desyn_cli <input.v> <clock-net> <output.v> [margin] [strategy]
//             [--protocol lockstep|semi|fully|pulse] [--cache-dir <dir>]
//
// Reads a structural-Verilog FF netlist (the subset write_verilog emits),
// desynchronizes it under the chosen handshake protocol, writes the
// self-timed netlist, and prints the bank/edge report plus the analytic
// cycle-time prediction. `strategy` is one of prefix[:N]|perff|single|
// auto[:B] (default prefix): prefix:N strips N trailing name segments,
// auto:B runs the MCR-guided partition optimizer with period budget B.
// --cache-dir keeps the staged flow engine's artifacts on disk, so an
// unchanged re-run is a pure cache hit and an edited design re-runs only
// the stages whose inputs changed (see docs/ARCHITECTURE.md).
//
// Sweep mode — the circuit x strategy x protocol x margin study over the
// built-in circuit suite:
//
//   desyn_cli sweep [--margins 1.0,1.1,1.3] [--protocol <p>|all]
//                   [--strategies prefix,perff,single,auto:1.05]
//                   [--rounds N] [--full-suite] [--jobs N]
//                   [--json <path>] [--stable]
//
// For every combination the tool desynchronizes the circuit, predicts the
// cycle time analytically (max cycle ratio of the timed control model) and
// measures it by gate-level simulation inside the flow-equivalence
// checker, which simultaneously proves the transformation correct. Exits
// nonzero if any combination fails flow equivalence.
//
// Each circuit x strategy x protocol x margin cell is an independent task;
// --jobs N runs them on N worker threads and is the sweep's one thread
// budget (base/parallel.h). Results are reported in the same deterministic
// order regardless of job count, so `--jobs 4` output is byte-identical to
// a serial run. --json writes a structured report
// (schema desyn-sweep-v2, documented in docs/PERF.md, with per-cell
// partition stats: bank count, controller cells, matched-delay cells);
// --stable omits the wall-clock fields from it so two runs of the same
// sweep diff cleanly.
//
// Monte-Carlo sweep mode — pass --mc-samples to switch the sweep from
// simulation to the analytic variation model (flow/mc.h): every cell is
// desynchronized and its hardware timed model is swept over N statistical
// samples by one batched max-cycle-ratio solve, reporting the period
// distribution (p50/p95/max), the worst setup-slack distribution and the
// zero-violation yield. No gate-level simulation runs, so the MC sweep
// covers the same matrix orders of magnitude faster:
//
//   desyn_cli sweep --mc-samples 256 [--mc-seed S] [--mc-sigma 0.05]
//                   [--jobs N] [other sweep options]
//
// Each cell's sample batch solves on its worker's share of the --jobs
// budget; reports are byte-identical at any job count (every draw is a
// pure function of its (seed, stream, sample) coordinates and the batch
// solver's blocks warm-start from cold anchors). --json writes schema desyn-mc-v1 instead of the sweep schema.
//
// Margin-optimizer mode — replace the uniform matched-delay margin with a
// per-destination-bank vector sized by the same Monte-Carlo model
// (flow::optimize_margins): shave every delay line to the minimum length
// with zero setup violations across all samples, re-run the flow at the
// back-mapped margins and report both analyses:
//
//   desyn_cli optimize-margins <input.v> <clock-net> [margin] [strategy]
//                              [--protocol <p>] [--mc-samples N]
//                              [--mc-seed S] [--mc-sigma X] [--jobs N]
//                              [--json <path>] [--out <optimized.v>]
//   desyn_cli optimize-margins --circuit <suite-name> [margin] [strategy] ...
//
// Exits nonzero when the optimized design has more violation samples than
// the baseline (the optimizer's equal-yield contract).
//
// Server mode — the flow as a persistent service (protocol desyn-svc-v1,
// see src/svc/server.h):
//
//   desyn_cli serve --socket <path> [--threads N] [--capacity N]
//                   [--cache-dir <dir>] [--max-inflight N]
//                   [--io-timeout-ms N] [--max-request-bytes N]
//                   [--fault-spec <spec>]
//   desyn_cli submit <input.v> <clock-net> --socket <path> [margin]
//                    [strategy] [--protocol <p>] [--save <result.json>]
//                    [--retries N] [--timeout-ms N]
//
// `serve` runs until SIGINT/SIGTERM, sharing one flow engine across all
// clients: a re-submitted design is answered from the result cache
// byte-identically. The first signal drains gracefully (in-flight
// requests finish); a second signal cancels them (typed `cancelled`
// responses). --max-inflight bounds admitted-but-unserved connections
// (the excess get a typed `busy` response), --io-timeout-ms/
// --max-request-bytes bound what any one peer can pin, and --fault-spec
// arms a deterministic fault site (base/fault.h, docs/ROBUSTNESS.md) for
// robustness smoke tests. `submit` sends one design and prints the
// summary; --save writes the response's raw "result" object, which is
// byte-identical across cached and cold submissions (the CI smoke job
// cmp's two of them). --timeout-ms arms a per-request server deadline;
// --retries N re-submits on transient failures (connection loss, `busy`,
// `internal`) with exponential backoff + jitter — always safe, because
// submissions are content-addressed.
//
// Cache mode — offline inspection of a flow engine's disk tier:
//
//   desyn_cli cache stats|verify|scrub <dir>
//
// `stats` inventories the directory, `verify` additionally checks every
// entry's integrity digest (exit 1 when any is corrupt), `scrub` removes
// corrupt entries and orphan tmp files from dead writers.
//
// Lint mode — the static verifier (src/check, docs/LINT.md) over the
// desynchronized result: structural netlist checks, marked-graph
// re-extraction from the synthesized controllers, matched-delay coverage,
// handshake completeness. No simulation runs; exits 1 when any run has
// error-severity diagnostics:
//
//   desyn_cli lint <input.v> <clock-net> [margin] [strategy]
//                  [--protocol <p>|all] [--json <path>]
//   desyn_cli lint --suite [--full-suite] [margin] [strategy]
//                  [--protocol <p>|all] [--json <path>]
#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "base/cli_args.h"
#include "base/fault.h"
#include "base/json.h"
#include "base/parallel.h"
#include "check/check.h"
#include "circuits/circuits.h"
#include "core/desynchronizer.h"
#include "core/report.h"
#include "flow/engine.h"
#include "flow/mc.h"
#include "netlist/query.h"
#include "netlist/reader.h"
#include "netlist/writer.h"
#include "pn/mcr.h"
#include "sta/sta.h"
#include "svc/client.h"
#include "svc/server.h"
#include "verif/flow_equivalence.h"

#include <algorithm>
#include <atomic>
#include <chrono>

using namespace desyn;

namespace {

/// The coordinates of one circuit x strategy x protocol x margin sweep
/// cell, and its wall time.
struct CellKey {
  size_t suite_idx = 0;
  size_t strategy_idx = 0;
  ctl::Protocol protocol = ctl::Protocol::Pulse;
  double margin = 1.0;
  double wall_ms = 0;
};

/// One cell of the flow-equivalence sweep.
struct SweepCell : CellKey {
  Ps sync_period = 0;
  verif::FlowEqResult res;
  bool ok = false;
};

/// One cell of the Monte-Carlo sweep (--mc-samples): the analytic variation
/// report instead of a simulated flow-equivalence run.
struct McSweepCell : CellKey {
  flow::McReport rep;
  std::string error;  ///< nonempty when the flow threw; cell failed
};

/// One flow-equivalence cell's fields of the desyn-sweep-v2 report.
void cell_json(std::ostream& out, const SweepCell& c) {
  const verif::FlowEqResult& r = c.res;
  char buf[256];
  out << "\"banks\": " << r.banks
      << ", \"controller_cells\": " << r.controller_cells
      << ", \"delay_cells\": " << r.delay_cells << ",\n";
  out << "     \"sync_cells\": " << r.sync_cells
      << ", \"desync_cells\": " << r.desync_cells
      << ", \"registers\": " << r.registers_compared
      << ", \"captures\": " << r.captures_compared << ",\n";
  std::snprintf(buf, sizeof buf,
                "     \"sync_period_ps\": %lld, \"predicted_period_ps\": "
                "%.6f, \"measured_period_ps\": %.6f,\n",
                static_cast<long long>(c.sync_period), r.predicted_period,
                r.desync_period);
  out << buf;
  out << "     \"sync_setup_violations\": " << r.sync_setup_violations
      << ", \"desync_setup_violations\": " << r.desync_setup_violations
      << ", \"equivalent\": " << (r.equivalent ? "true" : "false")
      << ", \"ok\": " << (c.ok ? "true" : "false");
  if (!r.mismatch.empty()) {
    out << ",\n     \"mismatch\": \"" << json::escape(r.mismatch) << "\"";
  }
}

/// One McReport as a JSON object body (shared by the desyn-mc-v1 sweep
/// report and the optimize-margins report).
std::string mc_report_json(const flow::McReport& r) {
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "\"samples\": %zu, \"mcr_arcs\": %zu, \"nominal_period_ps\": %.6f,\n"
      "     \"period_ps\": {\"p50\": %.6f, \"p95\": %.6f, \"min\": %.6f, "
      "\"max\": %.6f},\n"
      "     \"min_slack_ps\": {\"p50\": %.6f, \"p95\": %.6f, \"min\": %.6f, "
      "\"max\": %.6f},\n"
      "     \"violation_samples\": %zu, \"yield\": %.6f",
      r.samples, r.mcr_arcs, r.nominal_period, r.period.p50, r.period.p95,
      r.period.min, r.period.max, r.min_slack.p50, r.min_slack.p95,
      r.min_slack.min, r.min_slack.max, r.violation_samples, r.yield);
  return buf;
}

/// One Monte-Carlo cell's fields of the desyn-mc-v1 report.
void cell_json(std::ostream& out, const McSweepCell& c) {
  if (c.error.empty()) {
    out << mc_report_json(c.rep) << ", \"ok\": true";
  } else {
    out << "\"ok\": false, \"error\": \"" << json::escape(c.error) << "\"";
  }
}

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// The circuit x strategy x protocol x margin matrix of `desyn_cli sweep`
/// and its settings. Cells are independent tasks on one --jobs budget; the
/// cell order is the deterministic report order.
struct Sweep {
  std::vector<circuits::Suite> suite;
  std::vector<flow::PartitionSpec> strategies = {flow::PartitionSpec{}};
  std::vector<ctl::Protocol> protocols = std::vector<ctl::Protocol>(
      std::begin(ctl::kAllProtocols), std::end(ctl::kAllProtocols));
  std::vector<double> margins = {1.0, 1.1, 1.3};
  int jobs = 1;
  bool stable = false;
  std::string json_path;
  double total_ms = 0;  ///< wall time of the last run()

  /// Every cell in report order, each filled by fill(cell) and timed.
  template <class Cell, class Fill>
  std::vector<Cell> run(const Fill& fill) {
    std::vector<Cell> cells;
    for (size_t si = 0; si < suite.size(); ++si) {
      for (size_t st = 0; st < strategies.size(); ++st) {
        for (ctl::Protocol p : protocols) {
          for (double m : margins) {
            static_cast<CellKey&>(cells.emplace_back()) = {si, st, p, m, 0.0};
          }
        }
      }
    }
    const auto t0 = std::chrono::steady_clock::now();
    parallel_for(cells.size(), jobs, [&](size_t i) {
      const auto start = std::chrono::steady_clock::now();
      fill(cells[i]);
      cells[i].wall_ms = ms_since(start);
    });
    total_ms = ms_since(t0);
    return cells;
  }

  /// The circuit, strategy, protocol and margin columns of a table row.
  void print_key(const CellKey& c) const {
    printf("%-12s %-10s %-15s %-7.2f ", suite[c.suite_idx].name.c_str(),
           strategies[c.strategy_idx].label().c_str(),
           ctl::protocol_name(c.protocol), c.margin);
  }

  /// Structured report (schemas desyn-sweep-v2 and desyn-mc-v1, see
  /// docs/PERF.md): `head` (schema and run-wide fields), one object per
  /// cell holding its coordinates and cell_json(), then the failure count.
  /// With `stable` the wall-clock fields are omitted so two runs of the
  /// same sweep — any job count — are byte-identical.
  template <class Cell>
  void write_json(const std::string& head, const std::vector<Cell>& cells,
                  int failures) const {
    std::ofstream out(json_path);
    if (!out) fail("cannot write ", json_path);
    char buf[64];
    out << "{\n" << head << "  \"cells\": [\n";
    for (size_t i = 0; i < cells.size(); ++i) {
      const Cell& c = cells[i];
      out << "    {\"circuit\": \"" << json::escape(suite[c.suite_idx].name)
          << "\", \"strategy\": \""
          << json::escape(strategies[c.strategy_idx].label())
          << "\", \"protocol\": \"" << ctl::protocol_name(c.protocol) << "\",";
      std::snprintf(buf, sizeof buf, " \"margin\": %.4f,\n     ", c.margin);
      out << buf;
      cell_json(out, c);
      if (!stable) {
        std::snprintf(buf, sizeof buf, ",\n     \"wall_ms\": %.3f", c.wall_ms);
        out << buf;
      }
      out << "}" << (i + 1 < cells.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"failures\": " << failures;
    if (!stable) {
      std::snprintf(buf, sizeof buf, ",\n  \"total_wall_ms\": %.3f", total_ms);
      out << buf;
    }
    out << "\n}\n";
  }
};

/// The --mc-samples branch of `sweep`: every cell runs through the flow
/// engine's cached MC stage instead of the flow-equivalence checker.
int run_mc_sweep(Sweep& sweep, const flow::McOptions& mc) {
  flow::Engine& engine = flow::Engine::process(cell::Tech::generic90());
  const std::vector<McSweepCell> cells =
      sweep.run<McSweepCell>([&](McSweepCell& c) {
        const circuits::Suite& s = sweep.suite[c.suite_idx];
        flow::DesyncOptions opt;
        opt.strategy = sweep.strategies[c.strategy_idx];
        opt.margin = c.margin;
        opt.protocol = c.protocol;
        try {
          c.rep = *engine.mc(s.circuit.netlist, s.circuit.clock, opt, mc);
        } catch (const std::exception& e) {
          c.error = e.what();  // recorded per cell, sweep continues
        }
      });

  printf("%-12s %-10s %-15s %-7s %10s %10s %10s %10s %10s %6s\n", "circuit",
         "strategy", "protocol", "margin", "nom(ps)", "p50(ps)", "p95(ps)",
         "max(ps)", "slackmin", "yield");
  int failures = 0;
  for (const McSweepCell& c : cells) {
    sweep.print_key(c);
    if (!c.error.empty()) {
      ++failures;
      printf("FAILED: %s\n", c.error.c_str());
      continue;
    }
    printf("%10.0f %10.0f %10.0f %10.0f %10.0f %6.3f\n", c.rep.nominal_period,
           c.rep.period.p50, c.rep.period.p95, c.rep.period.max,
           c.rep.min_slack.min, c.rep.yield);
  }
  printf("\n%d combination(s) failed (%zu samples each)\n", failures,
         mc.samples + 1);
  if (!sweep.json_path.empty()) {
    char head[256];
    std::snprintf(head, sizeof head,
                  "  \"schema\": \"desyn-mc-v1\",\n"
                  "  \"samples\": %zu, \"seed\": %llu, \"sigma\": %.6f,\n",
                  mc.samples, static_cast<unsigned long long>(mc.seed),
                  mc.sigma);
    sweep.write_json(head, cells, failures);
  }
  return failures == 0 ? 0 : 1;
}

int run_sweep(int argc, char** argv) {
  Sweep sweep;
  int rounds = 25;
  bool full_suite = false;
  bool mc_mode = false;
  flow::McOptions mc;
  for (int i = 2; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--margins") {
      sweep.margins =
          cli::parse_margins(cli::need_value(argc, argv, i, "--margins"));
    } else if (a == "--strategies") {
      sweep.strategies =
          cli::parse_strategies(cli::need_value(argc, argv, i, "--strategies"));
    } else if (a == "--protocol") {
      std::string v = cli::need_value(argc, argv, i, "--protocol");
      if (v != "all") sweep.protocols = {ctl::parse_protocol(v)};
    } else if (a == "--rounds") {
      rounds = cli::parse_count(cli::need_value(argc, argv, i, "--rounds"),
                                "--rounds value");
    } else if (a == "--jobs") {
      sweep.jobs = cli::parse_count(cli::need_value(argc, argv, i, "--jobs"),
                                    "--jobs value");
    } else if (a == "--json") {
      sweep.json_path = cli::need_value(argc, argv, i, "--json");
    } else if (a == "--stable") {
      sweep.stable = true;
    } else if (a == "--full-suite") {
      full_suite = true;
    } else if (a == "--mc-samples") {
      mc.samples = static_cast<size_t>(
          cli::parse_count(cli::need_value(argc, argv, i, "--mc-samples"),
                           "--mc-samples value"));
      mc_mode = true;
    } else if (a == "--mc-seed") {
      mc.seed = static_cast<uint64_t>(cli::parse_nonneg(
          cli::need_value(argc, argv, i, "--mc-seed"), "--mc-seed value"));
    } else if (a == "--mc-sigma") {
      mc.sigma = cli::parse_nonneg(
          cli::need_value(argc, argv, i, "--mc-sigma"), "--mc-sigma value");
    } else {
      fail("unknown sweep option '", a, "'");
    }
  }

  // The compact mix keeps the sweep CI-friendly; --full-suite runs all of
  // circuits::scaling_suite() (the largest entries dominate the runtime).
  for (circuits::Suite& s : circuits::scaling_suite()) {
    if (full_suite || s.name == "pipe4x8" || s.name == "lfsr16" ||
        s.name == "counters4x8" || s.name == "crc32" || s.name == "fir8x12" ||
        s.name == "mesh6x6x2") {
      sweep.suite.push_back(std::move(s));
    }
  }

  if (mc_mode) {
    mc.jobs = sweep.jobs;  // each cell's batch: its worker's share of it
    return run_mc_sweep(sweep, mc);
  }

  const cell::Tech& tech = cell::Tech::generic90();

  // The STA minimum period per circuit is shared by all of its cells, so
  // compute it up front.
  std::vector<Ps> sync_periods;
  for (const circuits::Suite& s : sweep.suite) {
    sta::Sta sta(s.circuit.netlist, tech);
    sync_periods.push_back(sta.min_clock_period().min_period);
  }
  const std::vector<SweepCell> cells = sweep.run<SweepCell>([&](SweepCell& c) {
    const circuits::Suite& s = sweep.suite[c.suite_idx];
    c.sync_period = sync_periods[c.suite_idx];
    verif::FlowEqOptions opt;
    opt.rounds = rounds;
    opt.desync.strategy = sweep.strategies[c.strategy_idx];
    opt.desync.margin = c.margin;
    opt.desync.protocol = c.protocol;
    try {
      c.res = verif::check_flow_equivalence(s.circuit.netlist, s.circuit.clock,
                                            verif::random_stimulus(17), tech,
                                            opt);
    } catch (const std::exception& e) {
      c.res.mismatch = e.what();  // recorded per cell, sweep continues
    }
    c.ok = c.res.equivalent && c.res.desync_setup_violations == 0;
  });

  printf("%-12s %-10s %-15s %-7s %6s %9s %10s %10s %8s %5s\n", "circuit",
         "strategy", "protocol", "margin", "banks", "sync(ps)", "pred(ps)",
         "meas(ps)", "meas/pred", "eq");
  int failures = 0;
  for (const SweepCell& c : cells) {
    if (!c.ok) ++failures;
    sweep.print_key(c);
    printf("%6zu %9lld %10.0f %10.0f %8.2f %5s\n", c.res.banks,
           static_cast<long long>(c.sync_period), c.res.predicted_period,
           c.res.desync_period,
           c.res.predicted_period > 0
               ? c.res.desync_period / c.res.predicted_period
               : 0.0,
           c.ok ? "yes" : "NO");
    if (!c.ok && !c.res.mismatch.empty()) {
      printf("    ^ %s\n", c.res.mismatch.c_str());
    }
  }
  printf("\n%d combination(s) failed\n", failures);
  if (!sweep.json_path.empty()) {
    sweep.write_json(cat("  \"schema\": \"desyn-sweep-v2\",\n  \"rounds\": ",
                         rounds, ",\n"),
                     cells, failures);
  }
  return failures == 0 ? 0 : 1;
}

volatile std::sig_atomic_t g_stop = 0;
void stop_handler(int) { g_stop = g_stop < 2 ? g_stop + 1 : 2; }

int run_serve(int argc, char** argv) {
  svc::ServerOptions opt;
  std::string fault_spec;
  for (int i = 2; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--socket") {
      opt.socket_path = cli::need_value(argc, argv, i, "--socket");
    } else if (a == "--threads") {
      opt.threads = cli::parse_count(
          cli::need_value(argc, argv, i, "--threads"), "--threads value");
    } else if (a == "--capacity") {
      opt.capacity = static_cast<size_t>(cli::parse_count(
          cli::need_value(argc, argv, i, "--capacity"), "--capacity value"));
    } else if (a == "--cache-dir") {
      opt.cache_dir = cli::need_value(argc, argv, i, "--cache-dir");
    } else if (a == "--max-inflight") {
      opt.max_pending =
          cli::parse_count(cli::need_value(argc, argv, i, "--max-inflight"),
                           "--max-inflight value");
    } else if (a == "--io-timeout-ms") {
      opt.io_timeout_ms = cli::parse_nonneg(
          cli::need_value(argc, argv, i, "--io-timeout-ms"),
          "--io-timeout-ms value");
    } else if (a == "--max-request-bytes") {
      opt.max_request_bytes = static_cast<size_t>(cli::parse_count(
          cli::need_value(argc, argv, i, "--max-request-bytes"),
          "--max-request-bytes value"));
    } else if (a == "--fault-spec") {
      fault_spec = cli::need_value(argc, argv, i, "--fault-spec");
    } else {
      fail("unknown serve option '", a, "'");
    }
  }
  if (opt.socket_path.empty()) fail("serve needs --socket <path>");
  if (!fault_spec.empty()) {
    fault::arm(fault::Spec::parse(fault_spec));
    std::printf("fault spec armed: %s\n",
                fault::Spec::parse(fault_spec).to_string().c_str());
  }

  svc::Server server(cell::Tech::generic90(), opt);
  server.start();
  std::printf("desyn server listening on %s (%d threads%s%s)\n",
              opt.socket_path.c_str(), opt.threads,
              opt.cache_dir.empty() ? "" : ", cache ",
              opt.cache_dir.c_str());
  std::fflush(stdout);  // backgrounded CI jobs grep for the ready line

  std::signal(SIGINT, stop_handler);
  std::signal(SIGTERM, stop_handler);
  while (!g_stop) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  // Graceful drain: stop() lets in-flight requests answer. A second
  // signal during the drain escalates — cancel the in-flight requests so
  // they answer `cancelled` now and the drain stays bounded.
  std::printf("draining (signal again to cancel in-flight requests)\n");
  std::fflush(stdout);
  std::atomic<bool> drained{false};
  std::thread escalator([&server, &drained] {
    while (!drained.load(std::memory_order_acquire)) {
      if (g_stop >= 2) {
        server.cancel_inflight();
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });
  server.stop();
  drained.store(true, std::memory_order_release);
  escalator.join();

  flow::StageCounters c = server.engine().counters();
  std::printf("served %zu submissions (%zu from the result cache)\n", c.runs,
              c.result_hits);
  return 0;
}

int run_submit(int argc, char** argv) {
  std::vector<std::string> pos;
  std::string socket_path, save_path, protocol = "pulse";
  int retries = 0, timeout_ms = 0;
  for (int i = 2; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--socket") {
      socket_path = cli::need_value(argc, argv, i, "--socket");
    } else if (a == "--save") {
      save_path = cli::need_value(argc, argv, i, "--save");
    } else if (a == "--protocol") {
      protocol = cli::need_value(argc, argv, i, "--protocol");
    } else if (a == "--retries") {
      retries = cli::parse_nonneg(
          cli::need_value(argc, argv, i, "--retries"), "--retries value");
    } else if (a == "--timeout-ms") {
      timeout_ms = cli::parse_nonneg(
          cli::need_value(argc, argv, i, "--timeout-ms"),
          "--timeout-ms value");
    } else {
      pos.push_back(a);
    }
  }
  if (pos.size() < 2 || socket_path.empty()) {
    fail("submit needs <input.v> <clock-net> --socket <path>");
  }
  double margin = pos.size() > 2 ? cli::parse_margin(pos[2]) : 1.1;
  std::string strategy = pos.size() > 3 ? pos[3] : "prefix";

  std::ifstream in(pos[0]);
  if (!in) fail("cannot open ", pos[0]);
  std::stringstream ss;
  ss << in.rdbuf();

  svc::RetryOptions retry;
  retry.retries = retries;
  // The socket deadline covers the server-side budget plus slack for the
  // round trip; no request deadline means no client-side one either.
  retry.io_timeout_ms = timeout_ms > 0 ? timeout_ms + 10000 : 0;
  std::string response = svc::submit_with_retry(
      socket_path,
      svc::make_request(ss.str(), pos[1], strategy, margin, protocol,
                        timeout_ms),
      retry);
  std::string result = svc::extract_result(response);  // throws on error

  json::Value v = json::parse(response);
  const json::Value* r = v.get("result");
  std::printf("circuit : %s (%s, %s, margin %.2f)\n",
              r->get_string("circuit", "?").c_str(),
              r->get_string("strategy", "?").c_str(),
              r->get_string("protocol", "?").c_str(),
              r->get_number("margin", 0));
  std::printf("cached  : %s\n", v.get_bool("cached", false) ? "yes" : "no");
  std::printf("banks   : %.0f (%.0f controller cells, %.0f delay cells)\n",
              r->get_number("banks", 0), r->get_number("controller_cells", 0),
              r->get_number("delay_cells", 0));
  std::printf("cells   : %.0f -> %.0f\n", r->get_number("sync_cells", 0),
              r->get_number("desync_cells", 0));
  std::printf("predicted period: %.0fps\n",
              r->get_number("predicted_period_ps", 0));
  if (!save_path.empty()) {
    std::ofstream out(save_path);
    if (!out) fail("cannot write ", save_path);
    out << result << "\n";
    std::printf("saved result to %s\n", save_path.c_str());
  }
  return 0;
}

/// `desyn_cli lint` — run the static verifier (src/check) on the
/// desynchronized result instead of writing it out. One line per clean
/// run, full diagnostics otherwise; --json writes the desyn-lint-v1
/// report; exit 1 when any run has errors.
int run_lint(int argc, char** argv) {
  std::vector<std::string> pos;
  std::vector<ctl::Protocol> protocols = {ctl::Protocol::Pulse};
  bool suite = false, full_suite = false;
  double margin = 1.1;
  flow::PartitionSpec strategy;
  std::string json_path;
  for (int i = 2; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--protocol") {
      std::string v = cli::need_value(argc, argv, i, "--protocol");
      if (v == "all") {
        protocols.assign(std::begin(ctl::kAllProtocols),
                         std::end(ctl::kAllProtocols));
      } else {
        protocols = {ctl::parse_protocol(v)};
      }
    } else if (a == "--suite") {
      suite = true;
    } else if (a == "--full-suite") {
      suite = true;
      full_suite = true;
    } else if (a == "--json") {
      json_path = cli::need_value(argc, argv, i, "--json");
    } else {
      pos.push_back(a);
    }
  }

  // The work list: (name, netlist, clock) triples from the suite or the
  // single input file.
  std::vector<circuits::Suite> owned;
  std::vector<std::pair<std::string, circuits::Circuit*>> designs;
  if (suite) {
    for (circuits::Suite& s : circuits::scaling_suite()) {
      if (full_suite || s.name == "pipe4x8" || s.name == "lfsr16" ||
          s.name == "counters4x8" || s.name == "crc32" ||
          s.name == "fir8x12" || s.name == "mesh6x6x2") {
        owned.push_back(std::move(s));
      }
    }
    if (pos.size() > 0) margin = cli::parse_margin(pos[0]);
    if (pos.size() > 1) strategy = flow::PartitionSpec::parse(pos[1]);
    for (circuits::Suite& s : owned) designs.push_back({s.name, &s.circuit});
  } else {
    if (pos.size() < 2) {
      fail("lint needs <input.v> <clock-net> (or --suite); see usage");
    }
    std::ifstream in(pos[0]);
    if (!in) fail("cannot open ", pos[0]);
    std::stringstream ss;
    ss << in.rdbuf();
    owned.push_back({pos[0], {nl::read_verilog(ss.str(), pos[0]), {}}});
    owned.back().circuit.clock = owned.back().circuit.netlist.find_net(pos[1]);
    if (!owned.back().circuit.clock.valid()) {
      fail("no net named '", pos[1], "' in ", pos[0]);
    }
    if (pos.size() > 2) margin = cli::parse_margin(pos[2]);
    if (pos.size() > 3) strategy = flow::PartitionSpec::parse(pos[3]);
    designs.push_back({owned.back().circuit.netlist.name(),
                       &owned.back().circuit});
  }

  const cell::Tech& tech = cell::Tech::generic90();
  flow::Engine& engine = flow::Engine::process(tech);
  size_t runs = 0, error_runs = 0;
  std::string json = "{\"schema\": \"desyn-lint-v1\", \"runs\": [";
  for (auto& [name, c] : designs) {
    for (ctl::Protocol p : protocols) {
      flow::DesyncOptions opt;
      opt.margin = margin;
      opt.strategy = strategy;
      opt.protocol = p;
      std::shared_ptr<const check::LintReport> rep =
          engine.lint(c->netlist, c->clock, opt);
      std::string label = cat(name, "/", ctl::protocol_name(p));
      std::fputs(check::render_text(*rep, label).c_str(), stdout);
      if (runs) json += ", ";
      json += check::render_json(*rep, name, p, margin);
      ++runs;
      if (rep->errors() > 0) ++error_runs;
    }
  }
  json += "]}";
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) fail("cannot write ", json_path);
    out << json << "\n";
  }
  std::printf("lint: %zu run(s), %zu with errors\n", runs, error_runs);
  return error_runs ? 1 : 0;
}

/// `desyn_cli optimize-margins` — run flow::optimize_margins on one design
/// (an input file or a named suite circuit) and report the per-bank margin
/// vector, the delay-line area recovered and both Monte-Carlo analyses.
/// Exits 1 when the optimized design violates in more samples than the
/// baseline (the optimizer's equal-yield contract).
int run_optimize_margins(int argc, char** argv) {
  std::vector<std::string> pos;
  std::string circuit_name, json_path, out_path;
  ctl::Protocol protocol = ctl::Protocol::Pulse;
  flow::McOptions mc;
  for (int i = 2; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--protocol") {
      protocol =
          ctl::parse_protocol(cli::need_value(argc, argv, i, "--protocol"));
    } else if (a == "--circuit") {
      circuit_name = cli::need_value(argc, argv, i, "--circuit");
    } else if (a == "--json") {
      json_path = cli::need_value(argc, argv, i, "--json");
    } else if (a == "--out") {
      out_path = cli::need_value(argc, argv, i, "--out");
    } else if (a == "--mc-samples") {
      mc.samples = static_cast<size_t>(
          cli::parse_count(cli::need_value(argc, argv, i, "--mc-samples"),
                           "--mc-samples value"));
    } else if (a == "--mc-seed") {
      mc.seed = static_cast<uint64_t>(cli::parse_nonneg(
          cli::need_value(argc, argv, i, "--mc-seed"), "--mc-seed value"));
    } else if (a == "--mc-sigma") {
      mc.sigma = cli::parse_nonneg(
          cli::need_value(argc, argv, i, "--mc-sigma"), "--mc-sigma value");
    } else if (a == "--jobs") {
      mc.jobs = cli::parse_count(cli::need_value(argc, argv, i, "--jobs"),
                                 "--jobs value");
    } else if (a.starts_with("--")) {
      fail("unknown option '", a, "'");
    } else {
      pos.push_back(a);
    }
  }

  // The design: a named scaling-suite circuit or a Verilog file + clock.
  circuits::Circuit circuit{nl::Netlist("design"), {}};
  std::string name;
  size_t opt_pos = 0;  // index of the optional [margin] positional
  if (!circuit_name.empty()) {
    bool found = false;
    for (circuits::Suite& s : circuits::scaling_suite()) {
      if (s.name == circuit_name) {
        circuit = std::move(s.circuit);
        name = s.name;
        found = true;
        break;
      }
    }
    if (!found) fail("no suite circuit named '", circuit_name, "'");
  } else {
    if (pos.size() < 2) {
      fail("optimize-margins needs <input.v> <clock-net> (or --circuit "
           "<suite-name>); see usage");
    }
    std::ifstream in(pos[0]);
    if (!in) fail("cannot open ", pos[0]);
    std::stringstream ss;
    ss << in.rdbuf();
    circuit.netlist = nl::read_verilog(ss.str(), pos[0]);
    circuit.clock = circuit.netlist.find_net(pos[1]);
    if (!circuit.clock.valid()) {
      fail("no net named '", pos[1], "' in ", pos[0]);
    }
    name = circuit.netlist.name();
    opt_pos = 2;
  }

  flow::DesyncOptions opt;
  opt.protocol = protocol;
  if (pos.size() > opt_pos) opt.margin = cli::parse_margin(pos[opt_pos]);
  if (pos.size() > opt_pos + 1) {
    opt.strategy = flow::PartitionSpec::parse(pos[opt_pos + 1]);
  }

  const cell::Tech& tech = cell::Tech::generic90();
  flow::MarginOptResult res =
      flow::optimize_margins(circuit.netlist, circuit.clock, tech, opt, mc);

  std::printf("circuit : %s (%s, %s, margin %.2f, %zu+%zu samples)\n",
              name.c_str(), opt.strategy.label().c_str(),
              ctl::protocol_name(protocol), opt.margin,
              res.baseline.corner_samples, mc.samples);
  std::printf("banks shaved    : %zu of %zu\n", res.banks_shaved,
              res.margins.size());
  std::printf("delay cells     : %zu -> %zu (%.1f%% recovered)\n",
              res.delay_cells_before, res.delay_cells_after,
              res.delay_cells_before
                  ? 100.0 *
                        static_cast<double>(res.delay_cells_before -
                                            res.delay_cells_after) /
                        static_cast<double>(res.delay_cells_before)
                  : 0.0);
  auto print_report = [](const char* label, const flow::McReport& r) {
    std::printf("%s: nominal %.0fps, p50 %.0fps, p95 %.0fps, max %.0fps, "
                "worst slack %.0fps, yield %.3f (%zu violating)\n",
                label, r.nominal_period, r.period.p50, r.period.p95,
                r.period.max, r.min_slack.min, r.yield, r.violation_samples);
  };
  print_report("baseline ", res.baseline);
  print_report("optimized", res.optimized);
  for (size_t b = 0; b < res.margins.size(); ++b) {
    if (res.margins[b] > 0) {
      std::printf("  bank %-3zu margin %.2f -> %.4f\n", b, opt.margin,
                  res.margins[b]);
    }
  }

  if (!out_path.empty()) {
    flow::DesyncOptions opt2 = opt;
    opt2.margins = res.margins;
    flow::DesyncResult dr =
        flow::desynchronize(circuit.netlist, circuit.clock, tech, opt2);
    std::ofstream out(out_path);
    if (!out) fail("cannot write ", out_path);
    nl::write_verilog(dr.netlist, out);
    std::printf("wrote %s\n", out_path.c_str());
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) fail("cannot write ", json_path);
    char buf[128];
    out << "{\n  \"schema\": \"desyn-margins-v1\",\n";
    out << "  \"circuit\": \"" << json::escape(name) << "\", \"strategy\": \""
        << json::escape(opt.strategy.label()) << "\", \"protocol\": \""
        << ctl::protocol_name(protocol) << "\",";
    std::snprintf(buf, sizeof buf, " \"margin\": %.4f,\n", opt.margin);
    out << buf;
    out << "  \"banks_shaved\": " << res.banks_shaved
        << ", \"delay_cells_before\": " << res.delay_cells_before
        << ", \"delay_cells_after\": " << res.delay_cells_after << ",\n";
    out << "  \"margins\": [";
    for (size_t b = 0; b < res.margins.size(); ++b) {
      std::snprintf(buf, sizeof buf, "%s%.6f", b ? ", " : "",
                    res.margins[b]);
      out << buf;
    }
    out << "],\n";
    out << "  \"baseline\": {" << mc_report_json(res.baseline) << "},\n";
    out << "  \"optimized\": {" << mc_report_json(res.optimized) << "}\n";
    out << "}\n";
  }

  // The equal-yield contract is the pass/fail line.
  return res.optimized.violation_samples <= res.baseline.violation_samples
             ? 0
             : 1;
}

/// `desyn_cli cache stats|verify|scrub <dir>` — offline inspection and
/// repair of a flow engine's disk tier (flow/artifact.h free functions).
int run_cache(int argc, char** argv) {
  std::vector<std::string> pos;
  for (int i = 2; i < argc; ++i) pos.emplace_back(argv[i]);
  if (pos.size() != 2 ||
      (pos[0] != "stats" && pos[0] != "verify" && pos[0] != "scrub")) {
    fail("usage: desyn_cli cache stats|verify|scrub <dir>");
  }
  const std::string& mode = pos[0];
  const std::string& dir = pos[1];

  if (mode == "scrub") {
    flow::ScrubResult r = flow::scrub_cache_dir(dir);
    flow::CacheScan after = flow::scan_cache_dir(dir, /*verify=*/false);
    std::printf("scrubbed %s: removed %zu corrupt entr%s, %zu orphan tmp "
                "file%s; %zu entr%s remain\n",
                dir.c_str(), r.corrupt_removed,
                r.corrupt_removed == 1 ? "y" : "ies", r.tmp_removed,
                r.tmp_removed == 1 ? "" : "s", after.entries,
                after.entries == 1 ? "y" : "ies");
    return 0;
  }

  const bool verify = mode == "verify";
  flow::CacheScan scan = flow::scan_cache_dir(dir, verify);
  std::printf("cache dir : %s\n", dir.c_str());
  std::printf("entries   : %zu (%llu bytes)\n", scan.entries,
              static_cast<unsigned long long>(scan.bytes));
  for (const auto& [kind, count] : scan.kinds) {
    std::printf("  %-9s : %zu\n", kind.c_str(), count);
  }
  std::printf("tmp files : %zu (%zu orphaned)\n", scan.tmp_total,
              scan.tmp_orphans);
  if (verify) {
    std::printf("corrupt   : %zu\n", scan.corrupt);
    for (const std::string& p : scan.corrupt_paths) {
      std::printf("  %s\n", p.c_str());
    }
    if (scan.corrupt > 0) return 1;  // `verify` is a CI gate
  }
  return 0;
}

int run_single(int argc, char** argv) {
  // Positional arguments with optional flags anywhere after them.
  std::vector<std::string> pos;
  ctl::Protocol protocol = ctl::Protocol::Pulse;
  std::string cache_dir;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--protocol") {
      protocol =
          ctl::parse_protocol(cli::need_value(argc, argv, i, "--protocol"));
    } else if (a == "--cache-dir") {
      cache_dir = cli::need_value(argc, argv, i, "--cache-dir");
    } else if (a.starts_with("--")) {
      fail("unknown option '", a, "'");
    } else {
      pos.push_back(a);
    }
  }
  if (pos.size() < 3) {
    std::fprintf(stderr,
                 "usage: desyn_cli <input.v> <clock-net> <output.v> [margin] "
                 "[prefix[:N]|perff|single|auto[:B]] "
                 "[--protocol lockstep|semi|fully|pulse] "
                 "[--cache-dir <dir>]\n"
                 "       desyn_cli sweep [--margins 1.0,1.1,1.3] "
                 "[--protocol <p>|all] "
                 "[--strategies prefix,perff,single,auto:1.05]\n"
                 "                 [--rounds N] [--full-suite] [--jobs N] "
                 "[--json <path>] [--stable]\n"
                 "                 [--mc-samples N [--mc-seed S] "
                 "[--mc-sigma X]]  (analytic MC mode)\n"
                 "       desyn_cli optimize-margins <input.v> <clock-net> "
                 "[margin] [strategy] [--protocol <p>]\n"
                 "                 [--mc-samples N] [--mc-seed S] "
                 "[--mc-sigma X] [--jobs N] [--json <path>] "
                 "[--out <file.v>]\n"
                 "       desyn_cli optimize-margins --circuit <suite-name> "
                 "[margin] [strategy] [...]\n"
                 "       desyn_cli serve --socket <path> [--threads N] "
                 "[--capacity N] [--cache-dir <dir>] [--max-inflight N]\n"
                 "                 [--io-timeout-ms N] "
                 "[--max-request-bytes N] [--fault-spec <spec>]\n"
                 "       desyn_cli submit <input.v> <clock-net> --socket "
                 "<path> [margin] [strategy] [--protocol <p>]\n"
                 "                 [--save <result.json>] [--retries N] "
                 "[--timeout-ms N]\n"
                 "       desyn_cli cache stats|verify|scrub <dir>\n"
                 "       desyn_cli lint <input.v> <clock-net> [margin] "
                 "[strategy] [--protocol <p>|all] [--json <path>]\n"
                 "       desyn_cli lint --suite [--full-suite] [margin] "
                 "[strategy] [--protocol <p>|all] [--json <path>]\n");
    return 2;
  }
  std::ifstream in(pos[0]);
  if (!in) fail("cannot open ", pos[0]);
  std::stringstream ss;
  ss << in.rdbuf();
  nl::Netlist ff = nl::read_verilog(ss.str(), pos[0]);
  nl::NetId clock = ff.find_net(pos[1]);
  if (!clock.valid()) fail("no net named '", pos[1], "' in ", pos[0]);

  flow::DesyncOptions opt;
  opt.protocol = protocol;
  if (pos.size() > 3) opt.margin = cli::parse_margin(pos[3]);
  if (pos.size() > 4) opt.strategy = flow::PartitionSpec::parse(pos[4]);

  const cell::Tech& tech = cell::Tech::generic90();
  sta::Sta sta(ff, tech);
  Ps sync_period = sta.min_clock_period().min_period;

  // With --cache-dir the flow runs through a disk-backed engine: stages of
  // a previously-seen design are loaded instead of recomputed.
  std::unique_ptr<flow::Engine> engine;
  if (!cache_dir.empty()) {
    engine = std::make_unique<flow::Engine>(
        tech, flow::EngineOptions{96, cache_dir});
  }
  flow::DesyncResult dr = engine
                              ? *engine->desynchronize(ff, clock, opt)
                              : flow::desynchronize(ff, clock, tech, opt);
  std::ofstream out(pos[2]);
  if (!out) fail("cannot write ", pos[2]);
  nl::write_verilog(dr.netlist, out);

  std::printf("protocol: %s\n", ctl::protocol_name(opt.protocol));
  std::printf("strategy: %s (%zu storage groups)\n",
              opt.strategy.label().c_str(), dr.partition.num_groups());
  std::printf("input : %s\n", nl::stats(ff, tech).to_string().c_str());
  std::printf("output: %s\n", nl::stats(dr.netlist, tech).to_string().c_str());
  std::printf("banks (%zu):\n", dr.cg.num_banks());
  for (size_t i = 0; i < dr.cg.num_banks(); ++i) {
    std::printf("  %-20s %s\n", dr.cg.bank(static_cast<int>(i)).name.c_str(),
                dr.cg.bank(static_cast<int>(i)).even ? "even" : "odd");
  }
  std::printf("edges (%zu):\n", dr.cg.edges().size());
  for (const auto& e : dr.cg.edges()) {
    std::printf("  %-20s -> %-20s matched %lldps\n",
                dr.cg.bank(e.from).name.c_str(),
                dr.cg.bank(e.to).name.c_str(),
                static_cast<long long>(e.matched_delay));
  }
  auto mcr = pn::max_cycle_ratio(flow::timed_control_model(dr, tech));
  std::printf("sync STA min period : %lldps\n",
              static_cast<long long>(sync_period));
  std::printf("desync predicted    : %.0fps (max cycle ratio)\n", mcr.ratio);
  if (engine) {
    flow::ArtifactStore::Stats s = engine->store_stats();
    std::printf("cache: %zu memory hits, %zu disk hits, %zu misses (%s)\n",
                s.hits, s.disk_hits, s.misses, cache_dir.c_str());
  }
  std::printf("wrote %s\n", pos[2].c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc > 1 && std::string(argv[1]) == "sweep") {
      return run_sweep(argc, argv);
    }
    if (argc > 1 && std::string(argv[1]) == "serve") {
      return run_serve(argc, argv);
    }
    if (argc > 1 && std::string(argv[1]) == "submit") {
      return run_submit(argc, argv);
    }
    if (argc > 1 && std::string(argv[1]) == "cache") {
      return run_cache(argc, argv);
    }
    if (argc > 1 && std::string(argv[1]) == "lint") {
      return run_lint(argc, argv);
    }
    if (argc > 1 && std::string(argv[1]) == "optimize-margins") {
      return run_optimize_margins(argc, argv);
    }
    return run_single(argc, argv);
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

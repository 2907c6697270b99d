// bench_flow — the staged flow engine: cold submission vs. cache-served
// re-submission vs. ECO re-run on the large mesh fabric (mesh16x16x1,
// ~256 control banks — the partition-optimizer scale target).
//
//   bench_flow [--json <path>] [--min-speedup X]
//
// Four scenarios, each checked against a cold flow before its time is
// reported (a fast wrong answer would be worthless): a row is identical
// only if both the Verilog bytes and the FlowStats (banks, cells and the
// predicted period, bit for bit) match.
//
//   resubmit    the same design again: a pure result-cache hit (one
//               content hash + one LRU lookup). --min-speedup gates the
//               cold/warm ratio (CI uses 10).
//   eco-delay   one Buf flipped to an Inv — the classic polarity-fix ECO,
//               a single-delay edit (-12ps) that stays inside its 120ps
//               DELAY quantization bucket. Only the edited cone's source
//               bank re-runs STA, the synthesized controllers are
//               field-patched, and the moved delay re-solves the timed
//               model cold.
//   eco-requant one cell flipped to a DELAY (+90ps+): the matched-delay
//               chains resize, so controller synthesis honestly re-runs —
//               the worst-case ECO, bounded below cold only by the skipped
//               partition and full-STA stages.
//   eco-init    one flip-flop's init value flipped — no delay moves, the
//               control graph hash is unchanged: the previous synth
//               netlist is field-patched and the MCR stage is a cache hit.
//
// --json writes the rows as a machine-readable report (schema
// desyn-bench-v1); CI uploads it as an artifact.
#include <cstdio>
#include <string>
#include <vector>

#include "base/cli_args.h"
#include "bench_util.h"
#include "circuits/circuits.h"
#include "flow/engine.h"
#include "netlist/writer.h"

using namespace desyn;
using bench::time_ms;

namespace {

struct Row {
  std::string name;
  double cold_ms = 0;
  double fast_ms = 0;  ///< warm / ECO time
  double speedup = 0;
  size_t banks_retimed = 0;  ///< ECO rows: source-bank STA re-runs
  bool identical = false;    ///< Verilog and stats equal a cold flow's
};

bool same(const flow::FlowOutcome& a, const flow::FlowOutcome& b) {
  return *a.verilog == *b.verilog && a.stats == b.stats;
}

/// Cold-flow oracle: a throwaway engine, so nothing is cached.
flow::FlowOutcome cold_flow(const cell::Tech& tech, const nl::Netlist& ff,
                            nl::NetId clock, const flow::DesyncOptions& opt) {
  flow::Engine fresh(tech);
  return fresh.run(ff, clock, opt);
}

void write_json(const std::string& path, const std::vector<Row>& rows) {
  std::vector<std::string> cases;
  for (const Row& r : rows) {
    cases.push_back(bench::fmt(
        "{\"case\": \"%s\", \"cold_ms\": %.3f, \"fast_ms\": %.3f, "
        "\"speedup\": %.2f, \"banks_retimed\": %zu, \"identical\": %s}",
        r.name.c_str(), r.cold_ms, r.fast_ms, r.speedup, r.banks_retimed,
        r.identical ? "true" : "false"));
  }
  bench::write_report(path, "bench_flow", cases);
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  double min_speedup = 0;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--json") {
      json_path = cli::need_value(argc, argv, i, "--json");
    } else if (a == "--min-speedup") {
      min_speedup = cli::parse_nonneg(
          cli::need_value(argc, argv, i, "--min-speedup"),
          "--min-speedup value");
    } else {
      std::fprintf(stderr,
                   "usage: bench_flow [--json <path>] [--min-speedup X]\n");
      return 2;
    }
  }

  const cell::Tech& tech = cell::Tech::generic90();
  circuits::Circuit base = circuits::register_mesh(16, 16, 1);
  flow::DesyncOptions opt;  // prefix strategy, pulse protocol
  // 20% matched-delay margin: with the default 1.10 one of the mesh's edited
  // control edges lands exactly on a 120ps DELAY-quantization boundary, which
  // would turn the eco-delay scenario into a requantization. 1.20 keeps the
  // -12ps Buf->Inv edit inside its bucket on every affected edge.
  opt.margin = 1.20;
  std::vector<Row> rows;

  std::printf("== bench_flow: staged engine on %s (%zu cells) ==\n\n",
              base.netlist.name().c_str(), base.netlist.num_live_cells());

  flow::Engine engine(tech);

  // --- resubmit: cold, then the identical design again -------------------
  flow::FlowOutcome cold;
  double cold_ms =
      time_ms([&] { cold = engine.run(base.netlist, base.clock, opt); });
  DESYN_ASSERT(!cold.cached, "first submission must run the stages");

  const int kWarmReps = 10;
  flow::FlowOutcome warm;
  double warm_ms = time_ms(
      [&] { warm = engine.run(base.netlist, base.clock, opt); }, kWarmReps);
  DESYN_ASSERT(warm.cached, "re-submission must be a result-cache hit");
  rows.push_back(
      {"resubmit", cold_ms, warm_ms, cold_ms / warm_ms, 0, same(warm, cold)});

  // --- eco-delay: polarity fix, one Buf becomes an Inv -------------------
  nl::CellId buf_cell;
  for (nl::CellId c : base.netlist.cells()) {
    const nl::CellData& cd = base.netlist.cell(c);
    if (cd.kind == cell::Kind::Buf && cd.ins.size() == 1 &&
        cd.outs.size() == 1) {
      buf_cell = c;
      break;
    }
  }
  DESYN_ASSERT(buf_cell.valid(), "mesh has no Buf cell to edit");

  nl::Netlist inv_edit = base.netlist;
  inv_edit.set_kind(buf_cell, cell::Kind::Inv);

  flow::StageCounters before = engine.counters();
  flow::FlowOutcome eco1;
  double eco1_ms =
      time_ms([&] { eco1 = engine.run(inv_edit, base.clock, opt); });
  flow::StageCounters after = engine.counters();
  DESYN_ASSERT(after.adjacency_eco == before.adjacency_eco + 1,
               "delay edit must take the cone-limited STA path");
  DESYN_ASSERT(after.synth_patched == before.synth_patched + 1,
               "in-bucket delay edit must take the synth field-patch path");
  rows.push_back({"eco-delay", cold_ms, eco1_ms, cold_ms / eco1_ms,
                  after.eco_banks_retimed - before.eco_banks_retimed,
                  same(eco1, cold_flow(tech, inv_edit, base.clock, opt))});

  // --- eco-requant: the edited cell becomes a DELAY (+90ps or more) ------
  nl::Netlist delay_edit = inv_edit;
  delay_edit.set_kind(buf_cell, cell::Kind::Delay);

  before = engine.counters();
  flow::FlowOutcome eco2;
  double eco2_ms =
      time_ms([&] { eco2 = engine.run(delay_edit, base.clock, opt); });
  after = engine.counters();
  DESYN_ASSERT(after.adjacency_eco == before.adjacency_eco + 1,
               "delay edit must take the cone-limited STA path");
  DESYN_ASSERT(after.synth_runs == before.synth_runs + 1,
               "bucket-crossing delay edit must re-synthesize");
  rows.push_back({"eco-requant", cold_ms, eco2_ms, cold_ms / eco2_ms,
                  after.eco_banks_retimed - before.eco_banks_retimed,
                  same(eco2, cold_flow(tech, delay_edit, base.clock, opt))});

  // --- eco-init: one flip-flop init flips (relative to eco-requant) ------
  nl::Netlist init_edit = delay_edit;
  nl::CellId ff_cell;
  for (nl::CellId c : init_edit.cells()) {
    if (init_edit.cell(c).kind == cell::Kind::Dff) {
      ff_cell = c;
      break;
    }
  }
  DESYN_ASSERT(ff_cell.valid(), "mesh has no Dff cell to edit");
  init_edit.set_init(ff_cell, init_edit.cell(ff_cell).init == cell::V::V0
                                  ? cell::V::V1
                                  : cell::V::V0);

  before = engine.counters();
  flow::FlowOutcome eco3;
  double eco3_ms =
      time_ms([&] { eco3 = engine.run(init_edit, base.clock, opt); });
  after = engine.counters();
  DESYN_ASSERT(after.synth_patched == before.synth_patched + 1,
               "init edit must take the synth field-patch path");
  rows.push_back({"eco-init", cold_ms, eco3_ms, cold_ms / eco3_ms,
                  after.eco_banks_retimed - before.eco_banks_retimed,
                  same(eco3, cold_flow(tech, init_edit, base.clock, opt))});

  std::printf("  %-10s %10s %10s %9s %8s %10s\n", "case", "cold(ms)",
              "fast(ms)", "speedup", "retimed", "identical");
  bool ok = true;
  for (const Row& r : rows) {
    std::printf("  %-10s %10.3f %10.3f %8.1fx %8zu %10s\n", r.name.c_str(),
                r.cold_ms, r.fast_ms, r.speedup, r.banks_retimed,
                r.identical ? "yes" : "NO");
    ok = ok && r.identical;
  }
  if (!json_path.empty()) write_json(json_path, rows);
  if (!ok) {
    std::fprintf(stderr, "FAIL: a fast path diverged from the cold flow\n");
    return 1;
  }
  if (min_speedup > 0 && rows[0].speedup < min_speedup) {
    std::fprintf(stderr, "FAIL: resubmit speedup %.1fx < required %.1fx\n",
                 rows[0].speedup, min_speedup);
    return 1;
  }
  std::printf(
      "\nresubmit %.1fx, eco-delay %.1fx, eco-requant %.1fx, eco-init %.1fx "
      "vs cold\n",
      rows[0].speedup, rows[1].speedup, rows[2].speedup, rows[3].speedup);
  return 0;
}

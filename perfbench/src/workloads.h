// The two workloads. Each builds its seeded inputs, times a set-up phase
// of real one-time work, runs a fixed amount of timed work, checks every
// output, and fills the end-to-end metrics (and, when tracing, the
// per-layer ones) into its Result.
#pragma once

#include "common.h"
#include "core/desynchronizer.h"

namespace perfbench {

Result run_verify(const Config& cfg);
Result run_explore(const Config& cfg);

/// Traced runs of explore: a `desyn_cli serve` session (one set-up, 5
/// blocks of 100 requests per client) that fills the svc.* and flow.*
/// per-layer metrics and base.json_parse_ms; its checks count as ops.
void trace_svc_layer(Result& res, const Config& cfg);

/// Traced runs only: a cold layer-by-layer pass over each design at `opt`
/// (netlist/core/sta/ctl/pn metrics) and a fixed-horizon simulation of
/// each one's desynchronized netlist (sim.build_ms, sim.events,
/// sim.events_per_s).
void trace_layers(Result& res, const std::vector<const Design*>& designs,
                  const flow::DesyncOptions& opt, const cell::Tech& tech);

/// desync_cells, ctl_cells, measured_period_ps and model_error from a
/// fixed-horizon simulation of each produced design; a design that does
/// not run is a failed op.
void report_hardware(Result& res,
                     const std::vector<flow::DesyncResult>& produced,
                     const cell::Tech& tech);

}  // namespace perfbench

// Layer probes shared by every workload: a spanned cold pass through each
// flow layer's public functions, and a fixed-horizon simulation of a
// desynchronized netlist that measures the period the hardware runs at.
#pragma once

#include <cmath>

#include "common.h"
#include "core/desynchronizer.h"

namespace perfbench {

/// One cold flow of `d` at `opt` called layer by layer (read, hash,
/// partition, latchify, adjacency, synth, MCR, write), each call under a
/// span named for its per-layer metric. Returns the predicted period.
double layer_pass(const Design& d, const flow::DesyncOptions& opt,
                  const cell::Tech& tech);

struct HardwareProbe {
  bool ok = false;             ///< the circuit completed >= 2 rounds
  double measured_ps = 0;      ///< simulated round period
  double predicted_ps = 0;     ///< max cycle ratio of the timed model
  uint64_t events = 0;         ///< simulator events processed
  size_t desync_cells = 0;     ///< live cells of the desynchronized netlist
  size_t ctl_cells = 0;        ///< controller + matched-delay cells
};

/// Simulate `dr` for `rounds` predicted periods with every primary input
/// held at 0, timing the first master bank's captures. Spans: sim.build
/// (Simulator construction) and sim.run.
HardwareProbe probe_hardware(const flow::DesyncResult& dr,
                             const cell::Tech& tech, int rounds = 24);

/// |predicted - measured| / measured.
inline double model_error(double predicted, double measured) {
  return measured > 0 ? std::abs(predicted - measured) / measured : 0.0;
}

}  // namespace perfbench

// A1 — ablation: controller protocol comparison. Analytic cycle time (max
// cycle ratio of the timed model) for all four protocols over pipeline
// rings of growing depth, plus the measured gate-level period of the
// synthesized controller network for every protocol — since the
// Lockstep/Semi/Fully controllers are real hardware too, the ablation
// benchmarks gates against model across the whole family. The measured
// period must sit on or above the MCR bound (the model abstracts join
// trees, fanout-loaded gates and the token-gating AND). Exits 1 if any
// ring's gate-level network deadlocks.
#include <cstdio>

#include "ctl/conformance.h"
#include "ctl/controller.h"
#include "pn/mcr.h"
#include "sim/sim.h"

using namespace desyn;
using cell::Tech;
using ctl::ControlGraph;
using ctl::Protocol;

static ControlGraph ring(int n, Ps delay) {
  ControlGraph cg;
  for (int i = 0; i < n; ++i) cg.add_bank(cat("B", i), i % 2 == 0);
  for (int i = 0; i < n; ++i) {
    cg.add_edge(i, (i + 1) % n, i % 2 == 0 ? 100 : delay);
  }
  return cg;
}

/// Steady-state period of the synthesized network, from the last eight
/// rises of bank 0's enable; -1 if the ring stalled (deadlock).
static double measure_gates(const ControlGraph& cg, Protocol p,
                            const Tech& t) {
  nl::Netlist nl("ctrl");
  nl::Builder b(nl);
  ctl::ControllerNetwork net = ctl::synthesize_controllers(b, cg, p, t);
  sim::Simulator sim(nl, t);
  std::vector<Ps> rises;
  sim.watch(net.enables[0], [&](Ps at, sim::V v) {
    if (v == sim::V::V1) rises.push_back(at);
  });
  sim.run_until(400000);
  if (rises.size() <= 9) return -1;
  return static_cast<double>(rises.back() - rises[rises.size() - 9]) / 8;
}

int main() {
  const Tech& t = Tech::generic90();
  const Ps cl = 900;  // slave->master combinational delay per stage

  printf("== A1: protocol comparison, M/S pipeline rings (CL=%lldps) ==\n\n",
         static_cast<long long>(cl));
  printf("  %-6s %-15s %12s %12s %11s\n", "banks", "protocol", "analytic",
         "gates", "gates/mcr");
  for (int n : {4, 8, 12, 16, 24, 32}) {
    ControlGraph cg = ring(n, cl);
    for (Protocol p : ctl::kAllProtocols) {
      double analytic =
          pn::max_cycle_ratio(ctl::hardware_model(cg, p, t).mg).ratio;
      double gates = measure_gates(cg, p, t);
      if (gates < 0) {
        fprintf(stderr, "error: %d-bank %s ring deadlocked (bank 0 stopped "
                "pulsing)\n", n, ctl::protocol_name(p));
        return 1;
      }
      printf("  %-6d %-15s %10.0fps %10.0fps %11.2f\n", n,
             ctl::protocol_name(p), analytic, gates, gates / analytic);
    }
    printf("\n");
  }
  printf("  the decoupled protocols admit more concurrency (lower bound on\n"
         "  the period); on homogeneous rings all converge to the per-stage\n"
         "  bound CL + controller overhead, which each gate-level network\n"
         "  tracks from above (gates/mcr >= 1, within the abstraction\n"
         "  slack of the MG model).\n");
  return 0;
}

#include "probes.h"

#include <cmath>
#include <optional>

#include "netlist/hash.h"
#include "netlist/reader.h"
#include "netlist/writer.h"
#include "pn/mcr.h"
#include "sim/sim.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

double layer_pass(const Design& d, const flow::DesyncOptions& opt,
                  const cell::Tech& tech) {
  nl::Netlist ff("design");
  {
    trace::Span s("netlist.read");
    ff = nl::read_verilog(d.verilog, d.name);
  }
  nl::NetId clock = ff.find_net(d.netlist.net(d.clock).name);
  {
    trace::Span s("netlist.hash");
    (void)nl::content_hash(ff);
  }
  flow::DesyncResult r{ff, {}, {}, {}, {}, -1, -1, opt.protocol};
  {
    trace::Span s("core.partition");
    r.partition = flow::make_partition(ff, clock, opt.strategy, tech,
                                       opt.protocol, opt.margin, opt.opt_jobs);
  }
  {
    trace::Span s("core.latchify");
    r.banks = flow::latchify(r.netlist, clock, r.partition);
  }
  {
    trace::Span s("sta.adjacency");
    flow::AdjacencyResult adj = flow::extract_control_graph(
        r.netlist, r.banks, clock, tech, flow::Margins(opt.margin, opt.margins),
        opt.protocol);
    r.cg = std::move(adj.cg);
    r.env_snk = adj.env_snk;
    r.env_src = adj.env_src;
  }
  {
    trace::Span s("ctl.synth");
    r.ctrl = flow::attach_controllers(r.netlist, r.banks, r.cg, opt.protocol,
                                      tech);
  }
  double period = 0;
  {
    trace::Span s("pn.mcr");
    period = pn::max_cycle_ratio(flow::timed_control_model(r, tech)).ratio;
  }
  {
    trace::Span s("netlist.write");
    (void)nl::to_verilog(r.netlist);
  }
  return period;
}

HardwareProbe probe_hardware(const flow::DesyncResult& dr,
                             const cell::Tech& tech, int rounds) {
  HardwareProbe p;
  p.desync_cells = dr.netlist.num_live_cells();
  p.ctl_cells = dr.ctrl.cells.size();
  p.predicted_ps = pn::max_cycle_ratio(flow::timed_control_model(dr, tech)).ratio;

  // The first master bank with latches times the rounds, as flow
  // equivalence does.
  int timing_bank = -1;
  for (size_t i = 0; i < dr.banks.banks.size(); ++i) {
    if (dr.banks.banks[i].even && !dr.banks.banks[i].latches.empty()) {
      timing_bank = static_cast<int>(i);
      break;
    }
  }
  if (timing_bank < 0) return p;

  std::vector<Ps> captures;
  std::optional<sim::Simulator> sim;
  {
    trace::Span s("sim.build");
    sim.emplace(dr.netlist, tech);
  }
  for (nl::NetId in : dr.netlist.inputs()) sim->set_input(in, cell::V::V0, 0);
  sim->watch(dr.enable(timing_bank), [&captures](Ps at, cell::V v) {
    if (v == cell::V::V0) captures.push_back(at);
  });
  {
    trace::Span s("sim.run");
    sim->run_until(static_cast<Ps>(std::ceil(p.predicted_ps * (rounds + 2))));
  }
  p.events = sim->events_processed();
  // Skip the reset-kick round; report the steady-state average.
  if (captures.size() >= 3) {
    p.ok = true;
    p.measured_ps = static_cast<double>(captures.back() - captures[1]) /
                    static_cast<double>(captures.size() - 2);
  }
  return p;
}

void trace_layers(Result& res, const std::vector<const Design*>& designs,
                  const flow::DesyncOptions& opt, const cell::Tech& tech) {
  // Other probes (report_hardware) record sim.* spans too: the sim metrics
  // take only this loop's, so events and run time come from the same
  // simulations.
  const double build_ms0 = trace::total_ms("sim.build");
  const double run_ms0 = trace::total_ms("sim.run");
  uint64_t events = 0;
  for (const Design* d : designs) {
    (void)layer_pass(*d, opt, tech);
    flow::DesyncResult dr =
        flow::desynchronize_reference(d->netlist, d->clock, tech, opt);
    events += probe_hardware(dr, tech).events;
  }
  for (const char* name :
       {"netlist.read", "netlist.hash", "core.partition", "core.latchify",
        "sta.adjacency", "ctl.synth", "pn.mcr", "netlist.write"}) {
    res.set(std::string(name) + "_ms", trace::total_ms(name), "ms");
  }
  res.set("sim.build_ms", trace::total_ms("sim.build") - build_ms0, "ms");
  res.set("sim.events", static_cast<double>(events), "count");
  res.set("sim.events_per_s",
          static_cast<double>(events) /
              (1e-3 * (trace::total_ms("sim.run") - run_ms0)),
          "1/s");
  res.pin("sim.events", static_cast<double>(events));
}

void report_hardware(Result& res,
                     const std::vector<flow::DesyncResult>& produced,
                     const cell::Tech& tech) {
  size_t desync_cells = 0, ctl_cells = 0;
  std::vector<double> measured, error;
  for (const flow::DesyncResult& dr : produced) {
    ++res.attempted;
    HardwareProbe p = probe_hardware(dr, tech);
    desync_cells += p.desync_cells;
    ctl_cells += p.ctl_cells;
    if (!p.ok) {
      res.fail("hardware probe: " + dr.netlist.name() + " made no rounds");
      continue;
    }
    measured.push_back(p.measured_ps);
    error.push_back(std::max(1e-9, model_error(p.predicted_ps, p.measured_ps)));
  }
  res.set("desync_cells", static_cast<double>(desync_cells), "count");
  res.set("ctl_cells", static_cast<double>(ctl_cells), "count");
  res.set("measured_period_ps", geomean(measured), "ps");
  res.set("model_error", geomean(error), "ratio");
}

}  // namespace perfbench

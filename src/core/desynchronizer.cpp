#include "core/desynchronizer.h"

#include <algorithm>

#include "core/clocktree.h"
#include "flow/engine.h"

namespace desyn::flow {

namespace {

/// An enable distribution tree extends a bank's transparency window past
/// its root enable: the leaves open and close one insertion delay later
/// than the controller believes. Left uncompensated, the bank's capture
/// acknowledge releases its producers (including the environment) while
/// leaf latches are still transparent — new data races straight into the
/// capture — and its launch request undersells the data launch time by the
/// same amount. This bites exactly the wide banks the partition optimizer
/// makes first-class (a per-flip-flop producer has no tree at all, so the
/// two insertion delays do not cancel). Compensate by delaying the bank's
/// outgoing handshake signals (the round net under Pulse, both transition
/// signals under the level protocols) by the insertion delay in whole
/// DELAY cells (`units`, from tree_insertion). Only the bank's window
/// cells, as synthesis recorded them (the enable gate and, for Pulse, its
/// pulse-generator buffer chain), keep the raw signals — delaying those
/// would shift the window itself and re-create the skew.
void compensate_enable_skew(nl::Netlist& nl, ctl::ControllerNetwork& ctrl,
                            size_t bank, int units) {
  if (units <= 0) return;
  const std::vector<nl::CellId>& keep = ctrl.window_cells[bank];
  for (nl::NetId s : {ctrl.rounds[bank], ctrl.falls[bank]}) {
    if (!s.valid()) continue;
    std::vector<nl::Pin> pins;  // copy: rewiring mutates the fanout list
    for (const nl::Pin& p : nl.net(s).fanout) {
      if (std::find(keep.begin(), keep.end(), p.cell) == keep.end()) {
        pins.push_back(p);
      }
    }
    if (pins.empty()) continue;
    nl::NetId tap = s;
    for (int k = 0; k < units; ++k) {
      nl::NetId next = nl.add_net(cat(nl.net(s).name, ".skew", k));
      nl::CellId c = nl.add_cell(cell::Kind::Delay, "", {tap}, {next});
      ctrl.cells.push_back(c);
      ctrl.control_nets.push_back(next);
      ++ctrl.delay_units;
      tap = next;
    }
    for (const nl::Pin& p : pins) nl.rewire_input(p.cell, p.index, tap);
  }
}

}  // namespace

ctl::ControllerNetwork attach_controllers(nl::Netlist& nl,
                                          const LatchifyResult& banks,
                                          const ctl::ControlGraph& cg,
                                          ctl::Protocol protocol,
                                          const cell::Tech& tech) {
  nl::Builder b(nl);
  ctl::ControllerNetwork ctrl = ctl::synthesize_controllers(b, cg, protocol,
                                                            tech);

  // Rewire storage control pins from the clock to the local enables. The
  // enable is transparent-high for every bank under every protocol, so
  // masters flip LatchN->Latch.
  for (size_t i = 0; i < banks.banks.size(); ++i) {
    const Bank& bank = banks.banks[i];
    nl::NetId en = ctrl.enables[i];
    for (nl::CellId c : bank.latches) {
      if (nl.cell(c).kind == cell::Kind::LatchN) {
        nl.set_kind(c, cell::Kind::Latch);
      }
      nl.rewire_input(c, 1, en);  // EN pin
    }
    // RAM CK: the write commits on the enable's rise (the pulse start /
    // writer+). Every protocol orders writer+ after the captures of the
    // banks reading the RAM (the adjacency's reader -> writer edges) and
    // after the command-hold masters' captures, so the commit samples a
    // stable command and readers see strictly pre-write data.
    for (nl::CellId c : bank.rams) {
      nl.rewire_input(c, 0, en);
    }
    // High-fanout enables get a distribution tree so no buffer stage's
    // loaded delay approaches the pulse width (inertial swallowing), plus
    // handshake-side compensation for the tree's insertion delay.
    const TreeInsertion ins = tree_insertion(nl.net(en).fanout.size(), tech);
    if (ins.levels > 0) {
      ClockTree tree = build_clock_tree(nl, en, tech);
      for (nl::NetId n : tree.nets) ctrl.control_nets.push_back(n);
      for (nl::CellId c : tree.buffers) ctrl.cells.push_back(c);
      compensate_enable_skew(nl, ctrl, i, ins.units);
    }
  }
  nl.check();
  return ctrl;
}

DesyncResult desynchronize(const nl::Netlist& ff_netlist, nl::NetId clock,
                           const cell::Tech& tech, const DesyncOptions& opt) {
  return *Engine::process(tech).desynchronize(ff_netlist, clock, opt);
}

DesyncResult desynchronize_reference(const nl::Netlist& ff_netlist,
                                     nl::NetId clock, const cell::Tech& tech,
                                     const DesyncOptions& opt) {
  DESYN_ASSERT(opt.margin >= 1.0, "matched-delay margin must be >= 1");
  for (double m : opt.margins) {
    DESYN_ASSERT(m <= 0.0 || m >= 1.0,
                 "per-bank margins must be >= 1 (or <= 0 = unset)");
  }
  DesyncResult res{ff_netlist, {}, {}, {}, {}, -1, -1, opt.protocol};
  nl::Netlist& nl = res.netlist;

  // Resolve the partition against the *input* netlist (cell ids are stable
  // across the copy): Auto runs the MCR-guided optimizer here. Per-bank
  // margins do not feed the partitioner — bank ids only exist once the
  // clustering is fixed, so the optimizer always scores at the global
  // margin (mirrored in the engine's partition stage key).
  res.partition = make_partition(ff_netlist, clock, opt.strategy, tech,
                                 opt.protocol, opt.margin);
  res.banks = latchify(nl, clock, res.partition);
  AdjacencyResult adj =
      extract_control_graph(nl, res.banks, clock, tech,
                            Margins(opt.margin, opt.margins), opt.protocol);
  res.cg = std::move(adj.cg);
  res.env_snk = adj.env_snk;
  res.env_src = adj.env_src;
  res.ctrl = attach_controllers(nl, res.banks, res.cg, opt.protocol, tech);
  return res;
}

pn::MarkedGraph timed_control_model(const DesyncResult& r,
                                    const cell::Tech& tech) {
  return ctl::hardware_model(r.cg, r.protocol, tech).mg;
}

}  // namespace desyn::flow

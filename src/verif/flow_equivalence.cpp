#include "verif/flow_equivalence.h"

#include <map>

#include "core/clocktree.h"
#include "pn/mcr.h"
#include "sim/power.h"
#include "sim/sim.h"
#include "sta/sta.h"

namespace desyn::verif {

using cell::V;

namespace {

struct Tap {
  std::string name;   // original FF name
  nl::NetId d;        // data net sampled at capture
};

/// Apply stimulus vector `round` to every non-clock primary input.
void apply_vector(sim::Simulator& sim, const nl::Netlist& nl, nl::NetId clock,
                  const Stimulus& stim, int round) {
  size_t idx = 0;
  for (nl::NetId in : nl.inputs()) {
    if (in == clock) continue;
    sim.set_input(in, stim(round, idx), sim.now());
    ++idx;
  }
}

}  // namespace

FlowEqResult check_flow_equivalence(const nl::Netlist& ff_netlist,
                                    nl::NetId clock, const Stimulus& stim,
                                    const cell::Tech& tech,
                                    const FlowEqOptions& opt) {
  FlowEqResult res;
  const int rounds = opt.rounds;

  // ------------------------------------------------------------------ sync
  std::map<std::string, std::vector<V>> sync_stream;
  {
    nl::Netlist snl = ff_netlist;
    flow::ClockTree tree = flow::build_clock_tree(snl, clock, tech);
    res.sync_cells = snl.num_live_cells();

    sta::Sta sta(ff_netlist, tech);
    Ps period = static_cast<Ps>(
        static_cast<double>(sta.min_clock_period().min_period) *
        opt.clock_margin);
    period += period % 2;  // clock generator needs an even period
    res.sync_period = period;

    sim::Simulator sim(snl, tech);

    // Capture taps grouped by clock leaf: D sampled at the leaf's rise.
    std::map<uint32_t, std::vector<Tap>> by_leaf;
    for (nl::CellId c : snl.cells()) {
      const nl::CellData& cd = snl.cell(c);
      if (cd.kind != cell::Kind::Dff) continue;
      by_leaf[cd.ins[1].value()].push_back(Tap{cd.name, cd.ins[0]});
    }
    for (auto& [leaf, taps] : by_leaf) {
      sim.watch(nl::NetId(leaf), [&sim, &sync_stream, taps](Ps, V v) {
        if (v != V::V1) return;
        for (const Tap& t : taps) {
          sync_stream[t.name].push_back(sim.value(t.d));
        }
      });
    }
    apply_vector(sim, snl, clock, stim, 0);
    int round = 0;
    sim.watch(clock, [&](Ps at, V v) {
      // New vector mid-cycle (falling edge): safely after the capture edge
      // reached every leaf, and a half period before the next one. The
      // initial X->0 reset assignment at t=0 is not a falling edge.
      if (v == V::V0 && at > 0 && round <= rounds + 2) {
        ++round;
        apply_vector(sim, snl, clock, stim, round);
      }
    });
    sim.add_clock(clock, period, period / 2);
    sim.run_until(period * (rounds + 2));
    res.sync_setup_violations = sim.setup_violation_count();

    // The clock tree is globally routed wiring; bank enables are local.
    sim::PowerReport p = sim::estimate_power(sim, tech, tree.nets, tree.nets);
    res.sync_power_mw = p.total_mw;
    res.sync_clock_power_mw = p.clock_network_mw;
  }

  // ---------------------------------------------------------------- desync
  std::map<std::string, std::vector<V>> desync_stream;
  {
    flow::DesyncResult dr =
        flow::desynchronize(ff_netlist, clock, tech, opt.desync);
    res.desync_cells = dr.netlist.num_live_cells();
    res.banks = dr.cg.num_banks();
    res.controller_cells = dr.ctrl.cells.size() - dr.ctrl.delay_units;
    res.delay_cells = dr.ctrl.delay_units;
    res.predicted_period =
        pn::max_cycle_ratio(flow::timed_control_model(dr, tech)).ratio;
    sim::Simulator sim(dr.netlist, tech);

    std::vector<Ps> round_times;  // capture times of the first master bank
    size_t master_banks = 0;
    uint64_t captures = 0;
    uint64_t min_needed = 0;
    std::vector<uint64_t> bank_captures(dr.banks.banks.size(), 0);

    for (size_t i = 0; i < dr.banks.banks.size(); ++i) {
      const flow::Bank& bank = dr.banks.banks[i];
      if (!bank.even || bank.latches.empty()) continue;
      // Group taps by the latch's actual EN net: high-fanout enables get a
      // buffered distribution tree, so the latch captures at its *leaf*
      // enable, insertion-delay after the bank root — on a wide bank the D
      // pin can legitimately change in between (mirrors the sync side's
      // per-clock-leaf sampling).
      std::map<uint32_t, std::vector<Tap>> by_en;
      for (nl::CellId c : bank.latches) {
        std::string name = dr.netlist.cell(c).name;
        // FF masters are named "<ff>.m"; other even-bank latches (RAM
        // write-port holds, "<ram>.m_p<i>") have no FF counterpart.
        if (name.size() <= 2 || name.substr(name.size() - 2) != ".m") continue;
        by_en[dr.netlist.cell(c).ins[1].value()].push_back(
            Tap{name.substr(0, name.size() - 2), dr.netlist.cell(c).ins[0]});
      }
      if (by_en.empty()) continue;
      ++master_banks;
      bool first_bank = master_banks == 1;
      // Round accounting and progress detection stay on the bank root (one
      // event per capture, before any tree delay).
      sim.watch(dr.enable(static_cast<int>(i)),
                [&captures, &bank_captures, i, &round_times,
                 first_bank](Ps at, V v) {
                  if (v != V::V0) return;
                  ++captures;
                  ++bank_captures[i];
                  if (first_bank) round_times.push_back(at);
                });
      for (auto& [en, taps] : by_en) {
        sim.watch(nl::NetId(en),
                  [&sim, &desync_stream, taps](Ps, V v) {
                    if (v != V::V0) return;
                    for (const Tap& t : taps) {
                      desync_stream[t.name].push_back(sim.value(t.d));
                    }
                  });
      }
    }
    min_needed = master_banks * static_cast<uint64_t>(rounds + 1);

    // The environment publishes vectors where the matched-delay model puts
    // the env bank's data launch. Under Pulse ([O+ O- E+ E-]) that is the
    // pulse itself: vectors change on the enable's falling edge, and the
    // environment's first close precedes the masters' first capture, which
    // must see vector 0. Under the synchronous order ([E- O+ O- E+]) the
    // masters capture first — vector 0 is applied at reset (as the sync
    // testbench does) and the environment's k-th *opening* publishes
    // vector k+1: the opening is the a+ launch event the a+ -> b- matched
    // delays are sized from, and the b- -> a+ arcs guarantee every
    // consumer captured vector k before it.
    const bool pulse_env = dr.protocol == ctl::Protocol::Pulse;
    apply_vector(sim, dr.netlist, clock, stim, 0);
    int dround = pulse_env ? 0 : 1;
    sim.watch(dr.env_src_enable(), [&](Ps, V v) {
      if (v == (pulse_env ? V::V0 : V::V1)) {
        apply_vector(sim, dr.netlist, clock, stim, dround);
        ++dround;
      }
    });

    Ps t = 0;
    while (captures < min_needed) {
      uint64_t before = captures;
      t += opt.round_timeout;
      sim.run_until(t);
      if (captures == before) {
        res.mismatch =
            cat("desynchronized circuit made no progress (deadlock?) after ",
                captures, " captures at t=", sim.now(), "ps");
        return res;
      }
    }
    // Flush: the leaf-enable captures of the last round trail the root
    // event by the distribution tree's insertion delay.
    sim.run_until(sim.now() + 100'000);
    res.desync_setup_violations = sim.setup_violation_count();
    if (round_times.size() >= 2) {
      res.desync_period =
          static_cast<double>(round_times.back() - round_times.front()) /
          static_cast<double>(round_times.size() - 1);
    }
    sim::PowerReport p = sim::estimate_power(sim, tech, dr.ctrl.control_nets);
    res.desync_power_mw = p.total_mw;
    res.desync_ctl_power_mw = p.clock_network_mw;
  }

  // --------------------------------------------------------------- compare
  res.registers_compared = sync_stream.size();
  if (sync_stream.size() != desync_stream.size()) {
    res.mismatch = cat("register count differs: sync=", sync_stream.size(),
                       " desync=", desync_stream.size());
    return res;
  }
  for (const auto& [name, svals] : sync_stream) {
    auto it = desync_stream.find(name);
    if (it == desync_stream.end()) {
      res.mismatch = cat("register ", name, " missing in desync streams");
      return res;
    }
    const auto& dvals = it->second;
    for (int k = 0; k < rounds; ++k) {
      if (static_cast<size_t>(k) >= svals.size() ||
          static_cast<size_t>(k) >= dvals.size()) {
        res.mismatch = cat("register ", name, " has too few captures (sync=",
                           svals.size(), ", desync=", dvals.size(), ")");
        return res;
      }
      if (svals[static_cast<size_t>(k)] != dvals[static_cast<size_t>(k)]) {
        res.mismatch = cat("register ", name, " differs at round ", k,
                           ": sync=", cell::to_char(svals[static_cast<size_t>(k)]),
                           " desync=", cell::to_char(dvals[static_cast<size_t>(k)]));
        return res;
      }
      ++res.captures_compared;
    }
  }
  res.equivalent = true;
  return res;
}

}  // namespace desyn::verif

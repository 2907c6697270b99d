#include "verif/flow_equivalence.h"

#include <algorithm>
#include <map>
#include <string_view>

#include "core/clocktree.h"
#include "flow/engine.h"
#include "pn/mcr.h"
#include "sim/power.h"
#include "sim/sim.h"
#include "sta/sta.h"

namespace desyn::verif {

using cell::V;

namespace {

/// Start-up captures of the first master bank skipped before the
/// steady-state period window.
constexpr size_t kWarmupRounds = 8;
/// Captures of the first master bank the measured period averages over.
constexpr size_t kPeriodRounds = 32;
/// Sync clock period factor over the STA minimum.
constexpr double kClockMargin = 1.10;

struct Tap {
  size_t reg;   // row in Registers
  nl::NetId d;  // data net sampled at capture
};

/// FF master latches are named "<ff>.m"; returns "<ff>", or an empty view
/// for any other latch (RAM write-port holds, "<ram>.m_p<i>", have no FF
/// counterpart).
std::string_view master_of(std::string_view latch) {
  if (latch.size() <= 2 || !latch.ends_with(".m")) return {};
  return latch.substr(0, latch.size() - 2);
}

/// Every register name either side can capture, in name order, with its
/// sync and desync capture streams. Taps resolve their row once, when the
/// watchers are set up; a capture is then one push_back. A row whose
/// stream stays empty is a register that side never captured.
struct Registers {
  std::vector<std::string_view> names;
  std::vector<std::vector<V>> sync, desync;

  Registers(const nl::Netlist& ff_netlist, const flow::DesyncResult& dr,
            size_t reserve) {
    for (nl::CellId c : ff_netlist.cells()) {
      const nl::CellData& cd = ff_netlist.cell(c);
      if (cd.kind == cell::Kind::Dff) names.push_back(cd.name);
    }
    for (const flow::Bank& bank : dr.banks.banks) {
      if (!bank.even) continue;
      for (nl::CellId c : bank.latches) {
        const std::string_view ff = master_of(dr.netlist.cell(c).name);
        if (!ff.empty()) names.push_back(ff);
      }
    }
    std::sort(names.begin(), names.end());
    names.erase(std::unique(names.begin(), names.end()), names.end());
    sync.resize(names.size());
    desync.resize(names.size());
    for (size_t r = 0; r < names.size(); ++r) {
      sync[r].reserve(reserve);
      desync[r].reserve(reserve);
    }
  }

  size_t row(std::string_view name) const {
    return static_cast<size_t>(
        std::lower_bound(names.begin(), names.end(), name) - names.begin());
  }
};

/// Data-independent setup check under the simulated enable schedule. The
/// simulator's own check sees only the paths the stimulus toggles within
/// the horizon. This one charges every bank closing edge with the STA
/// worst-case arrival (flow::BankTiming) from each source bank's latest
/// opening and from the latest input vector, so a matched delay too short
/// for a path the stimulus reaches only late is caught in the first
/// rounds. Each latch launches and captures at its own enable-tree
/// insertion delay. RAM macros are left to the simulated check.
class WorstCaseSetup {
 public:
  /// Watches every bank enable of `sim`, which simulates dr.netlist.
  WorstCaseSetup(const flow::DesyncResult& dr, nl::NetId clock,
                 const cell::Tech& tech, sim::Simulator& sim);
  WorstCaseSetup(const WorstCaseSetup&) = delete;  // watchers hold `this`
  WorstCaseSetup& operator=(const WorstCaseSetup&) = delete;
  /// The testbench applied an input vector at `at`.
  void vector_applied(Ps at) { open_.back() = at; }
  /// Closing edges that missed setup, counted once per source.
  uint64_t violations() const { return violations_; }

 private:
  struct Pred {
    size_t src;  // source bank; preds_.size() stands for the inputs
    Ps worst;    // worst arrival after the source's opening, less the
                 // capturing latch's own insertion delay
  };
  std::vector<std::vector<Pred>> preds_;  // per capturing bank
  std::vector<Ps> open_;  // latest opening per bank, then the inputs
  Ps setup_;
  uint64_t violations_ = 0;
};

WorstCaseSetup::WorstCaseSetup(const flow::DesyncResult& dr, nl::NetId clock,
                               const cell::Tech& tech, sim::Simulator& sim)
    : preds_(dr.banks.banks.size()),
      open_(dr.banks.banks.size() + 1, -1),
      setup_(tech.latch_setup()) {
  const nl::Netlist& nl = dr.netlist;
  const size_t nbanks = dr.banks.banks.size();

  // Insertion delay of every net of a bank's enable tree (buffers only),
  // then of every latch's enable pin; RAM cells keep -1 and take no part.
  std::vector<Ps> net_ins(nl.num_nets(), -1);
  std::vector<nl::NetId> stack;
  for (size_t b = 0; b < nbanks; ++b) {
    const nl::NetId en = dr.enable(static_cast<int>(b));
    net_ins[en.value()] = 0;
    stack.push_back(en);
    while (!stack.empty()) {
      const nl::NetId n = stack.back();
      stack.pop_back();
      for (const nl::Pin& p : nl.net(n).fanout) {
        const nl::CellData& cd = nl.cell(p.cell);
        if (cd.kind != cell::Kind::Buf) continue;
        net_ins[cd.outs[0].value()] = net_ins[n.value()] + sim.delay(p.cell);
        stack.push_back(cd.outs[0]);
      }
    }
  }
  std::vector<Ps> cell_ins(nl.num_cells(), -1);
  for (const flow::Bank& b : dr.banks.banks) {
    for (nl::CellId c : b.latches) {
      cell_ins[c.value()] = net_ins[nl.cell(c).ins[1].value()];
    }
  }

  flow::BankTiming timing(nl, dr.banks, tech, std::move(cell_ins));
  for (size_t s = 0; s < nbanks; ++s) {
    for (auto [d, worst] : timing.from_bank(s).banks) {
      preds_[static_cast<size_t>(d)].push_back({s, worst});
    }
  }
  for (auto [d, worst] : timing.from_inputs(clock).banks) {
    preds_[static_cast<size_t>(d)].push_back({nbanks, worst});
  }

  for (size_t b = 0; b < nbanks; ++b) {
    sim.watch(dr.enable(static_cast<int>(b)), [this, b](Ps at, V v) {
      if (v == V::V1) {
        open_[b] = at;
        return;
      }
      if (v != V::V0 || open_[b] < 0) return;  // not a closing edge
      for (const Pred& p : preds_[b]) {
        // A source opening at the closing instant launches the next token.
        const Ps o = open_[p.src];
        if (o >= 0 && o < at && o + p.worst + setup_ > at) ++violations_;
      }
    });
  }
}

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
  // Prove the engine's cached result in place; the shared_ptr keeps it
  // alive should the cache evict it meanwhile.
  const std::shared_ptr<const flow::DesyncResult> dr =
      flow::Engine::process(tech).desynchronize(ff_netlist, clock,
                                                opt.desync);
  return check_flow_equivalence(ff_netlist, clock, stim, tech, *dr, opt);
}

FlowEqResult check_flow_equivalence(const nl::Netlist& ff_netlist,
                                    nl::NetId clock, const Stimulus& stim,
                                    const cell::Tech& tech,
                                    const flow::DesyncResult& dr,
                                    const FlowEqOptions& opt) {
  FlowEqResult res;
  const int rounds = opt.rounds;
  // Each side captures about `rounds + 2` values per register.
  Registers regs(ff_netlist, dr, static_cast<size_t>(rounds) + 3);

  // ------------------------------------------------------------------ sync
  {
    nl::Netlist snl = ff_netlist;
    flow::ClockTree tree = flow::build_clock_tree(snl, clock, tech);
    res.sync_cells = snl.num_live_cells();

    sta::Sta sta(ff_netlist, tech);
    Ps period = static_cast<Ps>(
        static_cast<double>(sta.min_clock_period().min_period) *
        kClockMargin);
    period += period % 2;  // clock generator needs an even period
    res.sync_period = period;

    sim::Simulator sim(snl, tech);

    // Capture taps grouped by clock leaf: D sampled at the leaf's rise.
    std::map<uint32_t, std::vector<Tap>> by_leaf;
    for (nl::CellId c : snl.cells()) {
      const nl::CellData& cd = snl.cell(c);
      if (cd.kind != cell::Kind::Dff) continue;
      by_leaf[cd.ins[1].value()].push_back(Tap{regs.row(cd.name), cd.ins[0]});
    }
    for (auto& [leaf, taps] : by_leaf) {
      sim.watch(nl::NetId(leaf), [&sim, &regs, taps](Ps, V v) {
        if (v != V::V1) return;
        for (const Tap& t : taps) regs.sync[t.reg].push_back(sim.value(t.d));
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
  {
    res.desync_cells = dr.netlist.num_live_cells();
    res.banks = dr.cg.num_banks();
    res.controller_cells = dr.ctrl.cells.size() - dr.ctrl.delay_units;
    res.delay_cells = dr.ctrl.delay_units;
    res.predicted_period =
        pn::max_cycle_ratio(flow::timed_control_model(dr, tech)).ratio;
    sim::Simulator sim(dr.netlist, tech);

    std::vector<Ps> round_times;  // capture times of the first master bank
    // Captures per leaf-enable tap group, and how many groups reached the
    // `rounds + 1` the comparison needs.
    const uint64_t needed = static_cast<uint64_t>(rounds) + 1;
    const size_t window_end = kWarmupRounds + kPeriodRounds;
    std::vector<uint64_t> leaf_captures;
    size_t leaves_done = 0;
    // Latest capture that still counted toward the stop condition; the
    // watchdog measures progress from it.
    Ps last_progress = 0;

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
        const nl::CellData& cd = dr.netlist.cell(c);
        const std::string_view ff = master_of(cd.name);
        if (ff.empty()) continue;
        by_en[cd.ins[1].value()].push_back(Tap{regs.row(ff), cd.ins[0]});
      }
      if (by_en.empty()) continue;
      if (leaf_captures.empty()) {
        // Round timing stays on the first master bank's root (one event
        // per capture, before any tree delay).
        sim.watch(dr.enable(static_cast<int>(i)),
                  [&round_times, &last_progress, window_end](Ps at, V v) {
                    if (v != V::V0) return;
                    if (round_times.size() <= window_end) last_progress = at;
                    round_times.push_back(at);
                  });
      }
      for (auto& [en, taps] : by_en) {
        const size_t leaf = leaf_captures.size();
        leaf_captures.push_back(0);
        sim.watch(nl::NetId(en),
                  [&sim, &regs, &leaf_captures, &leaves_done,
                   &last_progress, leaf, needed, taps](Ps at, V v) {
                    if (v != V::V0) return;
                    for (const Tap& t : taps) {
                      regs.desync[t.reg].push_back(sim.value(t.d));
                    }
                    if (leaf_captures[leaf] < needed) last_progress = at;
                    if (++leaf_captures[leaf] == needed) ++leaves_done;
                  });
      }
    }
    WorstCaseSetup worst_case(dr, clock, tech, sim);

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
    worst_case.vector_applied(sim.now());
    int dround = pulse_env ? 0 : 1;
    sim.watch(dr.env_src_enable(), [&](Ps at, V v) {
      if (v == (pulse_env ? V::V0 : V::V1)) {
        apply_vector(sim, dr.netlist, clock, stim, dround);
        worst_case.vector_applied(at);
        ++dround;
      }
    });

    // Advance one predicted period at a time until the proof has every
    // capture it compares and the period window is complete.
    const Ps step = std::max<Ps>(1, static_cast<Ps>(res.predicted_period));
    while (!leaf_captures.empty() &&
           (leaves_done < leaf_captures.size() ||
            round_times.size() <= window_end)) {
      sim.run_until(sim.now() + step);
      if (sim.now() - last_progress >= opt.round_timeout) {
        res.mismatch =
            cat("desynchronized circuit made no progress (deadlock?): no "
                "counted master capture since t=", last_progress,
                "ps, now t=", sim.now(), "ps");
        return res;
      }
    }
    res.desync_setup_violations =
        sim.setup_violation_count() + worst_case.violations();
    if (round_times.size() > window_end) {
      res.desync_period =
          static_cast<double>(round_times[window_end] -
                              round_times[kWarmupRounds]) /
          static_cast<double>(kPeriodRounds);
    }
    sim::PowerReport p = sim::estimate_power(sim, tech, dr.ctrl.control_nets);
    res.desync_power_mw = p.total_mw;
    res.desync_ctl_power_mw = p.clock_network_mw;
  }

  // --------------------------------------------------------------- compare
  // Registers that captured at least once, per side.
  size_t sync_regs = 0, desync_regs = 0;
  for (size_t r = 0; r < regs.names.size(); ++r) {
    sync_regs += !regs.sync[r].empty();
    desync_regs += !regs.desync[r].empty();
  }
  res.registers_compared = sync_regs;
  if (sync_regs != desync_regs) {
    res.mismatch = cat("register count differs: sync=", sync_regs,
                       " desync=", desync_regs);
    return res;
  }
  for (size_t r = 0; r < regs.names.size(); ++r) {
    const std::vector<V>& svals = regs.sync[r];
    const std::vector<V>& dvals = regs.desync[r];
    if (svals.empty()) continue;
    const std::string_view name = regs.names[r];
    if (dvals.empty()) {
      res.mismatch = cat("register ", name, " missing in desync streams");
      return res;
    }
    for (int k = 0; k < rounds; ++k) {
      const size_t i = static_cast<size_t>(k);
      if (i >= svals.size() || i >= dvals.size()) {
        res.mismatch = cat("register ", name, " has too few captures (sync=",
                           svals.size(), ", desync=", dvals.size(), ")");
        return res;
      }
      if (svals[i] != dvals[i]) {
        res.mismatch = cat("register ", name, " differs at round ", k,
                           ": sync=", cell::to_char(svals[i]),
                           " desync=", cell::to_char(dvals[i]));
        return res;
      }
      ++res.captures_compared;
    }
  }
  res.equivalent = true;
  return res;
}

}  // namespace desyn::verif

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
  uint32_t reg;  // row in the register table
  nl::NetId d;   // data net sampled at capture
};

/// The taps that capture on one net's edge.
struct TapGroup {
  nl::NetId net;
  std::vector<Tap> taps;
};

/// FF master latches are named "<ff>.m"; returns "<ff>", or an empty view
/// for any other latch (RAM write-port holds, "<ram>.m_p<i>", have no FF
/// counterpart).
std::string_view master_of(std::string_view latch) {
  if (latch.size() <= 2 || !latch.ends_with(".m")) return {};
  return latch.substr(0, latch.size() - 2);
}

/// The per-design half of a proof's set-up: the clocked reference of one
/// flip-flop netlist. Never moved once built (the image and the names
/// point into `netlist`), so it lives behind a shared_ptr.
struct SyncReference : flow::Artifact {
  nl::Netlist netlist;  ///< the flip-flop netlist with its clock tree
  nl::NetId clock;
  std::vector<nl::NetId> inputs;     ///< stimulus inputs (all but the clock)
  std::vector<nl::NetId> tree_nets;  ///< the clock network, for power
  Ps period = 0;                     ///< margined STA period, even
  std::shared_ptr<const sim::Compiled> image;
  std::vector<std::string_view> dffs;  ///< flip-flop names in cell order
  /// DFF taps by clock leaf (net id order); Tap::reg indexes `dffs`.
  std::vector<TapGroup> leaves;

  SyncReference(const nl::Netlist& ff, nl::NetId ff_clock,
                const cell::Tech& tech)
      : netlist(ff), clock(ff_clock) {
    tree_nets = flow::build_clock_tree(netlist, clock, tech).nets;
    for (nl::NetId in : netlist.inputs()) {
      if (in != clock) inputs.push_back(in);
    }
    const sta::Sta sta(ff, tech);
    period = static_cast<Ps>(
        static_cast<double>(sta.min_clock_period().min_period) *
        kClockMargin);
    period += period % 2;  // clock generator needs an even period
    image = sim::compile(netlist, tech);
    // Capture taps grouped by clock leaf: D sampled at the leaf's rise.
    std::map<uint32_t, std::vector<Tap>> by_leaf;
    for (nl::CellId c : netlist.cells()) {
      const nl::CellData& cd = netlist.cell(c);
      if (cd.kind != cell::Kind::Dff) continue;
      const auto reg = static_cast<uint32_t>(dffs.size());
      dffs.push_back(cd.name);
      by_leaf[cd.ins[1].value()].push_back(Tap{reg, cd.ins[0]});
    }
    for (auto& [leaf, taps] : by_leaf) {
      leaves.push_back({nl::NetId(leaf), std::move(taps)});
    }
  }
};

/// A source of a capturing bank in the worst-case setup check.
struct Pred {
  size_t src;  // source bank; the bank count stands for the inputs
  Ps worst;    // worst arrival after the source's opening, less the
               // capturing latch's own insertion delay
};

/// The data-independent half of the worst-case setup check (see
/// WorstCaseSetup): per capturing bank, the STA worst-case arrival from
/// each source bank's opening and from the inputs.
std::vector<std::vector<Pred>> worst_case_preds(const flow::DesyncResult& dr,
                                                nl::NetId clock,
                                                const cell::Tech& tech,
                                                const sim::Compiled& image) {
  std::vector<std::vector<Pred>> preds(dr.banks.banks.size());
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
        net_ins[cd.outs[0].value()] = net_ins[n.value()] + image.delay(p.cell);
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
      preds[static_cast<size_t>(d)].push_back({s, worst});
    }
  }
  for (auto [d, worst] : timing.from_inputs(clock).banks) {
    preds[static_cast<size_t>(d)].push_back({nbanks, worst});
  }
  return preds;
}

/// The per-coordinate half of a proof's set-up: the desynchronized side,
/// and the register table joining it to the design's sync reference.
struct ProofSetup : flow::Artifact {
  std::shared_ptr<const SyncReference> sync;
  std::shared_ptr<const flow::DesyncResult> dr;
  /// Every register name either side can capture, in name order (views
  /// into the two netlists). A capture stream is a row of this table.
  std::vector<std::string_view> names;
  std::vector<TapGroup> sync_taps;  ///< sync->leaves with rows resolved
  std::shared_ptr<const sim::Compiled> image;
  std::vector<nl::NetId> inputs;  ///< sync->inputs, by name in dr->netlist
  /// Root enable of the first master bank: the round timer's net.
  nl::NetId round_enable;
  /// Master taps by leaf enable, bank by bank: high-fanout enables get a
  /// buffered distribution tree, so a latch captures at its *leaf*
  /// enable, insertion-delay after the bank root — on a wide bank the D
  /// pin can legitimately change in between (mirrors the sync side's
  /// per-clock-leaf sampling).
  std::vector<TapGroup> leaf_taps;
  std::vector<std::vector<Pred>> worst_preds;  ///< see worst_case_preds
  double predicted_period = 0;

  ProofSetup(std::shared_ptr<const SyncReference> s,
             std::shared_ptr<const flow::DesyncResult> d,
             const cell::Tech& tech);

  uint32_t row(std::string_view name) const {
    return static_cast<uint32_t>(
        std::lower_bound(names.begin(), names.end(), name) - names.begin());
  }
};

ProofSetup::ProofSetup(std::shared_ptr<const SyncReference> s,
                       std::shared_ptr<const flow::DesyncResult> d,
                       const cell::Tech& tech)
    : sync(std::move(s)), dr(std::move(d)) {
  const nl::Netlist& dnl = dr->netlist;
  names = sync->dffs;
  for (const flow::Bank& bank : dr->banks.banks) {
    if (!bank.even) continue;
    for (nl::CellId c : bank.latches) {
      const std::string_view ff = master_of(dnl.cell(c).name);
      if (!ff.empty()) names.push_back(ff);
    }
  }
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());

  for (const TapGroup& g : sync->leaves) {
    TapGroup& r = sync_taps.emplace_back(TapGroup{g.net, g.taps});
    for (Tap& t : r.taps) t.reg = row(sync->dffs[t.reg]);
  }

  // Both sides bind vector index i to the same-named input.
  for (nl::NetId in : sync->inputs) {
    inputs.push_back(dnl.find_net(sync->netlist.net(in).name));
    DESYN_ASSERT(dnl.is_primary_input(inputs.back()));
  }
  DESYN_ASSERT(inputs.size() + 1 == dnl.inputs().size());
  image = sim::compile(dnl, tech);
  for (size_t i = 0; i < dr->banks.banks.size(); ++i) {
    const flow::Bank& bank = dr->banks.banks[i];
    if (!bank.even || bank.latches.empty()) continue;
    std::map<uint32_t, std::vector<Tap>> by_en;
    for (nl::CellId c : bank.latches) {
      const nl::CellData& cd = dnl.cell(c);
      const std::string_view ff = master_of(cd.name);
      if (ff.empty()) continue;
      by_en[cd.ins[1].value()].push_back(Tap{row(ff), cd.ins[0]});
    }
    if (by_en.empty()) continue;
    if (!round_enable.valid()) round_enable = dr->enable(static_cast<int>(i));
    for (auto& [en, taps] : by_en) {
      leaf_taps.push_back({nl::NetId(en), std::move(taps)});
    }
  }
  worst_preds = worst_case_preds(
      *dr, dnl.find_net(sync->netlist.net(sync->clock).name), tech, *image);
  predicted_period =
      pn::max_cycle_ratio(flow::timed_control_model(*dr, tech)).ratio;
}

/// One side's capture streams: the first `rounds` values each register
/// captured (row-major, one row per register) and how many it captured
/// in all. A capture is one store; a row whose count stays 0 is a
/// register that side never captured.
class Streams {
 public:
  Streams(size_t regs, size_t rounds)
      : rounds_(rounds), vals_(regs * rounds), count_(regs, 0) {}
  void push(size_t reg, V v) {
    if (count_[reg] < rounds_) vals_[reg * rounds_ + count_[reg]] = v;
    ++count_[reg];
  }
  size_t count(size_t reg) const { return count_[reg]; }
  V at(size_t reg, size_t k) const { return vals_[reg * rounds_ + k]; }

 private:
  size_t rounds_;
  std::vector<V> vals_;
  std::vector<size_t> count_;
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
  WorstCaseSetup(const std::vector<std::vector<Pred>>& preds,
                 const flow::DesyncResult& dr, const cell::Tech& tech,
                 sim::Simulator& sim);
  WorstCaseSetup(const WorstCaseSetup&) = delete;  // watchers hold `this`
  WorstCaseSetup& operator=(const WorstCaseSetup&) = delete;
  /// The testbench applied an input vector at `at`.
  void vector_applied(Ps at) { open_.back() = at; }
  /// Closing edges that missed setup, counted once per source.
  uint64_t violations() const { return violations_; }

 private:
  std::vector<Ps> open_;  // latest opening per bank, then the inputs
  uint64_t violations_ = 0;
};

WorstCaseSetup::WorstCaseSetup(const std::vector<std::vector<Pred>>& preds,
                               const flow::DesyncResult& dr,
                               const cell::Tech& tech, sim::Simulator& sim)
    : open_(dr.banks.banks.size() + 1, -1) {
  const Ps setup = tech.latch_setup();
  for (size_t b = 0; b < preds.size(); ++b) {
    sim.watch(dr.enable(static_cast<int>(b)),
              [this, b, setup, &srcs = preds[b]](Ps at, V v) {
                if (v == V::V1) {
                  open_[b] = at;
                  return;
                }
                if (v != V::V0 || open_[b] < 0) return;  // not a closing edge
                for (const Pred& p : srcs) {
                  // A source opening at the closing instant launches the
                  // next token.
                  const Ps o = open_[p.src];
                  if (o >= 0 && o < at && o + p.worst + setup > at) {
                    ++violations_;
                  }
                }
              });
  }
}

/// Apply stimulus vector `round`: input i takes stim(round, i).
void apply_vector(sim::Simulator& sim, const std::vector<nl::NetId>& inputs,
                  const Stimulus& stim, int round) {
  for (size_t i = 0; i < inputs.size(); ++i) {
    sim.set_input(inputs[i], stim(round, i), sim.now());
  }
}

/// The proof proper: both simulations and the stream comparison. Reads
/// `setup` only, so a cached set-up makes a proof cost its two runs.
FlowEqResult prove(const ProofSetup& setup, const Stimulus& stim,
                   const cell::Tech& tech, const FlowEqOptions& opt) {
  const SyncReference& sref = *setup.sync;
  const flow::DesyncResult& dr = *setup.dr;
  FlowEqResult res;
  const int rounds = opt.rounds;
  const size_t nregs = setup.names.size();
  Streams sync_streams(nregs, static_cast<size_t>(rounds));
  Streams desync_streams(nregs, static_cast<size_t>(rounds));

  // ------------------------------------------------------------------ sync
  {
    res.sync_cells = sref.netlist.num_live_cells();
    const Ps period = sref.period;
    res.sync_period = period;
    sim::Simulator sim(sref.image);

    for (const TapGroup& g : setup.sync_taps) {
      sim.watch(g.net, [&sim, &sync_streams, &taps = g.taps](Ps, V v) {
        if (v != V::V1) return;
        for (const Tap& t : taps) sync_streams.push(t.reg, sim.value(t.d));
      });
    }
    apply_vector(sim, sref.inputs, stim, 0);
    int round = 0;
    sim.watch(sref.clock, [&](Ps at, V v) {
      // New vector mid-cycle (falling edge): safely after the capture edge
      // reached every leaf, and a half period before the next one. The
      // initial X->0 reset assignment at t=0 is not a falling edge.
      if (v == V::V0 && at > 0 && round <= rounds + 2) {
        ++round;
        apply_vector(sim, sref.inputs, stim, round);
      }
    });
    sim.add_clock(sref.clock, period, period / 2);
    sim.run_until(period * (rounds + 2));
    res.sync_setup_violations = sim.setup_violation_count();

    // The clock tree is globally routed wiring; bank enables are local.
    sim::PowerReport p =
        sim::estimate_power(sim, tech, sref.tree_nets, sref.tree_nets);
    res.sync_power_mw = p.total_mw;
    res.sync_clock_power_mw = p.clock_network_mw;
  }

  // ---------------------------------------------------------------- desync
  {
    res.desync_cells = dr.netlist.num_live_cells();
    res.banks = dr.cg.num_banks();
    res.controller_cells = dr.ctrl.cells.size() - dr.ctrl.delay_units;
    res.delay_cells = dr.ctrl.delay_units;
    res.predicted_period = setup.predicted_period;
    sim::Simulator sim(setup.image);

    std::vector<Ps> round_times;  // capture times of the first master bank
    // Captures per leaf-enable tap group, and how many groups reached the
    // `rounds + 1` the comparison needs.
    const uint64_t needed = static_cast<uint64_t>(rounds) + 1;
    const size_t window_end = kWarmupRounds + kPeriodRounds;
    std::vector<uint64_t> leaf_captures(setup.leaf_taps.size(), 0);
    size_t leaves_done = 0;
    // Latest capture that still counted toward the stop condition; the
    // watchdog measures progress from it.
    Ps last_progress = 0;

    if (setup.round_enable.valid()) {
      // Round timing stays on the first master bank's root (one event per
      // capture, before any tree delay).
      sim.watch(setup.round_enable,
                [&round_times, &last_progress, window_end](Ps at, V v) {
                  if (v != V::V0) return;
                  if (round_times.size() <= window_end) last_progress = at;
                  round_times.push_back(at);
                });
    }
    for (size_t leaf = 0; leaf < setup.leaf_taps.size(); ++leaf) {
      const TapGroup& g = setup.leaf_taps[leaf];
      sim.watch(g.net, [&sim, &desync_streams, &leaf_captures, &leaves_done,
                        &last_progress, &taps = g.taps, leaf,
                        needed](Ps at, V v) {
        if (v != V::V0) return;
        for (const Tap& t : taps) desync_streams.push(t.reg, sim.value(t.d));
        if (leaf_captures[leaf] < needed) last_progress = at;
        if (++leaf_captures[leaf] == needed) ++leaves_done;
      });
    }
    WorstCaseSetup worst_case(setup.worst_preds, dr, tech, sim);

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
    apply_vector(sim, setup.inputs, stim, 0);
    worst_case.vector_applied(sim.now());
    int dround = pulse_env ? 0 : 1;
    sim.watch(dr.env_src_enable(), [&](Ps at, V v) {
      if (v == (pulse_env ? V::V0 : V::V1)) {
        apply_vector(sim, setup.inputs, stim, dround);
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
  for (size_t r = 0; r < nregs; ++r) {
    sync_regs += sync_streams.count(r) != 0;
    desync_regs += desync_streams.count(r) != 0;
  }
  res.registers_compared = sync_regs;
  if (sync_regs != desync_regs) {
    res.mismatch = cat("register count differs: sync=", sync_regs,
                       " desync=", desync_regs);
    return res;
  }
  for (size_t r = 0; r < nregs; ++r) {
    const size_t ns = sync_streams.count(r);
    const size_t nd = desync_streams.count(r);
    if (ns == 0) continue;
    const std::string_view name = setup.names[r];
    if (nd == 0) {
      res.mismatch = cat("register ", name, " missing in desync streams");
      return res;
    }
    for (int k = 0; k < rounds; ++k) {
      const size_t i = static_cast<size_t>(k);
      if (i >= ns || i >= nd) {
        res.mismatch = cat("register ", name, " has too few captures (sync=",
                           ns, ", desync=", nd, ")");
        return res;
      }
      const V sv = sync_streams.at(r, i);
      const V dv = desync_streams.at(r, i);
      if (sv != dv) {
        res.mismatch = cat("register ", name, " differs at round ", k,
                           ": sync=", cell::to_char(sv),
                           " desync=", cell::to_char(dv));
        return res;
      }
      ++res.captures_compared;
    }
  }
  res.equivalent = true;
  return res;
}

}  // namespace

FlowEqResult check_flow_equivalence(const nl::Netlist& ff_netlist,
                                    nl::NetId clock, const Stimulus& stim,
                                    const cell::Tech& tech,
                                    const FlowEqOptions& opt) {
  // The engine serves the set-up: built by the first proof of this
  // coordinate (its sync reference by the first proof of the design),
  // then shared. It holds the engine's flow result, so it stays valid
  // should the cache evict either meanwhile.
  flow::Engine::ProofBuild build;
  build.sync_ref = [&]() -> flow::ArtifactStore::Ptr {
    return std::make_shared<const SyncReference>(ff_netlist, clock, tech);
  };
  build.setup = [&](flow::ArtifactStore::Ptr sync,
                    std::shared_ptr<const flow::DesyncResult> dr)
      -> flow::ArtifactStore::Ptr {
    return std::make_shared<const ProofSetup>(
        std::static_pointer_cast<const SyncReference>(std::move(sync)),
        std::move(dr), tech);
  };
  const auto setup = std::static_pointer_cast<const ProofSetup>(
      flow::Engine::process(tech).proof_setup(ff_netlist, clock, opt.desync,
                                              build));
  return prove(*setup, stim, tech, opt);
}

FlowEqResult check_flow_equivalence(const nl::Netlist& ff_netlist,
                                    nl::NetId clock, const Stimulus& stim,
                                    const cell::Tech& tech,
                                    const flow::DesyncResult& dr,
                                    const FlowEqOptions& opt) {
  // The same set-up, built fresh and never cached: `dr` is the caller's
  // (typically a mutant), borrowed for the duration of the call.
  const ProofSetup setup(
      std::make_shared<const SyncReference>(ff_netlist, clock, tech),
      std::shared_ptr<const flow::DesyncResult>(std::shared_ptr<void>(), &dr),
      tech);
  return prove(setup, stim, tech, opt);
}

}  // namespace desyn::verif

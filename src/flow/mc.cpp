#include "flow/mc.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "base/parallel.h"
#include "base/rng.h"
#include "ctl/controller.h"
#include "flow/engine.h"
#include "pn/mcr.h"
#include "sta/variation.h"

namespace desyn::flow {

namespace {

/// Safety band (ps) the margin optimizer keeps above the sampled
/// requirement. The optimized flow re-derives the raw data path by
/// de-margining the re-sized matched delays, which can differ from the
/// optimizer's own derivation by a couple of ps of ceil rounding (and, via
/// path re-staging, a few more in the sampled realization); the band keeps
/// every shave decision valid under the re-derived requirement.
constexpr Ps kGuardPs = 8;

// Stream-key derivation: every sampled element owns a distinct 64-bit
// stream, a pure function of what the element *is* (kind, bank, index) —
// never of evaluation order, so reports are byte-identical for any
// --jobs count or loop restructuring.
enum StreamKind : uint64_t {
  kLineCell = 1,  ///< (bank, cell index): one DELAY cell of the bank's line
  kCtrlInv = 2,   ///< (bank): the marking inverter of its controller
  kCtrlCElem = 3, ///< (bank): the C-element of its controller
  kCtrlXor = 4,   ///< (bank): the pulse/enable XOR of its controller
  kPulseBuf = 5,  ///< (bank): the pulse-generator buffer chain
  kDataPath = 6,  ///< (bank): the worst data path it captures
};

uint64_t skey(uint64_t kind, uint64_t a, uint64_t b = 0) {
  return splitmix64(kind * 0x9e3779b97f4a7c15ull +
                    splitmix64(a * 0xbf58476d1ce4e5b9ull + b));
}

/// ctl::hardware_model in batchable form: its arc list (flat MG arc j is
/// arcs[j]) plus the per-bank sizing data the sampler needs, so sample 0
/// (the 1.0 corner) reproduces the nominal predicted period bit-for-bit,
/// and the element table: the prepared draw key
/// (cell::VariationModel::prepare) of every sampled element, derived once
/// per model and read by every sample of the fill and of the margin shaver.
struct Model {
  std::vector<ctl::ProtoArc> arcs;
  pn::McrFlat flat;
  std::vector<int> units;        ///< delay-line cells per destination bank
  std::vector<Ps> raw_required;  ///< de-margined worst path (+setup) per bank
  std::vector<size_t> timed_banks;  ///< banks with a timed incoming edge
  Ps inv = 0, celem = 0, xorg = 0, unit = 0;
  Ps pulse_width = 0;

  /// Bank b's line cell k: line_keys[line_begin[b] + k].
  std::vector<size_t> line_begin;
  std::vector<uint64_t> line_keys;
  /// Per bank: marking inverter, C-element and pulse/enable XOR.
  std::vector<uint64_t> inv_keys, celem_keys, xor_keys;
  /// Bank b's pulse-generator stages: pulse_keys[b * pulse_stages + i].
  size_t pulse_stages = 0;
  std::vector<uint64_t> pulse_keys;
  /// Stage keys of the worst data path bank b captures (timed banks only).
  std::vector<std::vector<uint64_t>> data_keys;

  size_t num_banks() const { return units.size(); }
  std::span<const uint64_t> pulse_keys_of(size_t b) const {
    return std::span(pulse_keys).subspan(b * pulse_stages, pulse_stages);
  }
};

Model build_model(const ctl::ControlGraph& cg, ctl::Protocol p,
                  const cell::Tech& tech, const Margins& margins) {
  ctl::HardwareModel hw = ctl::hardware_model(cg, p, tech);
  Model m;
  m.inv = tech.delay(cell::Kind::Inv, 1, 1);
  m.celem = tech.delay(cell::Kind::CElem, 2, 2);
  m.xorg = tech.delay(cell::Kind::Xor, 2, 1);
  m.unit = tech.delay_unit();
  m.pulse_width = ctl::min_pulse_width(tech);
  m.arcs = std::move(hw.arcs);
  m.units = std::move(hw.line_cells);
  m.flat = pn::flatten(hw.mg);
  DESYN_ASSERT(m.flat.from.size() == m.arcs.size());

  const size_t nb = cg.num_banks();
  m.raw_required.assign(nb, 0);
  for (size_t b = 0; b < nb; ++b) {
    const Ps worst = hw.worst_in[b];
    if (worst > 0) {
      m.timed_banks.push_back(b);
      // worst = ceil(raw * margin), so worst / margin bounds the raw STA
      // requirement from above by < 1 ps — conservative, never optimistic.
      m.raw_required[b] = static_cast<Ps>(std::ceil(
          static_cast<double>(worst) / margins.of(static_cast<int>(b))));
    }
  }

  using VM = cell::VariationModel;
  m.pulse_stages = sta::path_stages(m.pulse_width, m.unit);
  m.line_begin.resize(nb + 1, 0);
  m.data_keys.resize(nb);
  for (size_t b = 0; b < nb; ++b) {
    m.line_begin[b + 1] = m.line_begin[b] + static_cast<size_t>(m.units[b]);
    for (int k = 0; k < m.units[b]; ++k) {
      m.line_keys.push_back(
          VM::prepare(skey(kLineCell, b, static_cast<uint64_t>(k))));
    }
    m.inv_keys.push_back(VM::prepare(skey(kCtrlInv, b)));
    m.celem_keys.push_back(VM::prepare(skey(kCtrlCElem, b)));
    m.xor_keys.push_back(VM::prepare(skey(kCtrlXor, b)));
    const std::vector<uint64_t> pulse =
        sta::path_stage_keys(skey(kPulseBuf, b), m.pulse_stages);
    m.pulse_keys.insert(m.pulse_keys.end(), pulse.begin(), pulse.end());
  }
  for (size_t b : m.timed_banks) {
    m.data_keys[b] = sta::path_stage_keys(
        skey(kDataPath, b), sta::path_stages(m.raw_required[b], m.unit));
  }
  return m;
}

/// A sampled gate delay: each physical gate rounds to whole ps
/// independently, like every hardware delay in the simulator.
Ps gate(Ps nominal, const cell::VariationModel& vm, uint64_t key, size_t s) {
  return static_cast<Ps>(std::llround(static_cast<double>(nominal) *
                                      vm.factor_prepared(key, s)));
}

/// The first `cells` DELAY cells of bank `b`'s matched line.
Ps line_total(const Model& m, const cell::VariationModel& vm, size_t b,
              int cells, size_t s) {
  const uint64_t* keys = m.line_keys.data() + m.line_begin[b];
  Ps sum = 0;
  for (int k = 0; k < cells; ++k) sum += gate(m.unit, vm, keys[k], s);
  return sum;
}

/// Sampled controller response (marking inverter + C-element) of bank `b`.
Ps ctrl_response(const Model& m, const cell::VariationModel& vm, size_t b,
                 size_t s) {
  return gate(m.inv, vm, m.inv_keys[b], s) +
         gate(m.celem, vm, m.celem_keys[b], s);
}

/// Sampled response *credit* (inverter + C-element + pulse XOR) given the
/// bank's sampled response `ctrl`: the control stages a request traverses
/// before the capture edge, credited against the matched line exactly as
/// controller_response_credit is.
Ps credit_sample(const Model& m, const cell::VariationModel& vm, size_t b,
                 Ps ctrl, size_t s) {
  return ctrl + gate(m.xorg, vm, m.xor_keys[b], s);
}

McStats stats_of(std::vector<double> v) {
  McStats st;
  if (v.empty()) return st;
  std::sort(v.begin(), v.end());
  auto pct = [&](double p) {
    const double idx = p * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(idx);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    const double t = idx - static_cast<double>(lo);
    return v[lo] * (1 - t) + v[hi] * t;
  };
  st.p50 = pct(0.5);
  st.p95 = pct(0.95);
  st.min = v.front();
  st.max = v.back();
  return st;
}

/// The Monte-Carlo sweep of a built model. The samples x arcs delay matrix
/// and the per-sample slack scan are filled on `jobs` workers over the batch
/// solver's kBlock sample blocks; each block writes only its own rows,
/// slacks and violation flags, and every draw is a pure function of
/// (seed, element, sample), so the report is byte-identical at any `jobs`.
McReport analyse(const Model& m, const cell::VariationModel& vm,
                 size_t statistical, int jobs) {
  const size_t S = vm.total_samples(statistical);
  const size_t nb = m.num_banks();
  const size_t na = m.arcs.size();
  DESYN_ASSERT(S > 0);

  McReport rep;
  rep.samples = S;
  rep.corner_samples = vm.corners.size();
  rep.mcr_arcs = na;
  rep.periods.resize(S);
  rep.min_slacks.resize(S);

  std::vector<Ps> delays(S * na);
  std::vector<uint8_t> violating(S, 0);
  constexpr size_t kBlock = pn::McrBatch::kBlock;
  parallel_for((S + kBlock - 1) / kBlock, jobs, [&](size_t block) {
    std::vector<Ps> line(nb), ctrl(nb), pulse(nb);
    for (size_t s = block * kBlock; s < std::min(S, (block + 1) * kBlock);
         ++s) {
      for (size_t b = 0; b < nb; ++b) {
        line[b] = line_total(m, vm, b, m.units[b], s);
        ctrl[b] = ctrl_response(m, vm, b, s);
        // The pulse generator is a buffer chain; sample it as the staged
        // path it is (3 stages at the nominal minimum width).
        pulse[b] = sta::sample_path_delay(m.pulse_width, m.unit, vm,
                                          m.pulse_keys_of(b), s);
      }
      const std::span<Ps> row(delays.data() + s * na, na);
      for (size_t j = 0; j < na; ++j) {
        const ctl::ProtoArc& a = m.arcs[j];
        const size_t to = static_cast<size_t>(a.to);
        row[j] = ctl::arc_delay(ctl::arc_timing(a), line[to], ctrl[to],
                                pulse[static_cast<size_t>(a.from)]);
      }
      double worst_slack = std::numeric_limits<double>::infinity();
      for (size_t b : m.timed_banks) {
        const Ps avail = line[b] + credit_sample(m, vm, b, ctrl[b], s);
        // The sampled realization of the worst data path it captures.
        const Ps req = sta::sample_path_delay(m.raw_required[b], m.unit, vm,
                                              m.data_keys[b], s);
        const double slack = static_cast<double>(avail - req);
        worst_slack = std::min(worst_slack, slack);
        if (slack < 0) violating[s] = 1;
      }
      rep.min_slacks[s] = m.timed_banks.empty() ? 0.0 : worst_slack;
    }
  });
  rep.violation_samples = static_cast<size_t>(
      std::count(violating.begin(), violating.end(), uint8_t{1}));

  const pn::McrBatch batch(m.flat.view());
  const std::vector<pn::CycleRatioResult> res =
      batch.solve_all(delays, S, jobs);
  for (size_t s = 0; s < S; ++s) rep.periods[s] = res[s].ratio;
  rep.nominal_period = rep.corner_samples > 0 ? rep.periods[0] : 0.0;
  rep.period = stats_of(rep.periods);
  rep.min_slack = stats_of(rep.min_slacks);
  rep.yield = 1.0 - static_cast<double>(rep.violation_samples) /
                        static_cast<double>(S);
  return rep;
}

cell::VariationModel variation_of(const McOptions& opt) {
  return {opt.seed, opt.sigma, opt.corners};
}

}  // namespace

McReport mc_analysis(const DesyncResult& r, const cell::Tech& tech,
                     const Margins& margins, const McOptions& opt) {
  return analyse(build_model(r.cg, r.protocol, tech, margins),
                 variation_of(opt), opt.samples, opt.jobs);
}

MarginOptResult optimize_margins(const nl::Netlist& ff, nl::NetId clock,
                                 const cell::Tech& tech,
                                 const DesyncOptions& opt,
                                 const McOptions& mc) {
  MarginOptResult out;
  Engine& engine = Engine::process(tech);
  const std::shared_ptr<const DesyncResult> base =
      engine.desynchronize(ff, clock, opt);
  const Margins base_margins(opt.margin, opt.margins);
  const Model m = build_model(base->cg, base->protocol, tech, base_margins);
  const cell::VariationModel vm = variation_of(mc);
  out.baseline = analyse(m, vm, mc.samples, mc.jobs);
  out.delay_cells_before = base->ctrl.delay_units;

  const size_t S = vm.total_samples(mc.samples);
  const size_t nb = m.num_banks();
  const Ps credit_nom = ctl::controller_response_credit(tech);

  // One shave decision per timed bank, each a function of that bank's
  // draws alone: banks are the granules (0 = keep the bank's margin).
  std::vector<double> shaved(m.timed_banks.size(), 0.0);
  parallel_for(m.timed_banks.size(), mc.jobs, [&](size_t i) {
    const size_t b = m.timed_banks[i];
    const int u0 = m.units[b];
    if (u0 <= 1) return;
    const Ps raw = m.raw_required[b];

    // Minimum cells that keep every sample's setup slack >= kGuardPs. The
    // line prefix is monotone in the cell count (delays are positive), so
    // the scan per sample stops at the first sufficient length; a sample
    // even the full line cannot satisfy pins the bank at u0 (no shave —
    // the bank's yield loss is a baseline property, not ours to worsen).
    // The credit of each scanned sample is kept for the re-check below.
    const uint64_t* line_keys = m.line_keys.data() + m.line_begin[b];
    std::vector<Ps> credit;
    credit.reserve(S);
    int need = 1;
    for (size_t s = 0; s < S && need < u0; ++s) {
      const Ps cr = credit_sample(m, vm, b, ctrl_response(m, vm, b, s), s);
      credit.push_back(cr);
      const Ps req =
          sta::sample_path_delay(raw, m.unit, vm, m.data_keys[b], s) +
          kGuardPs;
      Ps acc = 0;
      int u = 0;
      while (u < u0 && acc + cr < req) {
        acc += gate(m.unit, vm, line_keys[u], s);
        ++u;
      }
      need = std::max(need, u);
    }
    if (need >= u0) return;  // every sample was scanned: credit is full

    // Back-map the cell count to a margin landing mid-bucket on `cells`
    // after the flow's own ceil + quantization, floored at 1.0 (margins
    // below one are rejected everywhere). Then re-check every sample
    // against the *re-derived* requirement — the optimized flow will
    // de-margin its re-sized delays, which shifts the raw path by a ps or
    // two of rounding; the recheck (plus the guard band above) keeps the
    // shave valid under that derivation too.
    for (int cells = need; cells < u0; ++cells) {
      double mb = (static_cast<double>(credit_nom) +
                   (static_cast<double>(cells) - 0.5) *
                       static_cast<double>(m.unit)) /
                  static_cast<double>(raw);
      mb = std::clamp(mb, 1.0, base_margins.of(static_cast<int>(b)));
      const Ps worst_new =
          static_cast<Ps>(std::ceil(static_cast<double>(raw) * mb));
      const int achieved = ctl::matched_delay_cells(worst_new, tech);
      if (achieved >= u0) break;     // the 1.0 floor undid the shave
      if (achieved < cells) continue;
      const Ps raw2 = static_cast<Ps>(
          std::ceil(static_cast<double>(worst_new) / mb));
      // The model's stage keys are a prefix of any longer path's.
      std::span<const uint64_t> keys = m.data_keys[b];
      std::vector<uint64_t> longer;
      if (sta::path_stages(raw2, m.unit) > keys.size()) {
        longer = sta::path_stage_keys(skey(kDataPath, b),
                                      sta::path_stages(raw2, m.unit));
        keys = longer;
      }
      bool ok = true;
      for (size_t s = 0; s < S && ok; ++s) {
        const Ps avail = line_total(m, vm, b, achieved, s) + credit[s];
        ok = avail >= sta::sample_path_delay(raw2, m.unit, vm, keys, s);
      }
      if (ok) {
        shaved[i] = mb;
        break;
      }
    }
  });

  out.margins.assign(nb, 0.0);
  for (size_t b = 0; b < nb && b < opt.margins.size(); ++b) {
    out.margins[b] = opt.margins[b];
  }
  for (size_t i = 0; i < shaved.size(); ++i) {
    if (shaved[i] == 0.0) continue;
    out.margins[m.timed_banks[i]] = shaved[i];
    ++out.banks_shaved;
  }

  // Nothing shaved: the margin vector resolves to the baseline margin bank
  // for bank, so the flow would rebuild the baseline hardware and the
  // analysis would repeat the baseline's.
  if (out.banks_shaved == 0) {
    out.optimized = out.baseline;
    out.delay_cells_after = out.delay_cells_before;
    return out;
  }
  DesyncOptions opt2 = opt;
  opt2.margins = out.margins;
  const std::shared_ptr<const DesyncResult> shaved_flow =
      engine.desynchronize(ff, clock, opt2);
  out.optimized =
      mc_analysis(*shaved_flow, tech, Margins(opt.margin, opt2.margins), mc);
  out.delay_cells_after = shaved_flow->ctrl.delay_units;
  return out;
}

}  // namespace desyn::flow

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

/// ctl::hardware_model in batchable form: the timing class and end banks
/// of every arc (flat MG arc j is arc j of its arc list) plus the per-bank
/// sizing data the sampler needs, so sample 0 (the 1.0 corner) reproduces
/// the nominal predicted period bit-for-bit, and the element table: the
/// prepared draw key (cell::VariationModel::prepare) of every sampled
/// element, derived once per model and read by every sample of the fill
/// and of the margin shaver.
struct Model {
  std::vector<ctl::ArcTiming> arc_timing;
  std::vector<uint32_t> arc_from, arc_to;  ///< source and target banks
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
  for (const ctl::ProtoArc& a : hw.arcs) {
    m.arc_timing.push_back(ctl::arc_timing(a));
    m.arc_from.push_back(static_cast<uint32_t>(a.from));
    m.arc_to.push_back(static_cast<uint32_t>(a.to));
  }
  m.units = std::move(hw.line_cells);
  m.flat = pn::flatten(hw.mg);
  DESYN_ASSERT(m.flat.from.size() == hw.arcs.size());

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

constexpr size_t kBlock = pn::McrBatch::kBlock;
constexpr size_t kDraw = cell::VariationModel::kDrawBlock;

/// The sampled elements of one draw chunk (at most kDraw consecutive
/// samples), bank-major: x[b * kDraw + i] is bank b in the chunk's sample
/// i.
struct ChunkDraws {
  std::vector<Ps> line, ctrl, pulse;
};

/// Add the sampled delays of the gates `keys`, each of nominal delay
/// `nominal`, to sum[i] for the samples first + i, i < count <= kDraw: one
/// gate at a time over the chunk. Each physical gate rounds to whole ps
/// independently, like every hardware delay in the simulator; whole-ps
/// sums in doubles are exact, so they equal an integer accumulation.
void add_gates(const cell::VariationModel& vm, Ps nominal,
               std::span<const uint64_t> keys, size_t first, size_t count,
               double* sum) {
  const double nom = static_cast<double>(nominal);
  double f[kDraw];
  for (uint64_t key : keys) {
    vm.factors(key, first, count, f);
    for (size_t i = 0; i < count; ++i) {
      sum[i] += cell::round_half_up(nom * f[i]);
    }
  }
}

/// The first `cells` DELAY cells of bank b's matched line.
std::span<const uint64_t> line_keys_of(const Model& m, size_t b,
                                       size_t cells) {
  return std::span(m.line_keys).subspan(m.line_begin[b], cells);
}

/// Bank b's sampled controller response (marking inverter + C-element)
/// added to sum[i], as add_gates.
void add_response(const Model& m, const cell::VariationModel& vm, size_t b,
                  size_t first, size_t count, double* sum) {
  add_gates(vm, m.inv, std::span(m.inv_keys).subspan(b, 1), first, count,
            sum);
  add_gates(vm, m.celem, std::span(m.celem_keys).subspan(b, 1), first, count,
            sum);
}

/// Bank b's sampled response *credit* (inverter + C-element + pulse XOR)
/// added to sum[i]: the control stages a request traverses before the
/// capture edge, credited against the matched line exactly as
/// controller_response_credit is.
void add_credit(const Model& m, const cell::VariationModel& vm, size_t b,
                size_t first, size_t count, double* sum) {
  add_response(m, vm, b, first, count, sum);
  add_gates(vm, m.xorg, std::span(m.xor_keys).subspan(b, 1), first, count,
            sum);
}

/// Draw the samples [first, first + count) of every sampled element, one
/// element at a time over the chunk, into `d` (each bank's line, controller
/// response and pulse width) and into each sample's worst setup slack and
/// violation flag. Every per-sample sum keeps the scalar draws' order.
void draw_chunk(const Model& m, const cell::VariationModel& vm, size_t first,
                size_t count, ChunkDraws& d, double* worst_slack,
                uint8_t* violating) {
  const size_t nb = m.num_banks();
  d.line.resize(nb * kDraw);
  d.ctrl.resize(nb * kDraw);
  d.pulse.resize(nb * kDraw);
  double sum[kDraw];
  for (size_t b = 0; b < nb; ++b) {
    std::fill(sum, sum + count, 0.0);
    add_gates(vm, m.unit, line_keys_of(m, b, static_cast<size_t>(m.units[b])),
              first, count, sum);
    Ps* line = d.line.data() + b * kDraw;
    for (size_t i = 0; i < count; ++i) line[i] = static_cast<Ps>(sum[i]);
    std::fill(sum, sum + count, 0.0);
    add_response(m, vm, b, first, count, sum);
    Ps* ctrl = d.ctrl.data() + b * kDraw;
    for (size_t i = 0; i < count; ++i) ctrl[i] = static_cast<Ps>(sum[i]);
    // The pulse generator is a buffer chain; sample it as the staged path
    // it is (3 stages at the nominal minimum width).
    sta::sample_path_delays(m.pulse_width, m.unit, vm, m.pulse_keys_of(b),
                            first, count, d.pulse.data() + b * kDraw);
  }
  std::fill(worst_slack, worst_slack + count,
            m.timed_banks.empty() ? 0.0
                                  : std::numeric_limits<double>::infinity());
  Ps req[kDraw];
  for (size_t b : m.timed_banks) {
    // Available: the line plus the response credit; required: the sampled
    // realization of the worst data path the bank captures.
    const Ps* line = d.line.data() + b * kDraw;
    const Ps* ctrl = d.ctrl.data() + b * kDraw;
    std::fill(sum, sum + count, 0.0);
    add_gates(vm, m.xorg, std::span(m.xor_keys).subspan(b, 1), first, count,
              sum);
    sta::sample_path_delays(m.raw_required[b], m.unit, vm, m.data_keys[b],
                            first, count, req);
    for (size_t i = 0; i < count; ++i) {
      const Ps avail = line[i] + (ctrl[i] + static_cast<Ps>(sum[i]));
      const double slack = static_cast<double>(avail - req[i]);
      worst_slack[i] = std::min(worst_slack[i], slack);
      if (slack < 0) violating[i] = 1;
    }
  }
}

/// Sample i of a drawn chunk as the timed model's delay row.
void fill_row(const Model& m, const ChunkDraws& d, size_t i,
              std::span<Ps> row) {
  for (size_t j = 0; j < row.size(); ++j) {
    const size_t to = m.arc_to[j] * kDraw + i;
    row[j] = ctl::arc_delay(m.arc_timing[j], d.line[to], d.ctrl[to],
                            d.pulse[m.arc_from[j] * kDraw + i]);
  }
}

/// Every delay row of S samples, block by block on `jobs` workers: the
/// worker that owns a kBlock sample block calls start() for the block's
/// state, draws the block kDraw samples at a time (writing their entries
/// of `slacks` and `violating`) and hands each sample's row to
/// take(state, sample, row), in sample order.
template <class Start, class Take>
void for_each_row(const Model& m, const cell::VariationModel& vm, size_t S,
                  int jobs, std::vector<double>& slacks,
                  std::vector<uint8_t>& violating, const Start& start,
                  const Take& take) {
  slacks.resize(S);
  violating.assign(S, 0);
  parallel_for((S + kBlock - 1) / kBlock, jobs, [&](size_t block) {
    auto state = start();
    ChunkDraws d;
    std::vector<Ps> row(m.arc_timing.size());
    const size_t end = std::min(S, (block + 1) * kBlock);
    for (size_t first = block * kBlock; first < end; first += kDraw) {
      const size_t count = std::min(end, first + kDraw) - first;
      draw_chunk(m, vm, first, count, d, slacks.data() + first,
                 violating.data() + first);
      for (size_t i = 0; i < count; ++i) {
        fill_row(m, d, i, row);
        take(state, first + i, std::span<const Ps>(row));
      }
    }
  });
}

/// The Monte-Carlo sweep of a built model. Each kBlock sample block is
/// drawn and solved on the worker that owns it: its rows are filled one at
/// a time and handed to the block's pn::McrBatch::Block, so no samples x
/// arcs matrix is ever built and a worker holds one chunk of draws. A
/// block writes only its own periods, slacks and violation flags, and
/// every draw is a pure function of (seed, element, sample), so the report
/// is byte-identical at any `jobs`.
McReport analyse(const Model& m, const cell::VariationModel& vm,
                 size_t statistical, int jobs) {
  const size_t S = vm.total_samples(statistical);
  const size_t na = m.arc_timing.size();
  DESYN_ASSERT(S > 0);

  McReport rep;
  rep.samples = S;
  rep.corner_samples = vm.corners.size();
  rep.mcr_arcs = na;
  rep.periods.resize(S);

  const pn::McrBatch batch(m.flat.view());
  std::vector<uint8_t> violating;
  struct Solver {
    pn::McrBatch::Block block;
    pn::CycleRatioResult res;
  };
  for_each_row(
      m, vm, S, jobs, rep.min_slacks, violating,
      [&] { return Solver{pn::McrBatch::Block(batch), {}}; },
      [&](Solver& solver, size_t s, std::span<const Ps> row) {
        solver.block.solve(row, &solver.res);
        rep.periods[s] = solver.res.ratio;
      });
  rep.violation_samples = static_cast<size_t>(
      std::count(violating.begin(), violating.end(), uint8_t{1}));
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

McDelayRows mc_delay_rows(const DesyncResult& r, const cell::Tech& tech,
                          const Margins& margins, const McOptions& opt) {
  Model m = build_model(r.cg, r.protocol, tech, margins);
  const cell::VariationModel vm = variation_of(opt);
  McDelayRows out;
  out.samples = vm.total_samples(opt.samples);
  const size_t na = m.arc_timing.size();
  out.rows.resize(out.samples * na);
  std::vector<double> slacks;
  std::vector<uint8_t> violating;
  for_each_row(
      m, vm, out.samples, opt.jobs, slacks, violating, [] { return 0; },
      [&](int, size_t s, std::span<const Ps> row) {
        std::copy(row.begin(), row.end(), out.rows.begin() + s * na);
      });
  out.flat = std::move(m.flat);
  return out;
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
    // Drawn kDraw samples at a time, each line cell over the chunk's
    // samples still short of their requirement.
    const std::span<const uint64_t> line_keys =
        line_keys_of(m, b, static_cast<size_t>(u0));
    const double unit = static_cast<double>(m.unit);
    std::vector<Ps> credit;
    credit.reserve(S);
    int need = 1;
    for (size_t first = 0; first < S && need < u0; first += kDraw) {
      const size_t count = std::min(S, first + kDraw) - first;
      double cr[kDraw] = {}, acc[kDraw] = {}, f[kDraw];
      Ps req[kDraw];
      int u[kDraw] = {};
      add_credit(m, vm, b, first, count, cr);
      sta::sample_path_delays(raw, m.unit, vm, m.data_keys[b], first, count,
                              req);
      for (size_t j = 0; j < count; ++j) req[j] += kGuardPs;
      auto is_short = [&](size_t j) {
        return acc[j] + cr[j] < static_cast<double>(req[j]);
      };
      for (int k = 0; k < u0; ++k) {
        bool any_short = false;
        for (size_t j = 0; j < count; ++j) any_short |= is_short(j);
        if (!any_short) break;
        vm.factors(line_keys[static_cast<size_t>(k)], first, count, f);
        for (size_t j = 0; j < count; ++j) {
          if (is_short(j)) {
            acc[j] += cell::round_half_up(unit * f[j]);
            u[j] = k + 1;
          }
        }
      }
      for (size_t j = 0; j < count && need < u0; ++j) {
        credit.push_back(static_cast<Ps>(cr[j]));
        need = std::max(need, u[j]);
      }
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
      for (size_t first = 0; first < S && ok; first += kDraw) {
        const size_t count = std::min(S, first + kDraw) - first;
        double line[kDraw] = {};
        Ps req[kDraw];
        add_gates(vm, m.unit,
                  line_keys_of(m, b, static_cast<size_t>(achieved)), first,
                  count, line);
        sta::sample_path_delays(raw2, m.unit, vm, keys, first, count, req);
        for (size_t j = 0; j < count; ++j) {
          ok = ok && static_cast<Ps>(line[j]) + credit[first + j] >= req[j];
        }
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

#include "core/partition.h"

#include "base/rng.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <queue>
#include <set>
#include <thread>
#include <tuple>
#include <unordered_map>

#include "base/cancel.h"
#include "base/fault.h"
#include "core/adjacency.h"
#include "core/latchify.h"
#include "ctl/controller.h"
#include "netlist/builder.h"
#include "pn/mcr.h"

namespace desyn::flow {

// ---------------------------------------------------------------------------
// bank_prefix
// ---------------------------------------------------------------------------

std::string bank_prefix(const std::string& cell_name, int depth) {
  DESYN_ASSERT(depth >= 1, "bank_prefix depth must be >= 1");
  // Verilog escaped identifiers ('\foo.bar ') are atomic: their dots are
  // not hierarchy separators. Same fallback as dot-free names.
  if (!cell_name.empty() && cell_name[0] == '\\') return "core";
  std::string_view s = cell_name;
  for (int d = 0; d < depth; ++d) {
    size_t dot = s.rfind('.');
    if (dot == std::string_view::npos || dot == 0) {
      return d == 0 ? "core" : std::string(s);
    }
    s = s.substr(0, dot);
  }
  return std::string(s);
}

// ---------------------------------------------------------------------------
// Partition
// ---------------------------------------------------------------------------

namespace {

/// Live storage cells of `nl` in id order: (DFFs, RAMs).
std::pair<std::vector<nl::CellId>, std::vector<nl::CellId>> storage_cells(
    const nl::Netlist& nl) {
  std::vector<nl::CellId> ffs, rams;
  for (nl::CellId c : nl.cells()) {
    switch (nl.cell(c).kind) {
      case cell::Kind::Dff: ffs.push_back(c); break;
      case cell::Kind::Ram: rams.push_back(c); break;
      default: break;
    }
  }
  return {std::move(ffs), std::move(rams)};
}

}  // namespace

int Partition::group_of(nl::CellId c) const {
  if (c.value() >= group_of_.size()) return -1;
  return group_of_[c.value()];
}

void Partition::index() {
  uint32_t max_id = 0;
  for (const PartitionGroup& g : groups_) {
    for (nl::CellId c : g.cells) max_id = std::max(max_id, c.value() + 1);
  }
  group_of_.assign(max_id, -1);
  for (size_t i = 0; i < groups_.size(); ++i) {
    for (nl::CellId c : groups_[i].cells) {
      group_of_[c.value()] = static_cast<int>(i);
    }
  }
}

void Partition::canonicalize() {
  for (PartitionGroup& g : groups_) {
    std::sort(g.cells.begin(), g.cells.end());
  }
  std::stable_sort(groups_.begin(), groups_.end(),
                   [](const PartitionGroup& a, const PartitionGroup& b) {
                     if (a.ram != b.ram) return !a.ram;  // FF groups first
                     // Empty groups (invalid; kept for validate() to name)
                     // sort last so the comparison below stays total.
                     if (a.cells.empty() || b.cells.empty()) {
                       return !a.cells.empty() && b.cells.empty();
                     }
                     return a.cells.front() < b.cells.front();
                   });
  index();
}

void Partition::validate(const nl::Netlist& nl) const {
  auto [ffs, rams] = storage_cells(nl);
  std::vector<char> is_storage(nl.num_cells(), 0), is_ram(nl.num_cells(), 0);
  for (nl::CellId c : ffs) is_storage[c.value()] = 1;
  for (nl::CellId c : rams) is_storage[c.value()] = is_ram[c.value()] = 1;

  std::vector<char> seen(nl.num_cells(), 0);
  for (const PartitionGroup& g : groups_) {
    if (g.cells.empty()) {
      throw PartitionError(PartitionError::Kind::EmptyGroup,
                           cat("partition group '", g.name, "' is empty"));
    }
    for (nl::CellId c : g.cells) {
      if (c.value() >= nl.num_cells() || !is_storage[c.value()]) {
        throw PartitionError(
            PartitionError::Kind::ForeignCell,
            cat("partition group '", g.name, "' contains cell ", c,
                c.value() < nl.num_cells()
                    ? cat(" ('", nl.cell(c).name,
                          "') which is not a storage cell")
                    : std::string(" which is not in the netlist")));
      }
      if (seen[c.value()]) {
        throw PartitionError(PartitionError::Kind::DuplicateCell,
                             cat("storage cell '", nl.cell(c).name,
                                 "' appears in more than one group"));
      }
      seen[c.value()] = 1;
      if (is_ram[c.value()] && g.cells.size() != 1) {
        throw PartitionError(
            PartitionError::Kind::MixedRamGroup,
            cat("RAM '", nl.cell(c).name, "' shares group '", g.name,
                "' with other storage; a RAM macro needs its own bank pair"));
      }
    }
  }
  for (nl::CellId c : ffs) {
    if (!seen[c.value()]) {
      throw PartitionError(PartitionError::Kind::UncoveredCell,
                           cat("flip-flop '", nl.cell(c).name,
                               "' is not covered by the partition"));
    }
  }
  for (nl::CellId c : rams) {
    if (!seen[c.value()]) {
      throw PartitionError(PartitionError::Kind::UncoveredCell,
                           cat("RAM '", nl.cell(c).name,
                               "' is not covered by the partition"));
    }
  }
}

std::string Partition::describe(const nl::Netlist& nl) const {
  std::string out = cat(groups_.size(), " groups:");
  for (const PartitionGroup& g : groups_) {
    out += cat(" {", g.name, ":");
    for (nl::CellId c : g.cells) out += cat(" ", nl.cell(c).name);
    out += "}";
  }
  return out;
}

Partition Partition::prefix(const nl::Netlist& nl, int depth) {
  auto [ffs, rams] = storage_cells(nl);
  Partition p;
  std::map<std::string, size_t> by_key;
  for (nl::CellId c : ffs) {
    std::string key = bank_prefix(nl.cell(c).name, depth);
    auto [it, inserted] = by_key.try_emplace(key, p.groups_.size());
    if (inserted) p.groups_.push_back(PartitionGroup{std::move(key), {}, false});
    p.groups_[it->second].cells.push_back(c);
  }
  for (nl::CellId c : rams) {
    p.groups_.push_back(PartitionGroup{nl.cell(c).name, {c}, true});
  }
  p.canonicalize();
  return p;
}

Partition Partition::per_flip_flop(const nl::Netlist& nl) {
  auto [ffs, rams] = storage_cells(nl);
  Partition p;
  for (nl::CellId c : ffs) {
    p.groups_.push_back(PartitionGroup{nl.cell(c).name, {c}, false});
  }
  for (nl::CellId c : rams) {
    p.groups_.push_back(PartitionGroup{nl.cell(c).name, {c}, true});
  }
  p.canonicalize();
  return p;
}

Partition Partition::single(const nl::Netlist& nl) {
  auto [ffs, rams] = storage_cells(nl);
  Partition p;
  if (!ffs.empty()) {
    p.groups_.push_back(PartitionGroup{"all", std::move(ffs), false});
  }
  for (nl::CellId c : rams) {
    p.groups_.push_back(PartitionGroup{nl.cell(c).name, {c}, true});
  }
  p.canonicalize();
  return p;
}

Partition Partition::from_groups(const nl::Netlist& nl,
                                 std::vector<std::vector<nl::CellId>> groups) {
  Partition p;
  for (auto& g : groups) {
    p.groups_.push_back(PartitionGroup{"", std::move(g), false});
  }
  // Mark listed RAM singletons; RAMs not listed get their own groups.
  std::set<uint32_t> listed;
  for (PartitionGroup& g : p.groups_) {
    for (nl::CellId c : g.cells) {
      listed.insert(c.value());
      if (c.value() < nl.num_cells() && nl.is_live(c) &&
          nl.cell(c).kind == cell::Kind::Ram) {
        g.ram = g.cells.size() == 1;  // a mixed group stays !ram and is
                                      // rejected by validate() below
      }
    }
  }
  auto [ffs, rams] = storage_cells(nl);
  (void)ffs;
  for (nl::CellId c : rams) {
    if (!listed.count(c.value())) {
      p.groups_.push_back(PartitionGroup{nl.cell(c).name, {c}, true});
    }
  }
  p.canonicalize();
  // Names after canonical order so they are deterministic: member name for
  // singletons (matches the per-flip-flop strategy), g<i> for clusters.
  for (size_t i = 0; i < p.groups_.size(); ++i) {
    PartitionGroup& g = p.groups_[i];
    if (g.cells.size() == 1 && g.cells[0].value() < nl.num_cells() &&
        nl.is_live(g.cells[0])) {
      g.name = nl.cell(g.cells[0]).name;
    } else {
      g.name = cat("g", i);
    }
  }
  p.validate(nl);
  return p;
}

// ---------------------------------------------------------------------------
// PartitionSpec
// ---------------------------------------------------------------------------

PartitionSpec PartitionSpec::parse(std::string_view s) {
  PartitionSpec spec;
  auto arg_of = [&](std::string_view head) -> std::optional<std::string_view> {
    if (s == head) return std::nullopt;
    if (starts_with(s, std::string(head) + ":")) {
      return s.substr(head.size() + 1);
    }
    fail("unknown bank strategy '", s,
         "' (expected prefix[:N]|perff|single|auto[:B])");
  };
  if (s == "perff") {
    spec.mode = Mode::PerFlipFlop;
  } else if (s == "single") {
    spec.mode = Mode::Single;
  } else if (starts_with(s, "prefix")) {
    spec.mode = Mode::Prefix;
    if (auto a = arg_of("prefix")) {
      try {
        size_t used = 0;
        int d = std::stoi(std::string(*a), &used);
        if (used != a->size() || d < 1 || d > 16) fail("");
        spec.prefix_depth = d;
      } catch (...) {
        fail("malformed prefix depth '", *a, "' (need an integer in [1, 16])");
      }
    }
  } else if (starts_with(s, "auto")) {
    spec.mode = Mode::Auto;
    if (auto a = arg_of("auto")) {
      try {
        size_t used = 0;
        double b = std::stod(std::string(*a), &used);
        if (used != a->size() || !(b >= 1.0) || !(b <= 100.0)) fail("");
        spec.auto_budget = b;
      } catch (...) {
        fail("malformed auto budget '", *a, "' (need a number in [1, 100])");
      }
    }
  } else {
    fail("unknown bank strategy '", s,
         "' (expected prefix[:N]|perff|single|auto[:B])");
  }
  return spec;
}

std::string PartitionSpec::label() const {
  switch (mode) {
    case Mode::Prefix:
      return prefix_depth == 1 ? "prefix" : cat("prefix:", prefix_depth);
    case Mode::PerFlipFlop: return "perff";
    case Mode::Single: return "single";
    case Mode::Auto: return cat("auto:", auto_budget);
    case Mode::Explicit: return "explicit";
  }
  return "?";
}

Partition make_partition(const nl::Netlist& ff_netlist, nl::NetId clock,
                         const PartitionSpec& spec, const cell::Tech& tech,
                         ctl::Protocol protocol, double margin, int opt_jobs) {
  switch (spec.mode) {
    case PartitionSpec::Mode::Prefix:
      return Partition::prefix(ff_netlist, spec.prefix_depth);
    case PartitionSpec::Mode::PerFlipFlop:
      return Partition::per_flip_flop(ff_netlist);
    case PartitionSpec::Mode::Single:
      return Partition::single(ff_netlist);
    case PartitionSpec::Mode::Auto: {
      PartitionOptOptions opt;
      opt.period_budget = spec.auto_budget;
      opt.margin = margin;
      opt.protocol = protocol;
      opt.jobs = opt_jobs;
      return optimize_partition(ff_netlist, clock, tech, opt).partition;
    }
    case PartitionSpec::Mode::Explicit:
      DESYN_ASSERT(spec.partition.has_value(),
                   "explicit PartitionSpec without a partition");
      return *spec.partition;
  }
  fail("unreachable PartitionSpec mode");
}

// ---------------------------------------------------------------------------
// Scoring: the shared timed model
// ---------------------------------------------------------------------------

pn::MarkedGraph timed_model(const ctl::ControlGraph& cg, ctl::Protocol p,
                            const cell::Tech& tech, Ps pulse_width) {
  // Mirror the hardware line sizing: per-destination aggregation, response
  // credit, quantization to whole DELAY cells (minimum one).
  std::vector<Ps> worst(cg.num_banks(), 0);
  for (const auto& e : cg.edges()) {
    worst[static_cast<size_t>(e.to)] =
        std::max(worst[static_cast<size_t>(e.to)], e.matched_delay);
  }
  ctl::ControlGraph q;
  for (size_t i = 0; i < cg.num_banks(); ++i) {
    q.add_bank(cg.bank(static_cast<int>(i)).name,
               cg.bank(static_cast<int>(i)).even);
  }
  for (const auto& e : cg.edges()) {
    q.add_edge(e.from, e.to,
               ctl::matched_delay_cells(worst[static_cast<size_t>(e.to)],
                                        tech) *
                   tech.delay_unit());
  }
  return ctl::hardware_mg(q, p, ctl::controller_response_delay(tech),
                          pulse_width);
}

double predicted_period(const ctl::ControlGraph& cg, ctl::Protocol protocol,
                        const cell::Tech& tech) {
  // ctl::min_pulse_width is what every synthesis backend sizes, so scores
  // match flow::timed_control_model exactly.
  return pn::max_cycle_ratio(
             timed_model(cg, protocol, tech, ctl::min_pulse_width(tech)))
      .ratio;
}

// ---------------------------------------------------------------------------
// optimize_partition
// ---------------------------------------------------------------------------

namespace {

/// splitmix64 finalizer for deterministic candidate tie-breaking (the
/// shared mixing step from base/rng.h).
uint64_t mix(uint64_t z) { return splitmix64(z); }

/// Total controller + matched-delay cell count the real synthesis would
/// spend on `cg` — counted by running it against a scratch netlist, so the
/// optimizer's cost can never drift from the hardware.
size_t synthesis_cost(const ctl::ControlGraph& cg, ctl::Protocol p,
                      const cell::Tech& tech) {
  nl::Netlist scratch("cost_model");
  nl::Builder b(scratch);
  return ctl::synthesize_controllers(b, cg, p, tech).cells.size();
}

uint64_t pair_key(int a, int b) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(a)) << 32) |
         static_cast<uint32_t>(b);
}

// ---------------------------------------------------------------------------
// Candidate evaluators: how a tentative delta gets a period and a cost.
//
// The search loop below is shared verbatim between the production
// incremental scorer and the cold reference oracle; only this interface
// differs. Both track the committed clustering themselves (driven by the
// commit_* calls) so a probe is always measured against the same state the
// loop believes in.
// ---------------------------------------------------------------------------

class Evaluator {
 public:
  virtual ~Evaluator() = default;
  /// Period of the per-flip-flop start (also primes any internal state).
  virtual double initial_period() = 0;
  /// The search's period budget, once known; lets the scorer decide which
  /// probe solutions are worth exporting for adoption.
  virtual void set_limit(double limit) = 0;
  /// Score each candidate merge (keep, drop) against the committed
  /// clustering, filling `periods` positionally. May fan out internally;
  /// results must not depend on the fan-out.
  virtual void probe_merges(std::span<const std::pair<int, int>> cands,
                            std::span<double> periods) = 0;
  virtual double probe_move_period(int g, int to) = 0;
  virtual size_t probe_move_cost(int g, int to) = 0;
  virtual void commit_merge(int keep, int drop) = 0;
  virtual void commit_move(int g, int to) = 0;
  /// The committed quotient control graph (for synthesis costing).
  virtual ctl::ControlGraph quotient() = 0;
  /// The committed clustering itself — the single source of truth the
  /// search loop reads (labels, members, liveness).
  virtual const IncrementalQuotient& clusters() const = 0;
  virtual size_t warm_solves() const = 0;
  virtual size_t cold_solves() const = 0;
};

/// The cold oracle: every probe re-derives the full quotient control graph
/// and solves it from scratch through the exact same timed_model /
/// max_cycle_ratio path the flow uses.
class ReferenceEvaluator final : public Evaluator {
 public:
  ReferenceEvaluator(const ctl::ControlGraph& fine,
                     std::vector<char> merge_ok, ctl::Protocol p,
                     const cell::Tech& tech)
      : fine_(fine), cq_(fine, std::move(merge_ok)), p_(p), tech_(tech) {}

  double initial_period() override {
    ++cold_;
    return predicted_period(fine_, p_, tech_);
  }
  void set_limit(double) override {}
  void probe_merges(std::span<const std::pair<int, int>> cands,
                    std::span<double> periods) override {
    for (size_t i = 0; i < cands.size(); ++i) {
      cq_.merge(cands[i].first, cands[i].second);
      ++cold_;
      periods[i] = predicted_period(cq_.materialize(), p_, tech_);
      cq_.undo();
    }
  }
  double probe_move_period(int g, int to) override {
    cq_.move(g, to);
    ++cold_;
    double p = predicted_period(cq_.materialize(), p_, tech_);
    cq_.undo();
    return p;
  }
  size_t probe_move_cost(int g, int to) override {
    cq_.move(g, to);
    size_t c = synthesis_cost(cq_.materialize(), p_, tech_);
    cq_.undo();
    return c;
  }
  void commit_merge(int keep, int drop) override { cq_.merge(keep, drop); }
  void commit_move(int g, int to) override { cq_.move(g, to); }
  ctl::ControlGraph quotient() override { return cq_.materialize(); }
  const IncrementalQuotient& clusters() const override { return cq_; }
  size_t warm_solves() const override { return 0; }
  size_t cold_solves() const override { return cold_; }

 private:
  const ctl::ControlGraph& fine_;
  IncrementalQuotient cq_;
  ctl::Protocol p_;
  const cell::Tech& tech_;
  size_t cold_ = 0;
};

/// The production scorer. One flat timed model of the fine hardware arc
/// list is kept materialized per replica: arc endpoints live in quotient
/// transition space (fine bank b of cluster c appears as bank 2c + parity,
/// transition 2*bank + sign; merged-away ids are holes Howard skips), and
/// every arc's delay follows the hardware line-sizing rule — pred-side
/// arcs carry the quantized per-destination worst-in of their target bank
/// plus the controller response, succ-side arcs the response alone,
/// alternation arcs the pulse width (+ edge) or nothing (- edge).
///
/// A candidate is applied as an O(deg) endpoint/delay patch with an undo
/// journal, solved by a Howard re-run warm-started from the committed
/// solution (pn::McrContext), and reverted; the winning candidate's probe
/// solution is adopted wholesale, so a commit costs no extra solve. Waves
/// fan out over per-thread replicas kept in sync by replaying the commit
/// log. Merging never removes arcs — parallel duplicates just pile onto
/// the surviving transitions (same tokens, same delay: both are functions
/// of parity, sign and destination alone, merge-invariant) — so every
/// kCompactEvery merges the arc list is deduplicated in place and the
/// baseline's policy arcs remapped, keeping each solve proportional to the
/// *live* quotient, not the original fine graph.
class IncrementalEvaluator final : public Evaluator {
 public:
  IncrementalEvaluator(const ctl::ControlGraph& fine,
                       std::vector<char> merge_ok, ctl::Protocol p,
                       const cell::Tech& tech, int jobs)
      : fine_(fine),
        tech_(tech),
        jobs_(std::max(1, jobs)),
        proto_(p),
        main_(fine, merge_ok) {
    G_ = merge_ok.size();
    num_nodes_ = 2 * static_cast<uint32_t>(fine.num_banks());
    ctrl_ = ctl::controller_response_delay(tech);
    pulse_ = ctl::min_pulse_width(tech);
    rebuild_fine();
  }

  double initial_period() override { return ctx_.solve(view(main_)).ratio; }
  void set_limit(double limit) override { limit_ = limit; }

  void probe_merges(std::span<const std::pair<int, int>> cands,
                    std::span<double> periods) override {
    probes_ += cands.size();
    wave_.assign(cands.begin(), cands.end());
    wave_sols_.assign(cands.size(), {});
    size_t workers = std::min<size_t>(static_cast<size_t>(jobs_), cands.size());
    if (workers <= 1) {
      for (size_t i = 0; i < cands.size(); ++i) {
        periods[i] = probe_merge(main_, cands[i], &wave_sols_[i]);
      }
      return;
    }
    while (replicas_.size() < workers - 1) {
      replicas_.push_back(std::make_unique<Replica>(main_));
      replicas_.back()->synced = log_.size();
    }
    // The caller's cancel token is re-installed in every worker so a
    // deadline also stops replica probes. The first throw on any thread
    // (this one included) is parked, the others stop pulling candidates,
    // and it is rethrown once every worker has joined: an exception that
    // escapes a std::thread body, or unwinds past a joinable one, is
    // std::terminate.
    const CancelToken* cancel = current_cancel();
    std::atomic<size_t> next{0};
    std::atomic<bool> aborted{false};
    std::exception_ptr error;
    std::mutex error_mu;
    auto run = [&](Replica& r) {
      try {
        sync(r);
        for (size_t i = next.fetch_add(1);
             i < cands.size() && !aborted.load(std::memory_order_relaxed);
             i = next.fetch_add(1)) {
          periods[i] = probe_merge(r, cands[i], &wave_sols_[i]);
        }
      } catch (...) {
        aborted.store(true, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(error_mu);
        if (!error) error = std::current_exception();
      }
    };
    std::vector<std::thread> pool;
    for (size_t w = 0; w + 1 < workers; ++w) {
      pool.emplace_back([&, w] {
        CancelScope scope(cancel);
        run(*replicas_[w]);
      });
    }
    run(main_);
    for (std::thread& t : pool) t.join();
    if (error) std::rethrow_exception(error);
  }

  double probe_move_period(int g, int to) override {
    ensure_fine();
    ++probes_;
    journal_.clear();
    apply_move(main_, g, to, &journal_);
    double p = ctx_.probe(view(main_), main_.node_map, main_.scratch).ratio;
    move_sol_.valid = false;
    if (p <= limit_) {
      pn::McrContext::export_solution(main_.scratch, num_nodes_, &move_sol_);
      move_key_ = {g, to};
    }
    revert(main_, journal_);
    return p;
  }

  size_t probe_move_cost(int g, int to) override {
    main_.cq.move(g, to);
    size_t c = synthesis_cost(main_.cq.materialize(), proto_, tech_);
    main_.cq.undo();
    return c;
  }

  void commit_merge(int keep, int drop) override {
    apply_merge(main_, keep, drop, nullptr);
    log_.push_back({true, keep, drop});
    main_.synced = log_.size();
    // Rebase the warm-start baseline onto the committed graph. The
    // committed candidate was already solved by its probe — adopt that
    // solution outright; re-solve only if the probe had nothing to export.
    size_t idx = wave_.size();
    for (size_t i = 0; i < wave_.size(); ++i) {
      if (wave_[i] == std::make_pair(keep, drop)) {
        idx = i;
        break;
      }
    }
    if (idx < wave_sols_.size() && wave_sols_[idx].valid) {
      ctx_.adopt_solution(std::move(wave_sols_[idx]));
    } else {
      for (int s = 0; s < 4; ++s) {
        main_.node_map[static_cast<size_t>(4 * drop + s)] =
            static_cast<uint32_t>(4 * keep + s);
      }
      ctx_.resolve(view(main_), main_.node_map);
      for (int s = 0; s < 4; ++s) {
        main_.node_map[static_cast<size_t>(4 * drop + s)] =
            static_cast<uint32_t>(4 * drop + s);
      }
    }
    if (++merges_since_compact_ >= kCompactEvery) compact();
  }

  void commit_move(int g, int to) override {
    ensure_fine();
    apply_move(main_, g, to, nullptr);
    log_.push_back({false, g, to});
    main_.synced = log_.size();
    if (move_sol_.valid && move_key_ == std::make_pair(g, to)) {
      ctx_.adopt_solution(std::move(move_sol_));
      move_sol_.valid = false;
    } else {
      ctx_.resolve(view(main_), main_.node_map);  // identity: no nodes merge
    }
  }

  ctl::ControlGraph quotient() override { return main_.cq.materialize(); }
  const IncrementalQuotient& clusters() const override { return main_.cq; }
  size_t warm_solves() const override { return probes_ + ctx_.warm_solves(); }
  size_t cold_solves() const override { return ctx_.cold_solves(); }

 private:
  /// Compact when this many merges piled parallel arcs onto the quotient.
  static constexpr size_t kCompactEvery = 256;
  enum : uint8_t { kAltPlus = 0, kAltMinus = 1, kPred = 2, kSucc = 3 };

  struct Patch {
    uint32_t arc;
    uint32_t from, to;
    Ps delay;
  };
  struct CommitOp {
    bool is_merge;
    int a, b;
  };
  struct Replica {
    Replica(const ctl::ControlGraph& fine, const std::vector<char>& merge_ok)
        : cq(fine, merge_ok) {}
    Replica(const Replica&) = default;
    IncrementalQuotient cq;
    std::vector<uint32_t> from, to;  ///< arc endpoints, quotient transitions
    std::vector<Ps> delay;           ///< arc delays under the sizing rule
    std::vector<std::vector<uint32_t>> incident;  ///< arc ids per cluster
    std::vector<uint32_t> node_map;               ///< identity scratch map
    pn::McrScratch scratch;
    size_t synced = 0;  ///< commit-log prefix already applied
  };

  /// Quantized matched-delay-line length into quotient bank `qb` (per the
  /// current clustering of `r`), exactly as the synthesis sizes it.
  Ps qdelay(const Replica& r, uint32_t qb) const {
    Ps worst = qb >= 2 * G_
                   ? r.cq.fine_worst_in(static_cast<int>(qb))
                   : r.cq.worst_in(static_cast<int>(qb) / 2, (qb & 1) == 0);
    return ctl::matched_delay_cells(worst, tech_) * tech_.delay_unit();
  }

  Ps arc_delay(const Replica& r, size_t j, uint32_t to_bank) const {
    switch (kind_[j]) {
      case kAltPlus: return pulse_;
      case kAltMinus: return 0;
      case kPred: return qdelay(r, to_bank) + ctrl_;
      default: return ctrl_;
    }
  }

  /// (Re)build the fine-grained arc arrays — one arc per hardware arc of
  /// the per-flip-flop model — with endpoints mapped through main_'s
  /// current clustering. Run at construction (identity clustering) and
  /// when the refinement phase needs per-group arcs back after compaction.
  void rebuild_fine() {
    std::vector<ctl::ProtoArc> arcs = ctl::hardware_arcs(fine_, proto_);
    const size_t m = arcs.size();
    kind_.resize(m);
    tokens_.resize(m);
    ffrom_.resize(m);
    fto_.resize(m);
    group_arcs_.assign(G_, {});
    main_.from.resize(m);
    main_.to.resize(m);
    main_.delay.resize(m);
    main_.incident.assign(G_, {});
    auto mapped_bank = [&](int bank) {
      if (bank >= static_cast<int>(2 * G_)) return static_cast<uint32_t>(bank);
      return 2 * static_cast<uint32_t>(main_.cq.cluster_of(bank / 2)) +
             (static_cast<uint32_t>(bank) & 1);
    };
    for (size_t j = 0; j < m; ++j) {
      const ctl::ProtoArc& a = arcs[j];
      kind_[j] = a.alternation ? (a.from_plus ? kAltPlus : kAltMinus)
                               : (a.pred_side ? kPred : kSucc);
      tokens_[j] = a.marked ? 1 : 0;
      ffrom_[j] = a.from;
      fto_[j] = a.to;
      uint32_t mfb = mapped_bank(a.from);
      uint32_t mtb = mapped_bank(a.to);
      main_.from[j] = 2 * mfb + (a.from_plus ? 0u : 1u);
      main_.to[j] = 2 * mtb + (a.to_plus ? 0u : 1u);
      main_.delay[j] = arc_delay(main_, j, mtb);
      uint32_t last = UINT32_MAX;
      for (int bank : {a.from, a.to}) {
        if (bank < static_cast<int>(2 * G_) &&
            static_cast<uint32_t>(bank) / 2 != last) {
          last = static_cast<uint32_t>(bank) / 2;
          group_arcs_[last].push_back(static_cast<uint32_t>(j));
        }
      }
      last = UINT32_MAX;
      for (uint32_t mb : {mfb, mtb}) {
        if (mb < 2 * G_ && mb / 2 != last) {
          last = mb / 2;
          main_.incident[last].push_back(static_cast<uint32_t>(j));
        }
      }
    }
    main_.node_map.resize(num_nodes_);
    for (uint32_t i = 0; i < num_nodes_; ++i) main_.node_map[i] = i;
    fine_mode_ = true;
    replicas_.clear();
    log_.clear();
    main_.synced = 0;
  }

  /// Deduplicate parallel arcs in place (first-occurrence order, so the
  /// rebuild is deterministic) and remap the warm-start baseline's policy
  /// arcs. Fine-group arc lists die here; ensure_fine() resurrects them.
  void compact() {
    const size_t m = main_.from.size();
    std::unordered_map<uint64_t, uint32_t> seen;
    seen.reserve(m);
    std::vector<uint32_t> arc_map(m);
    std::vector<uint32_t> nfrom, nto;
    std::vector<Ps> ndelay;
    std::vector<uint8_t> nkind;
    std::vector<int32_t> ntokens;
    for (size_t j = 0; j < m; ++j) {
      uint64_t key = (static_cast<uint64_t>(main_.from[j]) << 35) |
                     (static_cast<uint64_t>(main_.to[j]) << 3) |
                     (static_cast<uint64_t>(kind_[j]) << 1) |
                     static_cast<uint64_t>(tokens_[j]);
      auto [it, inserted] =
          seen.try_emplace(key, static_cast<uint32_t>(nfrom.size()));
      arc_map[j] = it->second;
      if (inserted) {
        nfrom.push_back(main_.from[j]);
        nto.push_back(main_.to[j]);
        ndelay.push_back(main_.delay[j]);
        nkind.push_back(kind_[j]);
        ntokens.push_back(tokens_[j]);
      } else {
        // Parallel duplicates carry identical annotations by construction.
        DESYN_ASSERT(ndelay[it->second] == main_.delay[j]);
      }
    }
    main_.from = std::move(nfrom);
    main_.to = std::move(nto);
    main_.delay = std::move(ndelay);
    kind_ = std::move(nkind);
    tokens_ = std::move(ntokens);
    main_.incident.assign(G_, {});
    for (size_t j = 0; j < main_.from.size(); ++j) {
      uint32_t last = UINT32_MAX;
      for (uint32_t trans : {main_.from[j], main_.to[j]}) {
        uint32_t bank = trans >> 1;
        if (bank < 2 * G_ && bank / 2 != last) {
          last = bank / 2;
          main_.incident[last].push_back(static_cast<uint32_t>(j));
        }
      }
    }
    group_arcs_.clear();
    ffrom_.clear();
    fto_.clear();
    fine_mode_ = false;
    ctx_.remap_baseline_arcs(arc_map);
    replicas_.clear();
    log_.clear();
    main_.synced = 0;
    merges_since_compact_ = 0;
  }

  /// The refinement phase moves single fine groups, which needs the
  /// per-group arc structure compaction destroyed; rebuild and re-prime.
  void ensure_fine() {
    if (fine_mode_) return;
    rebuild_fine();
    ctx_.solve(view(main_));  // arc ids changed: one cold re-prime
  }

  pn::McrArcs view(const Replica& r) const {
    return {num_nodes_, r.from, r.to, tokens_, r.delay};
  }

  static uint32_t bank_of(uint32_t trans) { return trans >> 1; }

  /// Apply merge(drop -> keep) to `r`: O(deg) endpoint rewrites on the
  /// dropped cluster's incident arcs, delay re-quantization where the
  /// merged destination's worst-in grew. `journal` records the previous
  /// arc state for undo; committed merges (null journal) also splice the
  /// incident lists.
  void apply_merge(Replica& r, int keep, int drop,
                   std::vector<Patch>* journal) const {
    const Ps qe_old = qdelay(r, 2 * static_cast<uint32_t>(keep));
    const Ps qo_old = qdelay(r, 2 * static_cast<uint32_t>(keep) + 1);
    r.cq.merge(keep, drop);
    const Ps qe = qdelay(r, 2 * static_cast<uint32_t>(keep));
    const Ps qo = qdelay(r, 2 * static_cast<uint32_t>(keep) + 1);
    auto patch = [&](uint32_t j) {
      if (journal) journal->push_back({j, r.from[j], r.to[j], r.delay[j]});
    };
    for (uint32_t j : r.incident[static_cast<size_t>(drop)]) {
      patch(j);
      uint32_t fb = bank_of(r.from[j]);
      if (fb < 2 * G_ && static_cast<int>(fb) / 2 == drop) {
        r.from[j] = 2 * (2 * static_cast<uint32_t>(keep) + (fb & 1)) +
                    (r.from[j] & 1);
      }
      uint32_t tb = bank_of(r.to[j]);
      if (tb < 2 * G_ && static_cast<int>(tb) / 2 == drop) {
        uint32_t nb = 2 * static_cast<uint32_t>(keep) + (tb & 1);
        r.to[j] = 2 * nb + (r.to[j] & 1);
        if (kind_[j] == kPred) r.delay[j] = ((tb & 1) == 0 ? qe : qo) + ctrl_;
      }
    }
    if (qe != qe_old || qo != qo_old) {
      for (uint32_t j : r.incident[static_cast<size_t>(keep)]) {
        if (kind_[j] != kPred) continue;
        uint32_t tb = bank_of(r.to[j]);
        if (tb >= 2 * G_ || static_cast<int>(tb) / 2 != keep) continue;
        patch(j);
        r.delay[j] = ((tb & 1) == 0 ? qe : qo) + ctrl_;
      }
    }
    if (!journal) {
      auto& win = r.incident[static_cast<size_t>(keep)];
      auto& lose = r.incident[static_cast<size_t>(drop)];
      win.insert(win.end(), lose.begin(), lose.end());
      lose.clear();
    }
  }

  /// Apply move(g -> to): g's fine arcs re-point from its donor cluster to
  /// the receiver, both clusters' destinations re-quantize as needed.
  /// Only valid in fine mode (ensure_fine() ran).
  void apply_move(Replica& r, int g, int to, std::vector<Patch>* journal) const {
    DESYN_ASSERT(fine_mode_, "moves need the per-group arc structure");
    const int from_c = r.cq.cluster_of(g);
    const Ps qfe_old = qdelay(r, 2 * static_cast<uint32_t>(from_c));
    const Ps qfo_old = qdelay(r, 2 * static_cast<uint32_t>(from_c) + 1);
    const Ps qte_old = qdelay(r, 2 * static_cast<uint32_t>(to));
    const Ps qto_old = qdelay(r, 2 * static_cast<uint32_t>(to) + 1);
    r.cq.move(g, to);
    const Ps qfe = qdelay(r, 2 * static_cast<uint32_t>(from_c));
    const Ps qfo = qdelay(r, 2 * static_cast<uint32_t>(from_c) + 1);
    const Ps qte = qdelay(r, 2 * static_cast<uint32_t>(to));
    const Ps qto = qdelay(r, 2 * static_cast<uint32_t>(to) + 1);
    auto patch = [&](uint32_t j) {
      if (journal) journal->push_back({j, r.from[j], r.to[j], r.delay[j]});
    };
    for (uint32_t j : group_arcs_[static_cast<size_t>(g)]) {
      patch(j);
      if (ffrom_[j] / 2 == g) {
        uint32_t nb = 2 * static_cast<uint32_t>(to) +
                      (static_cast<uint32_t>(ffrom_[j]) & 1);
        r.from[j] = 2 * nb + (r.from[j] & 1);
      }
      if (fto_[j] / 2 == g) {
        uint32_t nb =
            2 * static_cast<uint32_t>(to) + (static_cast<uint32_t>(fto_[j]) & 1);
        r.to[j] = 2 * nb + (r.to[j] & 1);
        if (kind_[j] == kPred) {
          r.delay[j] = ((static_cast<uint32_t>(fto_[j]) & 1) == 0 ? qte : qto) +
                       ctrl_;
        }
      }
    }
    auto requant = [&](int c, Ps qe, Ps qo, Ps qe_old2, Ps qo_old2) {
      if (qe == qe_old2 && qo == qo_old2) return;
      for (uint32_t j : r.incident[static_cast<size_t>(c)]) {
        if (kind_[j] != kPred) continue;
        uint32_t tb = bank_of(r.to[j]);
        if (tb >= 2 * G_ || static_cast<int>(tb) / 2 != c) continue;
        patch(j);
        r.delay[j] = ((tb & 1) == 0 ? qe : qo) + ctrl_;
      }
    };
    requant(from_c, qfe, qfo, qfe_old, qfo_old);
    requant(to, qte, qto, qte_old, qto_old);
    if (!journal) {
      // Incident-list maintenance: g's arcs leave the donor, join the
      // receiver. Committed moves are rare (one refinement pass), so a
      // filter over the donor's list is fine.
      auto& donor = r.incident[static_cast<size_t>(from_c)];
      auto still = [&](uint32_t j) {
        uint32_t fb = bank_of(r.from[j]);
        uint32_t tb = bank_of(r.to[j]);
        return (fb < 2 * G_ && static_cast<int>(fb) / 2 == from_c) ||
               (tb < 2 * G_ && static_cast<int>(tb) / 2 == from_c);
      };
      donor.erase(std::remove_if(donor.begin(), donor.end(),
                                 [&](uint32_t j) { return !still(j); }),
                  donor.end());
      auto& recv = r.incident[static_cast<size_t>(to)];
      recv.insert(recv.end(), group_arcs_[static_cast<size_t>(g)].begin(),
                  group_arcs_[static_cast<size_t>(g)].end());
    }
  }

  void revert(Replica& r, const std::vector<Patch>& journal) const {
    for (size_t i = journal.size(); i-- > 0;) {
      const Patch& p = journal[i];
      r.from[p.arc] = p.from;
      r.to[p.arc] = p.to;
      r.delay[p.arc] = p.delay;
    }
    r.cq.undo();
  }

  double probe_merge(Replica& r, std::pair<int, int> cand,
                     pn::McrContext::Solution* sol) const {
    fault::maybe_throw("partition.probe");
    const int keep = cand.first, drop = cand.second;
    thread_local std::vector<Patch> journal;
    journal.clear();
    apply_merge(r, keep, drop, &journal);
    for (int s = 0; s < 4; ++s) {
      r.node_map[static_cast<size_t>(4 * drop + s)] =
          static_cast<uint32_t>(4 * keep + s);
    }
    double p = ctx_.probe(view(r), r.node_map, r.scratch).ratio;
    if (sol && p <= limit_) {
      pn::McrContext::export_solution(r.scratch, num_nodes_, sol);
    }
    for (int s = 0; s < 4; ++s) {
      r.node_map[static_cast<size_t>(4 * drop + s)] =
          static_cast<uint32_t>(4 * drop + s);
    }
    revert(r, journal);
    return p;
  }

  void sync(Replica& r) const {
    while (r.synced < log_.size()) {
      const CommitOp& op = log_[r.synced++];
      if (op.is_merge) {
        apply_merge(r, op.a, op.b, nullptr);
      } else {
        apply_move(r, op.a, op.b, nullptr);
      }
    }
  }

  const ctl::ControlGraph& fine_;
  const cell::Tech& tech_;
  int jobs_;
  ctl::Protocol proto_;
  size_t G_ = 0;
  uint32_t num_nodes_ = 0;
  Ps ctrl_ = 0, pulse_ = 0;
  double limit_ = std::numeric_limits<double>::infinity();
  std::vector<uint8_t> kind_;
  std::vector<int32_t> tokens_;
  std::vector<int> ffrom_, fto_;  ///< fine endpoint banks (fine mode)
  std::vector<std::vector<uint32_t>> group_arcs_;  ///< per group (fine mode)
  bool fine_mode_ = true;
  Replica main_;
  std::vector<std::unique_ptr<Replica>> replicas_;
  std::vector<CommitOp> log_;
  std::vector<Patch> journal_;
  std::vector<std::pair<int, int>> wave_;
  std::vector<pn::McrContext::Solution> wave_sols_;
  pn::McrContext::Solution move_sol_;
  std::pair<int, int> move_key_{-1, -1};
  pn::McrContext ctx_;
  size_t probes_ = 0;
  size_t merges_since_compact_ = 0;
};

// ---------------------------------------------------------------------------
// The shared greedy search
// ---------------------------------------------------------------------------

/// Candidate heap entry; stale entries are recognized by their epoch.
struct HeapEntry {
  int weight;
  uint64_t h;
  int a, b;
  uint32_t epoch;
};
struct HeapCmp {
  bool operator()(const HeapEntry& x, const HeapEntry& y) const {
    if (x.weight != y.weight) return x.weight < y.weight;
    if (x.h != y.h) return x.h > y.h;
    return std::tie(x.a, x.b) > std::tie(y.a, y.b);
  }
};

PartitionOptResult optimize_impl(const nl::Netlist& ff_netlist,
                                 nl::NetId clock, const cell::Tech& tech,
                                 const PartitionOptOptions& opt,
                                 bool incremental) {
  DESYN_ASSERT(opt.period_budget >= 1.0,
               "period budget must be >= 1 (it multiplies the baseline)");
  PartitionOptResult res;
  const Partition perff = Partition::per_flip_flop(ff_netlist);
  const size_t G = perff.num_groups();
  if (G == 0) {
    res.partition = perff;
    return res;
  }

  // One STA pass: the per-flip-flop control graph. Every candidate
  // clustering's graph is a quotient of this one (arrivals are max-plus,
  // so the merged edge delay is exactly the max over member edges) — the
  // optimizer never re-runs timing.
  nl::Netlist latched = ff_netlist;
  const LatchifyResult lr = latchify(latched, clock, perff);
  const AdjacencyResult fine = extract_control_graph(
      latched, lr, clock, tech, opt.margin, opt.protocol);
  DESYN_ASSERT(fine.env_snk == static_cast<int>(2 * G) &&
               fine.env_src == static_cast<int>(2 * G) + 1);

  std::vector<char> merge_ok(G);
  for (size_t g = 0; g < G; ++g) merge_ok[g] = perff.groups()[g].ram ? 0 : 1;

  std::unique_ptr<Evaluator> ev;
  if (incremental) {
    ev = std::make_unique<IncrementalEvaluator>(fine.cg, merge_ok,
                                                opt.protocol, tech, opt.jobs);
  } else {
    ev = std::make_unique<ReferenceEvaluator>(fine.cg, merge_ok,
                                              opt.protocol, tech);
  }

  res.perff_period = ev->initial_period();
  res.perff_cost = synthesis_cost(fine.cg, opt.protocol, tech);
  {
    nl::Netlist l2 = ff_netlist;
    const LatchifyResult lr2 =
        latchify(l2, clock, Partition::prefix(ff_netlist));
    res.baseline_period = predicted_period(
        extract_control_graph(l2, lr2, clock, tech, opt.margin, opt.protocol)
            .cg,
        opt.protocol, tech);
  }
  // Coarsening only adds rendezvous, so merged periods are never below the
  // per-flip-flop start; measuring the budget against the larger of the
  // two baselines keeps the limit reachable.
  const double limit =
      opt.period_budget * std::max(res.baseline_period, res.perff_period);
  const double eps = 1e-6;
  ev->set_limit(limit + eps);

  // The committed clustering, owned and advanced by the evaluator; labels
  // stay the smallest fine-group index, so the tie-break hash and the
  // bound cache are stable.
  const IncrementalQuotient& cq = ev->clusters();

  // ---- initial candidate weights -----------------------------------------
  // Co-occurrence mass over the *fine* graph: +1 per direct fine edge
  // between two groups, +1 per fine bank with edges to (from) both groups
  // on the same side. Additive under merging — W(a∪b, x) = W(a,x) +
  // W(b,x) — which is what lets the rank structure update in O(deg) per
  // commit instead of a full O(V+E) rescan per round. A flat sorted-vector
  // pass; the old per-round std::map rescan is gone.
  std::vector<uint64_t> raw;
  {
    const size_t B = fine.cg.num_banks();
    std::vector<std::vector<int>> succs(B), preds(B);
    auto group_of_bank = [&](int bank) {
      return bank < static_cast<int>(2 * G) ? bank / 2 : -1;
    };
    for (const auto& e : fine.cg.edges()) {
      int gf = group_of_bank(e.from), gt = group_of_bank(e.to);
      bool mf = gf >= 0 && merge_ok[static_cast<size_t>(gf)];
      bool mt = gt >= 0 && merge_ok[static_cast<size_t>(gt)];
      if (mf && mt && gf != gt) {
        raw.push_back(pair_key(std::min(gf, gt), std::max(gf, gt)));
      }
      if (mt) succs[static_cast<size_t>(e.from)].push_back(gt);
      if (mf) preds[static_cast<size_t>(e.to)].push_back(gf);
    }
    for (auto* side : {&succs, &preds}) {
      for (auto& v : *side) {
        std::sort(v.begin(), v.end());
        v.erase(std::unique(v.begin(), v.end()), v.end());
        for (size_t i = 0; i < v.size(); ++i) {
          for (size_t j = i + 1; j < v.size(); ++j) {
            raw.push_back(pair_key(v[i], v[j]));
          }
        }
      }
    }
  }
  std::sort(raw.begin(), raw.end());

  struct PairInfo {
    int weight = 0;
    uint32_t epoch = 0;
  };
  std::unordered_map<uint64_t, PairInfo> pairs;
  std::unordered_map<uint64_t, double> bounds;
  std::vector<std::vector<int>> partners(G);
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, HeapCmp> heap;
  auto push_entry = [&](int a, int b, const PairInfo& pi) {
    heap.push({pi.weight,
               mix(opt.seed ^ pair_key(a, b)), a, b, pi.epoch});
  };
  for (size_t i = 0; i < raw.size();) {
    size_t j = i;
    while (j < raw.size() && raw[j] == raw[i]) ++j;
    int a = static_cast<int>(raw[i] >> 32);
    int b = static_cast<int>(raw[i] & 0xffffffffu);
    PairInfo pi{static_cast<int>(j - i), 0};
    pairs.emplace(raw[i], pi);
    partners[static_cast<size_t>(a)].push_back(b);
    partners[static_cast<size_t>(b)].push_back(a);
    push_entry(a, b, pi);
    i = j;
  }
  raw.clear();
  raw.shrink_to_fit();

  // ---- greedy merge waves -------------------------------------------------
  // Pop candidates in rank order; score a wave of them against the current
  // committed clustering (in parallel for the incremental evaluator);
  // commit the first in-budget candidate of the wave. A failed candidate's
  // ratio is a *monotone lower bound* — any later state is coarser and
  // coarsening only adds rendezvous — so it rejects the pair solve-free
  // forever after, surviving label folds by max-transfer. Wave size starts
  // at 1 (the top candidate usually passes) and doubles while a whole wave
  // fails, so the fail-heavy endgame is what actually fans out. Wave
  // composition depends only on committed history: byte-identical results
  // for any job count.
  size_t wave_cap = 1;
  std::vector<std::pair<int, int>> wave;
  std::vector<double> periods;
  std::vector<uint32_t> wave_epochs;
  for (;;) {
    if (opt.max_merges && res.merges >= static_cast<int>(opt.max_merges)) {
      break;
    }
    wave.clear();
    wave_epochs.clear();
    while (wave.size() < wave_cap && !heap.empty()) {
      HeapEntry e = heap.top();
      heap.pop();
      auto it = pairs.find(pair_key(e.a, e.b));
      if (it == pairs.end() || it->second.epoch != e.epoch) continue;  // stale
      ++res.stats.candidates;
      // The oracle deliberately skips bound pruning: it re-solves pruned
      // candidates cold, so an invalid bound would make the two searches
      // commit different merges and fail the equivalence tests.
      if (incremental) {
        auto bi = bounds.find(pair_key(e.a, e.b));
        if (bi != bounds.end() && bi->second > limit + eps) {
          ++res.stats.pruned;
          continue;  // permanently over budget: monotone bound
        }
      }
      wave.push_back({e.a, e.b});
      wave_epochs.push_back(e.epoch);
    }
    if (wave.empty()) break;
    ++res.stats.waves;
    periods.resize(wave.size());
    ev->probe_merges(wave, periods);
    size_t win = wave.size();
    for (size_t i = 0; i < wave.size(); ++i) {
      uint64_t k = pair_key(wave[i].first, wave[i].second);
      double& bd = bounds[k];
      bd = std::max(bd, periods[i]);
      if (win == wave.size() && periods[i] <= limit + eps) win = i;
    }
    if (win == wave.size()) {
      wave_cap = std::min<size_t>(32, wave_cap * 2);
      continue;
    }
    // Candidates ranked after the winner stay in play: re-arm their heap
    // entries (their just-solved ratios remain valid bounds).
    for (size_t i = win + 1; i < wave.size(); ++i) {
      auto it = pairs.find(pair_key(wave[i].first, wave[i].second));
      if (it == pairs.end()) continue;
      ++it->second.epoch;
      push_entry(wave[i].first, wave[i].second, it->second);
    }
    const int a = wave[win].first, b = wave[win].second;
    ev->commit_merge(a, b);
    ++res.merges;
    wave_cap = 1;
    // Fold b's rank structure into a: weights add, bounds max-transfer
    // (merging a∪b with x is coarser than merging b with x was, so b's
    // bound still holds).
    for (int x : partners[static_cast<size_t>(b)]) {
      uint64_t kbx = pair_key(std::min(b, x), std::max(b, x));
      auto it = pairs.find(kbx);
      if (it == pairs.end()) continue;
      int w = it->second.weight;
      pairs.erase(it);
      auto bx = bounds.find(kbx);
      double bound = bx != bounds.end() ? bx->second : 0.0;
      if (bx != bounds.end()) bounds.erase(bx);
      if (x == a) continue;  // the committed pair itself
      uint64_t kax = pair_key(std::min(a, x), std::max(a, x));
      if (bound > 0) {
        double& bd = bounds[kax];
        bd = std::max(bd, bound);
      }
      auto [pit, fresh] = pairs.try_emplace(kax);
      pit->second.weight += w;
      ++pit->second.epoch;
      push_entry(std::min(a, x), std::max(a, x), pit->second);
      if (fresh) {
        // An existing (a,x) already has the partner links; only a pair
        // born from the fold needs them.
        partners[static_cast<size_t>(a)].push_back(x);
        partners[static_cast<size_t>(x)].push_back(a);
      }
    }
    partners[static_cast<size_t>(b)].clear();
  }

  // ---- refinement phase ---------------------------------------------------
  // Single-group moves between adjacent clusters that strictly reduce the
  // synthesized gate cost while staying inside the budget. One pass, in
  // fine-group order: bounded and deterministic. (Moves are not monotone,
  // so no bound caching here.)
  if (opt.refine) {
    std::vector<std::vector<int>> nbr_banks(G);
    for (const auto& e : fine.cg.edges()) {
      if (e.from < static_cast<int>(2 * G)) {
        nbr_banks[static_cast<size_t>(e.from) / 2].push_back(e.to);
      }
      if (e.to < static_cast<int>(2 * G)) {
        nbr_banks[static_cast<size_t>(e.to) / 2].push_back(e.from);
      }
    }
    size_t cur_cost = synthesis_cost(ev->quotient(), opt.protocol, tech);
    for (size_t g = 0; g < G; ++g) {
      int c = cq.cluster_of(static_cast<int>(g));
      if (!cq.mergeable(c) || cq.members(c).size() < 2) continue;
      std::vector<int> targets;
      for (int nb : nbr_banks[g]) {
        if (nb >= static_cast<int>(2 * G)) continue;  // env
        int other = cq.cluster_of(nb / 2);
        if (other != c && cq.mergeable(other)) targets.push_back(other);
      }
      std::sort(targets.begin(), targets.end());
      targets.erase(std::unique(targets.begin(), targets.end()),
                    targets.end());
      for (int t : targets) {
        ++res.stats.candidates;
        if (ev->probe_move_period(static_cast<int>(g), t) > limit + eps) {
          continue;
        }
        size_t cost = ev->probe_move_cost(static_cast<int>(g), t);
        if (cost >= cur_cost) continue;
        ev->commit_move(static_cast<int>(g), t);
        cur_cost = cost;
        ++res.moves;
        break;
      }
    }
  }

  // ---- wrap up ------------------------------------------------------------
  std::vector<std::vector<nl::CellId>> out;
  for (size_t c = 0; c < G; ++c) {
    if (!cq.live(static_cast<int>(c)) || !cq.mergeable(static_cast<int>(c))) {
      continue;  // RAMs auto-append
    }
    std::vector<nl::CellId> cells;
    for (int g : cq.members(static_cast<int>(c))) {
      cells.push_back(perff.groups()[static_cast<size_t>(g)].cells[0]);
    }
    out.push_back(std::move(cells));
  }
  res.partition = Partition::from_groups(ff_netlist, std::move(out));
  ctl::ControlGraph final_q = ev->quotient();
  res.period = predicted_period(final_q, opt.protocol, tech);
  res.cost = synthesis_cost(final_q, opt.protocol, tech);
  res.stats.warm_solves = ev->warm_solves();
  res.stats.cold_solves = ev->cold_solves();
  res.evaluations = res.stats.warm_solves + res.stats.cold_solves;
  return res;
}

}  // namespace

PartitionOptResult optimize_partition(const nl::Netlist& ff_netlist,
                                      nl::NetId clock, const cell::Tech& tech,
                                      const PartitionOptOptions& opt) {
  return optimize_impl(ff_netlist, clock, tech, opt, /*incremental=*/true);
}

PartitionOptResult optimize_partition_reference(
    const nl::Netlist& ff_netlist, nl::NetId clock, const cell::Tech& tech,
    const PartitionOptOptions& opt) {
  return optimize_impl(ff_netlist, clock, tech, opt, /*incremental=*/false);
}


}  // namespace desyn::flow

#include "core/partition.h"

#include <algorithm>
#include <charconv>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <unordered_map>

#include "base/fault.h"
#include "core/adjacency.h"
#include "core/certificate.h"
#include "core/cluster_rank.h"
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
                         ctl::Protocol protocol, double margin,
                         int /*opt_jobs*/) {
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
      return optimize_partition(ff_netlist, clock, tech, opt).partition;
    }
    case PartitionSpec::Mode::Explicit:
      DESYN_ASSERT(spec.partition.has_value(),
                   "explicit PartitionSpec without a partition");
      return *spec.partition;
  }
  fail("unreachable PartitionSpec mode");
}

std::pair<int64_t, int64_t> exact_decimal(double v) {
  char buf[64];
  const auto [end, ec] =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::fixed);
  DESYN_ASSERT(ec == std::errc() && v >= 0, "not a finite non-negative number");
  int64_t num = 0, den = 1;
  bool fraction = false;
  for (const char* c = buf; c != end; ++c) {
    if (*c == '.') {
      fraction = true;
      continue;
    }
    DESYN_ASSERT(num < INT64_MAX / 10 && den < INT64_MAX / 10,
                 "too many digits for an exact fraction");
    num = 10 * num + (*c - '0');
    if (fraction) den *= 10;
  }
  const int64_t common = std::gcd(num, den);
  return {num / common, den / common};
}

namespace {

/// The critical cycle of `cg`'s timed model, with its exact sums.
pn::CycleRatioResult predicted_cycle(const ctl::ControlGraph& cg,
                                     ctl::Protocol protocol,
                                     const cell::Tech& tech) {
  return pn::max_cycle_ratio(ctl::hardware_model(cg, protocol, tech).mg);
}

}  // namespace

double predicted_period(const ctl::ControlGraph& cg, ctl::Protocol protocol,
                        const cell::Tech& tech) {
  return predicted_cycle(cg, protocol, tech).ratio;
}

// ---------------------------------------------------------------------------
// optimize_partition
// ---------------------------------------------------------------------------

namespace {

/// The largest fraction a/b <= p/q (p >= 0, q > 0) with b <= max_den. No
/// fraction of a denominator <= max_den lies in (a/b, p/q], so a cycle of
/// at most max_den tokens fits a/b exactly when it fits p/q.
std::pair<int64_t, int64_t> floor_fraction(__int128 p, __int128 q,
                                           int64_t max_den) {
  int64_t num = 0, den = 1;
  for (int64_t b = 1; b <= max_den; ++b) {
    const auto a = static_cast<int64_t>(p * b / q);
    if (static_cast<__int128>(a) * den > static_cast<__int128>(num) * b) {
      num = a;
      den = b;
    }
  }
  return {num, den};
}

/// Total controller + matched-delay cell count the real synthesis would
/// spend on `cg` — counted by running it against a scratch netlist, so the
/// optimizer's cost can never drift from the hardware.
size_t synthesis_cost(const ctl::ControlGraph& cg, ctl::Protocol p,
                      const cell::Tech& tech) {
  nl::Netlist scratch("cost_model");
  nl::Builder b(scratch);
  return ctl::synthesize_controllers(b, cg, p, tech).cells.size();
}

// ---------------------------------------------------------------------------
// Candidate evaluators: how a tentative merge gets a verdict.
//
// The search loop below is shared verbatim between the production
// certificate scorer and the cold reference oracle; only this interface
// differs. Both track the committed clustering themselves (driven by
// commit_merge) so a probe is always measured against the same state the
// loop believes in.
// ---------------------------------------------------------------------------

class Evaluator {
 public:
  virtual ~Evaluator() = default;
  /// Against the committed clustering: does the merge fit the limit?
  virtual bool probe_merge(int keep, int drop) = 0;
  virtual void commit_merge(int keep, int drop) = 0;
  /// The committed clustering itself — the single source of truth the
  /// search loop reads (labels, members, liveness).
  virtual const IncrementalQuotient& clusters() const = 0;
  virtual size_t warm_solves() const = 0;
  virtual size_t cold_solves() const = 0;
};

/// The cold oracle: every probe re-derives the full quotient control graph
/// and solves it from scratch through the exact same ctl::hardware_model /
/// max_cycle_ratio path the flow uses.
class ReferenceEvaluator final : public Evaluator {
 public:
  ReferenceEvaluator(const ctl::ControlGraph& fine,
                     std::vector<char> merge_ok, ctl::Protocol p,
                     const cell::Tech& tech, int64_t limit_num,
                     int64_t limit_den)
      : cq_(fine, std::move(merge_ok)),
        p_(p),
        tech_(tech),
        limit_num_(limit_num),
        limit_den_(limit_den) {}

  bool probe_merge(int keep, int drop) override {
    cq_.merge(keep, drop);
    ++cold_;
    const pn::CycleRatioResult r =
        predicted_cycle(cq_.materialize(), p_, tech_);
    cq_.undo();
    return !pn::ratio_greater(r.delay, r.tokens, limit_num_, limit_den_);
  }
  void commit_merge(int keep, int drop) override { cq_.merge(keep, drop); }
  const IncrementalQuotient& clusters() const override { return cq_; }
  size_t warm_solves() const override { return 0; }
  size_t cold_solves() const override { return cold_; }

 private:
  IncrementalQuotient cq_;
  ctl::Protocol p_;
  const cell::Tech& tech_;
  int64_t limit_num_, limit_den_;
  size_t cold_ = 0;
};

/// The production scorer: every candidate is settled by the exact
/// potential certificate (core/certificate.h) — an O(deg) arc patch plus a
/// backward repair, no max-cycle-ratio solve.
class IncrementalEvaluator final : public Evaluator {
 public:
  IncrementalEvaluator(const ctl::ControlGraph& fine,
                       std::vector<char> merge_ok, ctl::Protocol p,
                       const cell::Tech& tech, int64_t limit_num,
                       int64_t limit_den)
      : cq_(fine, std::move(merge_ok)),
        cert_(fine, cq_, p, tech, limit_num, limit_den) {}

  bool probe_merge(int keep, int drop) override {
    fault::maybe_throw("partition.probe");
    return cert_.probe_merge(keep, drop);
  }
  void commit_merge(int keep, int drop) override {
    cert_.commit_merge(keep, drop);
  }
  const IncrementalQuotient& clusters() const override { return cq_; }
  size_t warm_solves() const override { return cert_.probes(); }
  size_t cold_solves() const override { return 0; }

 private:
  IncrementalQuotient cq_;
  BudgetCertificate cert_;
};

// ---------------------------------------------------------------------------
// The shared greedy search
// ---------------------------------------------------------------------------

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

  // The per-flip-flop start: the one cold solve the search itself needs.
  const pn::CycleRatioResult start =
      predicted_cycle(fine.cg, opt.protocol, tech);
  res.perff_period = start.ratio;
  pn::CycleRatioResult baseline;
  {
    // The Prefix baseline is a quotient of the fine graph too: every
    // flip-flop group joins the first group with its bank_prefix, and RAM
    // groups stay singletons, as in Partition::prefix.
    IncrementalQuotient prefix(fine.cg, merge_ok);
    std::unordered_map<std::string, int> first;
    for (size_t g = 0; g < G; ++g) {
      if (!merge_ok[g]) continue;
      auto [it, inserted] = first.try_emplace(
          bank_prefix(ff_netlist.cell(perff.groups()[g].cells[0]).name),
          static_cast<int>(g));
      if (!inserted) prefix.merge(it->second, static_cast<int>(g));
    }
    baseline = predicted_cycle(prefix.materialize(), opt.protocol, tech);
    res.baseline_period = baseline.ratio;
    res.baseline_banks = prefix.num_live();
  }
  // Coarsening only adds rendezvous, so merged periods are never below the
  // per-flip-flop start; measuring the budget against the larger of the
  // two baselines keeps the limit reachable: with a budget >= 1 the start
  // fits. The limit is exact: the budget's decimal fraction times that
  // baseline's cycle sums, floored to the denominators a simple cycle's
  // token count can take (at most one token per arc, one arc per
  // transition), which changes no verdict and keeps the potentials small.
  const pn::CycleRatioResult& base =
      pn::ratio_greater(start.delay, start.tokens, baseline.delay,
                        baseline.tokens)
          ? start
          : baseline;
  const auto [bn, bd] = exact_decimal(opt.period_budget);
  const auto [limit_num, limit_den] = floor_fraction(
      static_cast<__int128>(bn) * base.delay,
      static_cast<__int128>(bd) * std::max<int64_t>(base.tokens, 1),
      static_cast<int64_t>(2 * fine.cg.num_banks()));

  std::unique_ptr<Evaluator> ev;
  if (incremental) {
    ev = std::make_unique<IncrementalEvaluator>(
        fine.cg, merge_ok, opt.protocol, tech, limit_num, limit_den);
  } else {
    ev = std::make_unique<ReferenceEvaluator>(
        fine.cg, merge_ok, opt.protocol, tech, limit_num, limit_den);
  }

  // The committed clustering, owned and advanced by the evaluator; labels
  // stay the smallest fine-group index, so the tie-break hash is stable.
  const IncrementalQuotient& cq = ev->clusters();

  // ---- initial candidate weights -----------------------------------------
  // Co-occurrence mass over the *fine* graph: +1 per direct fine edge
  // between two groups, +1 per fine bank with edges to (from) both groups
  // on the same side. Additive under merging — W(a∪b, x) = W(a,x) +
  // W(b,x) — which is what lets the rank structure update in O(deg) per
  // commit instead of a full O(V+E) rescan per round. Accumulated one group
  // a at a time: the rank structure counts a's direct edges and, for every
  // bank side listing a, the tail of that sorted list after a.
  ClusterRank rank(G);
  {
    const size_t B = fine.cg.num_banks();
    // Per bank: the sorted mergeable groups it drives (first B lists) and
    // is driven by (last B lists).
    std::vector<std::vector<int>> sides(2 * B);
    std::vector<std::vector<int>> direct(G);  // b > a, once per fine edge
    auto group_of_bank = [&](int bank) {
      return bank < static_cast<int>(2 * G) ? bank / 2 : -1;
    };
    for (const auto& e : fine.cg.edges()) {
      int gf = group_of_bank(e.from), gt = group_of_bank(e.to);
      bool mf = gf >= 0 && merge_ok[static_cast<size_t>(gf)];
      bool mt = gt >= 0 && merge_ok[static_cast<size_t>(gt)];
      if (mf && mt && gf != gt) {
        direct[static_cast<size_t>(std::min(gf, gt))].push_back(
            std::max(gf, gt));
      }
      if (mt) sides[static_cast<size_t>(e.from)].push_back(gt);
      if (mf) sides[B + static_cast<size_t>(e.to)].push_back(gf);
    }
    // tails[a]: (side, index past a) for every side list holding a.
    std::vector<std::vector<std::pair<uint32_t, uint32_t>>> tails(G);
    for (size_t s = 0; s < sides.size(); ++s) {
      std::vector<int>& v = sides[s];
      std::sort(v.begin(), v.end());
      v.erase(std::unique(v.begin(), v.end()), v.end());
      for (size_t i = 0; i + 1 < v.size(); ++i) {
        tails[static_cast<size_t>(v[i])].push_back(
            {static_cast<uint32_t>(s), static_cast<uint32_t>(i + 1)});
      }
    }
    for (int a = 0; a < static_cast<int>(G); ++a) {
      for (int b : direct[static_cast<size_t>(a)]) rank.bump(a, b);
      for (const auto& [s, from] : tails[static_cast<size_t>(a)]) {
        const std::vector<int>& v = sides[s];
        for (size_t i = from; i < v.size(); ++i) rank.bump(a, v[i]);
      }
    }
  }

  // ---- greedy merges -----------------------------------------------------
  // Pop candidates in rank order and commit each one that stays in budget.
  // A failed candidate stays over budget, as later states are coarser and
  // coarsening only adds rendezvous: its failure mark rejects it probe-free
  // for good, and a fold carries the mark from (b,x) to the coarser (a∪b,x).
  while (const std::optional<ClusterRank::Candidate> c = rank.pop()) {
    ++res.stats.candidates;
    // The oracle deliberately skips pruning: it re-solves pruned candidates
    // cold, so an invalid mark makes the two searches commit differently.
    const bool pruned = incremental && c->failed;
    res.stats.pruned += pruned;
    if (pruned || !ev->probe_merge(c->a, c->b)) {
      rank.reject();
      continue;
    }
    ev->commit_merge(c->a, c->b);
    ++res.merges;
    rank.merge();
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
  const ctl::ControlGraph final_q = cq.materialize();
  res.period = predicted_period(final_q, opt.protocol, tech);
  res.cost = synthesis_cost(final_q, opt.protocol, tech);
  res.stats.warm_solves = ev->warm_solves();
  res.stats.cold_solves = 1 + ev->cold_solves();  // + the start
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

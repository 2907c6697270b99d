#include "core/adjacency.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>

namespace desyn::flow {

namespace {

Ps with_margin(Ps delay, double margin) {
  return static_cast<Ps>(std::ceil(static_cast<double>(delay) * margin));
}

constexpr Ps kNone = std::numeric_limits<Ps>::min();

}  // namespace

BankTiming::BankTiming(const nl::Netlist& nl, const LatchifyResult& lr,
                       const cell::Tech& tech, std::vector<Ps> insertion)
    : nl_(nl),
      lr_(lr),
      sta_(nl, tech),
      insertion_(std::move(insertion)),
      captures_(nl.num_nets()),
      worst_(lr.banks.size(), kNone) {
  for (size_t d = 0; d < lr.banks.size(); ++d) {
    const int bank = static_cast<int>(d);
    auto watch = [&](nl::CellId c) {
      const Ps ins = insertion_of(c);
      if (ins < 0) return;
      const nl::CellData& cd = nl.cell(c);
      for (size_t i = 0; i < cd.ins.size(); ++i) {
        if (!sta::Sta::data_endpoint_pin(cd, i)) continue;
        auto& w = captures_[cd.ins[i].value()];
        if (!w.empty() && w.back().bank == bank) {
          w.back().ins = std::min(w.back().ins, ins);
        } else {
          w.push_back({bank, ins});
        }
      }
    };
    for (nl::CellId c : lr.banks[d].latches) watch(c);
    for (nl::CellId c : lr.banks[d].rams) watch(c);
  }
}

const BankTiming::Reach& BankTiming::from_bank(size_t s) {
  const Bank& src = lr_.banks[s];
  sources_.clear();
  auto launch = [&](nl::CellId c, nl::NetId out) {
    const Ps ins = insertion_of(c);
    if (ins >= 0) sources_.push_back({out, ins + sta_.cell_delay(c)});
  };
  // Latches launch at their enable -> Q delay; RAM read data at the access
  // time (relative to the write pulse of this odd bank).
  for (nl::CellId c : src.latches) launch(c, nl_.cell(c).outs[0]);
  for (nl::CellId c : src.rams) {
    for (nl::NetId rd : nl_.cell(c).outs) launch(c, rd);
  }
  return propagate(static_cast<int>(s));
}

const BankTiming::Reach& BankTiming::from_inputs(nl::NetId clock) {
  sources_.clear();
  for (nl::NetId in : nl_.inputs()) {
    if (in != clock) sources_.push_back({in, 0});
  }
  return propagate(-1);
}

const BankTiming::Reach& BankTiming::propagate(int src) {
  reach_.banks.clear();
  reach_.po = sta::kUnreached;
  if (sources_.empty()) return reach_;
  sta_.arrivals_sparse(sources_, scratch_);
  for (nl::NetId n : scratch_.touched) {
    const Ps a = scratch_.arr[n.value()];
    for (const Capture& c : captures_[n.value()]) {
      if (c.bank == src) continue;
      Ps& w = worst_[static_cast<size_t>(c.bank)];
      if (w == kNone) dests_.push_back(c.bank);
      w = std::max(w, a - c.ins);
    }
  }
  // Bank order keeps the edge order deterministic.
  std::sort(dests_.begin(), dests_.end());
  for (int d : dests_) {
    reach_.banks.push_back({d, worst_[static_cast<size_t>(d)]});
    worst_[static_cast<size_t>(d)] = kNone;
  }
  dests_.clear();
  for (nl::NetId out : nl_.outputs()) {
    reach_.po = std::max(reach_.po, scratch_.arr[out.value()]);
  }
  scratch_.reset();
  return reach_;
}

std::vector<ctl::ControlGraph::Edge> timed_edges(
    const nl::Netlist& nl, const LatchifyResult& lr, nl::NetId clock,
    const cell::Tech& tech, const Margins& margins,
    std::span<const char> sources) {
  const int nbanks = static_cast<int>(lr.banks.size());
  const int env_snk = nbanks, env_src = nbanks + 1;
  auto timed = [&](int b) {
    return sources.empty() || sources[static_cast<size_t>(b)];
  };
  std::vector<ctl::ControlGraph::Edge> edges;
  // The margin is looked up per *destination* bank: every matched delay
  // protects the capture at its endpoint, which is where optimize_margins
  // shaves slack.
  auto add = [&](int from, const BankTiming::Reach& r) {
    for (auto [to, a] : r.banks) {
      const Ps setup = lr.banks[static_cast<size_t>(to)].rams.empty()
                           ? tech.latch_setup()
                           : tech.dff_setup();
      edges.push_back({from, to, with_margin(a + setup, margins.of(to))});
    }
  };
  BankTiming timing(nl, lr, tech);
  for (int s = 0; s < nbanks; ++s) {
    if (!timed(s)) continue;
    const BankTiming::Reach& r = timing.from_bank(static_cast<size_t>(s));
    add(s, r);
    // Primary outputs observed by the environment sink.
    if (r.po != sta::kUnreached && !lr.banks[static_cast<size_t>(s)].even) {
      edges.push_back({s, env_snk, with_margin(r.po, margins.of(env_snk))});
    }
  }
  if (timed(env_src)) add(env_src, timing.from_inputs(clock));
  return edges;
}

AdjacencyResult extract_control_graph(const nl::Netlist& nl,
                                      const LatchifyResult& lr,
                                      nl::NetId clock,
                                      const cell::Tech& tech,
                                      const Margins& margins,
                                      ctl::Protocol protocol) {
  AdjacencyResult res;
  for (const Bank& b : lr.banks) res.cg.add_bank(b.name, b.even);
  res.env_snk = res.cg.add_bank("env_snk", true);
  res.env_src = res.cg.add_bank("env_src", false);

  for (const ctl::ControlGraph::Edge& e :
       timed_edges(nl, lr, clock, tech, margins)) {
    res.cg.add_edge(e.from, e.to, e.matched_delay);
  }
  res.cg.add_edge(res.env_snk, res.env_src, 0);

  // Read-before-write ordering: a RAM's write pulse (odd bank) must follow
  // the captures of every bank that consumes its read data. Synchronous
  // circuits get this for free from edge-triggered simultaneity (the
  // capturing edge samples the pre-write value); the pulse protocol needs
  // the explicit reverse edge reader -> writer.
  {
    std::vector<std::pair<int, int>> ordering;
    for (size_t s = 0; s < lr.banks.size(); ++s) {
      if (lr.banks[s].rams.empty() || lr.banks[s].even) continue;
      for (const auto& e : res.cg.edges()) {
        if (e.from != static_cast<int>(s)) continue;
        if (e.to >= static_cast<int>(lr.banks.size())) continue;  // env
        if (!lr.banks[static_cast<size_t>(e.to)].even) continue;
        ordering.push_back({e.to, static_cast<int>(s)});
      }
    }
    for (auto [reader, writer] : ordering) {
      res.cg.add_edge(reader, writer, 0);
    }
  }

  // Command stability for the fully-decoupled protocol: a RAM commits its
  // write on the writer bank's opening (writer+), and the command pins are
  // held by master latches in other even banks. Lockstep and semi-decoupled
  // order writer+ after those masters' captures through their own arcs
  // (a- -> b- resp. a- -> b+); fully-decoupled has neither, so close the
  // loop explicitly with a writer -> command-source edge, whose b- -> a+
  // successor arc is exactly "commit only after every command source
  // captured".
  if (protocol == ctl::Protocol::FullyDecoupled) {
    std::vector<std::pair<int, int>> closures;
    for (size_t s = 0; s < lr.banks.size(); ++s) {
      if (lr.banks[s].rams.empty() || lr.banks[s].even) continue;
      for (const auto& e : res.cg.edges()) {
        if (e.to != static_cast<int>(s)) continue;
        if (e.from >= static_cast<int>(lr.banks.size())) continue;  // env
        closures.push_back({static_cast<int>(s), e.from});
      }
    }
    for (auto [writer, cmd_src] : closures) {
      res.cg.add_edge(writer, cmd_src, 0);
    }
  }

  // Banks without a predecessor or successor park on the environment so the
  // controller network stays connected (e.g. registers whose outputs are
  // unobservable). Parking only ever adds edges incident to the env pair,
  // so one pass over the edges settles every bank's flags up front.
  std::vector<char> has_pred(res.cg.num_banks(), 0),
      has_succ(res.cg.num_banks(), 0);
  for (const auto& e : res.cg.edges()) {
    has_pred[static_cast<size_t>(e.to)] = 1;
    has_succ[static_cast<size_t>(e.from)] = 1;
  }
  for (size_t i = 0; i < lr.banks.size(); ++i) {
    int bank = static_cast<int>(i);
    if (!has_pred[i]) {
      if (lr.banks[i].even) {
        res.cg.add_edge(res.env_src, bank, 0);
      } else {
        res.cg.add_edge(res.env_snk, bank, 0);
      }
    }
    if (!has_succ[i]) {
      if (lr.banks[i].even) {
        res.cg.add_edge(bank, res.env_src, 0);
      } else {
        res.cg.add_edge(bank, res.env_snk, 0);
      }
    }
  }
  res.cg.validate();
  return res;
}

AdjacencyResult extract_control_graph_eco(
    const nl::Netlist& nl, const LatchifyResult& lr, nl::NetId clock,
    const cell::Tech& tech, const Margins& margins, ctl::Protocol protocol,
    const AdjacencyResult& prev, std::span<const nl::CellId> changed,
    size_t* banks_recomputed) {
  (void)protocol;  // encoded in prev's ordering edges, which are copied
  const size_t nbanks = lr.banks.size();
  DESYN_ASSERT(prev.cg.num_banks() == nbanks + 2,
               "eco: prev built from a different partition");

  // Affected sources: walk *upstream* from the changed cells through
  // everything the STA propagates through (combinational cells, CElem/Gc,
  // the RAM/ROM read path). A storage cell reached on the walk launches
  // paths into the changed logic, so its bank's outgoing delays may move;
  // a primary input reached means the env_src propagation may move. Over-
  // approximation is safe (extra recomputation), under-approximation is a
  // correctness bug — so only latches/FFs stop the walk.
  std::vector<int> bank_of(nl.num_cells(), -1);
  for (size_t b = 0; b < nbanks; ++b) {
    for (nl::CellId c : lr.banks[b].latches) {
      bank_of[c.value()] = static_cast<int>(b);
    }
    for (nl::CellId c : lr.banks[b].rams) {
      bank_of[c.value()] = static_cast<int>(b);
    }
  }
  // Indexed by control-graph bank id; the env_src slot (nbanks + 1) flags
  // the primary-input propagation, env_snk (nbanks) is never set.
  std::vector<char> affected(nbanks + 2, 0);
  std::vector<char> seen(nl.num_cells(), 0);
  std::vector<nl::CellId> work;
  auto enter = [&](nl::CellId c) {
    if (!seen[c.value()]) {
      seen[c.value()] = 1;
      work.push_back(c);
    }
  };
  for (nl::CellId c : changed) enter(c);
  while (!work.empty()) {
    nl::CellId c = work.back();
    work.pop_back();
    const nl::CellData& cd = nl.cell(c);
    if (cd.dead) continue;
    if (bank_of[c.value()] >= 0) affected[static_cast<size_t>(bank_of[c.value()])] = 1;
    if (cell::is_latch(cd.kind) || cd.kind == cell::Kind::Dff) continue;
    for (nl::NetId in : cd.ins) {
      const nl::NetData& nd = nl.net(in);
      if (!nd.driver.valid()) {
        affected[nbanks + 1] = 1;  // primary input (or undriven) in the cone
      } else {
        enter(nd.driver);
      }
    }
  }

  AdjacencyResult res;
  for (const Bank& b : lr.banks) res.cg.add_bank(b.name, b.even);
  res.env_snk = res.cg.add_bank("env_snk", true);
  res.env_src = res.cg.add_bank("env_src", false);
  DESYN_ASSERT(res.env_snk == prev.env_snk && res.env_src == prev.env_src);

  // Re-time the affected sources' outgoing edges.
  std::unordered_map<uint64_t, Ps> fresh;
  auto key = [](int f, int t) {
    return static_cast<uint64_t>(static_cast<uint32_t>(f)) << 32 |
           static_cast<uint32_t>(t);
  };
  for (const ctl::ControlGraph::Edge& e :
       timed_edges(nl, lr, clock, tech, margins, affected)) {
    fresh[key(e.from, e.to)] = e.matched_delay;
  }
  if (banks_recomputed) {
    *banks_recomputed =
        static_cast<size_t>(std::count(affected.begin(), affected.end(), 1));
  }

  // Replay the previous edge list in order. Identical structure means
  // identical reachability, so the full extraction would produce exactly
  // this edge set in exactly this order; only delays of re-timed sources
  // substitute. STA-sized delays are strictly positive (launch delay or
  // setup, margined), pure ordering/parking edges are 0 — the assert
  // catches a re-timed source whose timed edge the propagation missed.
  size_t used = 0;
  for (const auto& e : prev.cg.edges()) {
    Ps d = e.matched_delay;
    auto it = fresh.find(key(e.from, e.to));
    if (it != fresh.end()) {
      d = it->second;
      ++used;
    } else {
      DESYN_ASSERT(!(affected[static_cast<size_t>(e.from)] &&
                     e.matched_delay > 0),
                   "eco: timed edge of a re-timed source not re-timed "
                   "(structure changed?)");
    }
    res.cg.add_edge(e.from, e.to, d);
  }
  DESYN_ASSERT(used == fresh.size(),
               "eco: re-timed a pair the previous graph lacks "
               "(structure changed?)");
  res.cg.validate();
  return res;
}

ctl::ControlGraph quotient_control_graph(
    const ctl::ControlGraph& fine, std::span<const int> bank_map,
    std::span<const ctl::ControlGraph::Bank> banks) {
  DESYN_ASSERT(bank_map.size() == fine.num_banks());
  ctl::ControlGraph q;
  for (const ctl::ControlGraph::Bank& b : banks) q.add_bank(b.name, b.even);
  for (const ctl::ControlGraph::Edge& e : fine.edges()) {
    // add_edge merges duplicates keeping the larger delay: the quotient of
    // the max-plus arrival data is the max over member edges.
    q.add_edge(bank_map[static_cast<size_t>(e.from)],
               bank_map[static_cast<size_t>(e.to)], e.matched_delay);
  }
  q.validate();
  return q;
}

// ---------------------------------------------------------------------------
// IncrementalQuotient
// ---------------------------------------------------------------------------

IncrementalQuotient::IncrementalQuotient(const ctl::ControlGraph& fine,
                                         std::vector<char> mergeable)
    : fine_(fine), mergeable_(std::move(mergeable)) {
  G_ = mergeable_.size();
  live_ = G_;
  DESYN_ASSERT(fine.num_banks() == 2 * G_ + 2,
               "per-flip-flop layout: bank pair per group plus the env pair");
  cluster_.resize(G_);
  members_.resize(G_);
  for (size_t g = 0; g < G_; ++g) {
    cluster_[g] = static_cast<int>(g);
    members_[g] = {static_cast<int>(g)};
  }
  // Per-destination worst-in over the fine edges; a cluster bank's worst is
  // the max over its member banks' (the source of an edge never matters).
  fine_wi_.assign(fine.num_banks(), 0);
  for (const ctl::ControlGraph::Edge& e : fine.edges()) {
    Ps& w = fine_wi_[static_cast<size_t>(e.to)];
    w = std::max(w, e.matched_delay);
  }
  wi_.resize(2 * G_);
  for (size_t g = 0; g < G_; ++g) {
    wi_[2 * g] = fine_wi_[2 * g];          // even/master bank
    wi_[2 * g + 1] = fine_wi_[2 * g + 1];  // odd/slave bank
  }
}

void IncrementalQuotient::merge(int keep, int drop) {
  DESYN_ASSERT(keep != drop && live(keep) && live(drop));
  DESYN_ASSERT(mergeable(keep) && mergeable(drop));
  Delta d;
  d.keep = keep;
  d.drop = drop;
  d.keep_size = members_[static_cast<size_t>(keep)].size();
  d.old_wi[0] = wi_[2 * static_cast<size_t>(keep)];
  d.old_wi[1] = wi_[2 * static_cast<size_t>(keep) + 1];
  auto& win = members_[static_cast<size_t>(keep)];
  auto& lose = members_[static_cast<size_t>(drop)];
  for (int g : lose) cluster_[static_cast<size_t>(g)] = keep;
  win.insert(win.end(), lose.begin(), lose.end());
  lose.clear();
  wi_[2 * static_cast<size_t>(keep)] =
      std::max(d.old_wi[0], wi_[2 * static_cast<size_t>(drop)]);
  wi_[2 * static_cast<size_t>(keep) + 1] =
      std::max(d.old_wi[1], wi_[2 * static_cast<size_t>(drop) + 1]);
  --live_;
  log_.push_back(d);
}

void IncrementalQuotient::undo() {
  DESYN_ASSERT(!log_.empty(), "undo() without a pending merge");
  const Delta d = log_.back();
  log_.pop_back();
  auto& win = members_[static_cast<size_t>(d.keep)];
  auto& lose = members_[static_cast<size_t>(d.drop)];
  DESYN_ASSERT(lose.empty() && win.size() > d.keep_size);
  lose.assign(win.begin() + static_cast<ptrdiff_t>(d.keep_size), win.end());
  win.resize(d.keep_size);
  for (int g : lose) cluster_[static_cast<size_t>(g)] = d.drop;
  wi_[2 * static_cast<size_t>(d.keep)] = d.old_wi[0];
  wi_[2 * static_cast<size_t>(d.keep) + 1] = d.old_wi[1];
  ++live_;
}

std::vector<int> IncrementalQuotient::bank_map(
    std::vector<ctl::ControlGraph::Bank>* banks) const {
  std::vector<int> qidx(G_, -1);
  int nq = 0;
  if (banks) banks->clear();
  for (size_t g = 0; g < G_; ++g) {
    int c = cluster_[g];
    if (qidx[static_cast<size_t>(c)] < 0) {
      qidx[static_cast<size_t>(c)] = nq++;
      if (banks) {
        banks->push_back({cat("q", nq - 1, ".m"), true});
        banks->push_back({cat("q", nq - 1, ".s"), false});
      }
    }
  }
  if (banks) {
    banks->push_back({"env_snk", true});
    banks->push_back({"env_src", false});
  }
  std::vector<int> map(fine_.num_banks());
  for (size_t g = 0; g < G_; ++g) {
    int q = qidx[static_cast<size_t>(cluster_[g])];
    map[2 * g] = 2 * q;
    map[2 * g + 1] = 2 * q + 1;
  }
  map[2 * G_] = 2 * nq;      // env_snk
  map[2 * G_ + 1] = 2 * nq + 1;  // env_src
  return map;
}

ctl::ControlGraph IncrementalQuotient::materialize() const {
  std::vector<ctl::ControlGraph::Bank> banks;
  std::vector<int> map = bank_map(&banks);
  return quotient_control_graph(fine_, map, banks);
}

}  // namespace desyn::flow

#include "flow/engine.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <sstream>

#include "base/cancel.h"
#include "base/fault.h"
#include "check/check.h"
#include "core/adjacency.h"
#include "ctl/controller.h"
#include "netlist/writer.h"

namespace desyn::flow {

// ---------------------------------------------------------------------------
// Stage artifacts
// ---------------------------------------------------------------------------

struct Engine::LatchArtifact : Artifact {
  nl::Netlist netlist;  ///< the latchified circuit (pre-controller)
  LatchifyResult lr;
  LatchArtifact(nl::Netlist n, LatchifyResult l)
      : netlist(std::move(n)), lr(std::move(l)) {}
};

struct Engine::AdjArtifact : Artifact {
  AdjacencyResult adj;
  Hash256 cg_hash;  ///< content hash of adj — the mcr stage's key input
  explicit AdjArtifact(AdjacencyResult a) : adj(std::move(a)) {}
};

struct Engine::SynthArtifact : Artifact {
  DesyncResult result;
  explicit SynthArtifact(DesyncResult r) : result(std::move(r)) {}
};

struct Engine::McrArtifact : Artifact {
  double period = 0;  ///< the max-cycle-ratio prediction
};

namespace {

struct PartArtifact : Artifact {
  Partition partition;
  explicit PartArtifact(Partition p) : partition(std::move(p)) {}
};

struct LintArtifact : Artifact {
  check::LintReport rep;
};

struct McAnalysisArtifact : Artifact {
  McReport rep;
};

struct ResultArtifact : Artifact {
  std::shared_ptr<const std::string> verilog;
  FlowStats stats;
};

// ---------------------------------------------------------------------------
// Canonical keys
// ---------------------------------------------------------------------------

Sha256& mix(Sha256& h, const Hash256& k) {
  return h.field(std::string_view(reinterpret_cast<const char*>(k.bytes.data()),
                                  k.bytes.size()));
}
Sha256& mix(Sha256& h, std::string_view s) { return h.field(s); }

/// Hash the per-bank margin overrides (DesyncOptions::margins) into a
/// stage key. They change the hardware, so every stage from adjacency on
/// must key on them — unlike the optimizer and mc job counts, which never
/// do. Deliberately *not* part of the partition key: the partitioner always
/// scores at the global margin (bank ids do not exist before the
/// clustering is fixed), so per-bank overrides cannot change its answer —
/// pinned by EngineTest.CacheKeySensitivity.
Sha256& hash_margins(Sha256& h, const std::vector<double>& margins) {
  h.field_u64(margins.size());
  for (double m : margins) h.field_f64(m);
  return h;
}

/// The key of a stage at one design coordinate: "<tag>", the tech, the
/// stage's upstream identity (the latchify key for adjacency and synth;
/// ff_hash, clock name and partition key for result, lint and mc), then
/// the knobs that shape the hardware: margin, per-bank margins, protocol.
/// Returned open, so a stage can append knobs of its own.
template <class... Upstream>
Sha256 coordinate_hash(std::string_view tag, const cell::Tech& tech,
                       const DesyncOptions& opt, const Upstream&... up) {
  Sha256 h;
  h.field(tag).field(tech.name());
  (mix(h, up), ...);
  h.field_f64(opt.margin);
  hash_margins(h, opt.margins);
  h.field_u64(static_cast<uint64_t>(opt.protocol));
  return h;
}

/// Content hash of an explicit partition (group names, ram flags, member
/// cell names — id independent; the census pins the ids separately).
Hash256 partition_content_hash(const Partition& p, const nl::Netlist& nl) {
  Sha256 h;
  h.field("part-v1");
  h.field_u64(p.num_groups());
  for (const PartitionGroup& g : p.groups()) {
    h.field(g.name).field_u64(g.ram ? 1 : 0).field_u64(g.cells.size());
    for (nl::CellId c : g.cells) h.field(nl.cell(c).name);
  }
  return h.digest();
}

Hash256 control_graph_hash(const AdjacencyResult& a) {
  Sha256 h;
  h.field("cg-v1");
  h.field_u64(a.cg.num_banks());
  for (size_t i = 0; i < a.cg.num_banks(); ++i) {
    const ctl::ControlGraph::Bank& b = a.cg.bank(static_cast<int>(i));
    h.field(b.name).field_u64(b.even ? 1 : 0);
  }
  h.field_i64(a.env_snk).field_i64(a.env_src);
  h.field_u64(a.cg.edges().size());
  for (const ctl::ControlGraph::Edge& e : a.cg.edges()) {
    h.field_i64(e.from).field_i64(e.to).field_i64(e.matched_delay);
  }
  return h.digest();
}

// A delay-only edit leaves controller synthesis byte-identical when every
// edge's quantized matched-delay chain is unchanged: synthesis sizes each
// chain to a per-group maximum of the monotone matched_delay_cells(), so
// per-edge quantized equality implies every aggregate chain length is equal
// and the synthesized cells (and their names) come out identical.
bool same_quantized_control(const AdjacencyResult& a, const AdjacencyResult& b,
                            const cell::Tech& tech) {
  if (a.env_snk != b.env_snk || a.env_src != b.env_src ||
      a.cg.num_banks() != b.cg.num_banks() ||
      a.cg.edges().size() != b.cg.edges().size()) {
    return false;
  }
  for (size_t i = 0; i < a.cg.num_banks(); ++i) {
    const ctl::ControlGraph::Bank& ba = a.cg.bank(static_cast<int>(i));
    const ctl::ControlGraph::Bank& bb = b.cg.bank(static_cast<int>(i));
    if (ba.name != bb.name || ba.even != bb.even) return false;
  }
  for (size_t i = 0; i < a.cg.edges().size(); ++i) {
    const ctl::ControlGraph::Edge& ea = a.cg.edges()[i];
    const ctl::ControlGraph::Edge& eb = b.cg.edges()[i];
    if (ea.from != eb.from || ea.to != eb.to) return false;
    if (ctl::matched_delay_cells(ea.matched_delay, tech) !=
        ctl::matched_delay_cells(eb.matched_delay, tech)) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Structural diff — the gate of every ECO fast path
// ---------------------------------------------------------------------------

struct NetlistDiff {
  /// True when the netlists are structurally identical (same nets, cells,
  /// names, connectivity, payload shapes) and differ at most in per-cell
  /// fields: a pin-compatible kind, an init value, payload contents.
  bool structural_same = false;
  std::vector<nl::CellId> changed;  ///< the field-edited cells
};

NetlistDiff diff_netlists(const nl::Netlist& a, const nl::Netlist& b) {
  NetlistDiff d;
  if (a.name() != b.name() || a.num_nets() != b.num_nets() ||
      a.num_cells() != b.num_cells() ||
      a.num_live_cells() != b.num_live_cells() ||
      a.inputs() != b.inputs() || a.outputs() != b.outputs()) {
    return d;
  }
  for (uint32_t i = 0; i < a.num_nets(); ++i) {
    const nl::NetData& na = a.net(nl::NetId(i));
    const nl::NetData& nb = b.net(nl::NetId(i));
    if (na.name != nb.name || na.driver != nb.driver ||
        na.driver_pin != nb.driver_pin) {
      return d;
    }
  }
  for (uint32_t i = 0; i < a.num_cells(); ++i) {
    const nl::CellData& ca = a.cell(nl::CellId(i));
    const nl::CellData& cb = b.cell(nl::CellId(i));
    if (ca.name != cb.name || ca.dead != cb.dead || ca.ins != cb.ins ||
        ca.outs != cb.outs || ca.p0 != cb.p0 || ca.p1 != cb.p1 ||
        ca.group != cb.group) {
      return d;
    }
    if (ca.dead) continue;
    if ((ca.payload < 0) != (cb.payload < 0) ||
        (ca.payload >= 0 &&
         (ca.payload != cb.payload ||
          a.payload(ca.payload).size() != b.payload(cb.payload).size()))) {
      return d;  // payload shape is structure, contents are data
    }
    bool edited = false;
    if (ca.kind != cb.kind) {
      // Only pin-structure-preserving kind flips qualify as field edits.
      if (cell::num_inputs(cb.kind, static_cast<int>(ca.ins.size()), ca.p0,
                           ca.p1) != static_cast<int>(ca.ins.size()) ||
          cell::num_outputs(cb.kind, ca.p0, ca.p1) !=
              static_cast<int>(ca.outs.size())) {
        return d;
      }
      edited = true;
    }
    if (ca.init != cb.init) edited = true;
    if (ca.payload >= 0 && a.payload(ca.payload) != b.payload(cb.payload)) {
      edited = true;
    }
    if (edited) d.changed.push_back(nl::CellId(i));
  }
  d.structural_same = true;
  return d;
}

// ---------------------------------------------------------------------------
// Disk serialization (the kinds worth persisting)
// ---------------------------------------------------------------------------

std::string serialize_partition(const Partition& p, const nl::Netlist& nl) {
  // FF groups as member-name lines; RAM singletons are reconstructed by
  // from_groups(), and group naming is deterministic post-canonicalize,
  // so the round trip is exact for optimizer output.
  std::ostringstream os;
  size_t ff_groups = 0;
  for (const PartitionGroup& g : p.groups()) ff_groups += g.ram ? 0 : 1;
  os << "groups " << ff_groups << "\n";
  for (const PartitionGroup& g : p.groups()) {
    if (g.ram) continue;
    for (size_t i = 0; i < g.cells.size(); ++i) {
      os << (i ? " " : "") << nl.cell(g.cells[i]).name;
    }
    os << "\n";
  }
  return std::move(os).str();
}

Partition deserialize_partition(const std::string& body,
                                const nl::Netlist& nl) {
  std::istringstream is(body);
  std::string tag;
  size_t n = 0;
  if (!(is >> tag >> n) || tag != "groups") fail("partition artifact header");
  is.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  std::vector<std::vector<nl::CellId>> groups;
  std::string line;
  while (groups.size() < n && std::getline(is, line)) {
    std::istringstream ls(line);
    std::vector<nl::CellId> group;
    std::string name;
    while (ls >> name) {
      nl::CellId c = nl.find_cell(name);
      if (!c.valid()) fail("partition artifact: unknown cell ", name);
      group.push_back(c);
    }
    if (group.empty()) fail("partition artifact: empty group line");
    groups.push_back(std::move(group));
  }
  if (groups.size() != n) fail("partition artifact: truncated");
  return Partition::from_groups(nl, std::move(groups));  // validates
}

std::string serialize_adjacency(const AdjacencyResult& a) {
  std::ostringstream os;
  os << "banks " << a.cg.num_banks() << " edges " << a.cg.edges().size()
     << " env " << a.env_snk << " " << a.env_src << "\n";
  for (size_t i = 0; i < a.cg.num_banks(); ++i) {
    const ctl::ControlGraph::Bank& b = a.cg.bank(static_cast<int>(i));
    os << (b.even ? "e " : "o ") << b.name << "\n";
  }
  for (const ctl::ControlGraph::Edge& e : a.cg.edges()) {
    os << e.from << " " << e.to << " " << e.matched_delay << "\n";
  }
  return std::move(os).str();
}

AdjacencyResult deserialize_adjacency(const std::string& body) {
  std::istringstream is(body);
  std::string t0, t1, t2;
  size_t banks = 0, edges = 0;
  AdjacencyResult a;
  if (!(is >> t0 >> banks >> t1 >> edges >> t2 >> a.env_snk >> a.env_src) ||
      t0 != "banks" || t1 != "edges" || t2 != "env") {
    fail("adjacency artifact header");
  }
  for (size_t i = 0; i < banks; ++i) {
    std::string parity, name;
    if (!(is >> parity >> name) || (parity != "e" && parity != "o")) {
      fail("adjacency artifact: bad bank line");
    }
    a.cg.add_bank(std::move(name), parity == "e");
  }
  for (size_t i = 0; i < edges; ++i) {
    int from = 0, to = 0;
    Ps delay = 0;
    if (!(is >> from >> to >> delay)) fail("adjacency artifact: bad edge");
    a.cg.add_edge(from, to, delay);
  }
  if (a.env_snk < 0 || a.env_src < 0 ||
      static_cast<size_t>(a.env_snk) >= banks ||
      static_cast<size_t>(a.env_src) >= banks) {
    fail("adjacency artifact: bad env pair");
  }
  a.cg.validate();
  return a;
}

std::string serialize_result(const ResultArtifact& r) {
  uint64_t period_bits = 0;
  static_assert(sizeof(period_bits) == sizeof(r.stats.predicted_period_ps));
  std::memcpy(&period_bits, &r.stats.predicted_period_ps, sizeof(period_bits));
  std::ostringstream os;
  os << "stats " << r.stats.banks << " " << r.stats.controller_cells << " "
     << r.stats.delay_cells << " " << r.stats.cells_in << " "
     << r.stats.cells_out << " " << period_bits << "\n"
     << *r.verilog;
  return std::move(os).str();
}

std::shared_ptr<ResultArtifact> deserialize_result(const std::string& body) {
  size_t eol = body.find('\n');
  if (eol == std::string::npos) fail("result artifact: no stats line");
  std::istringstream is(body.substr(0, eol));
  std::string tag;
  uint64_t period_bits = 0;
  auto r = std::make_shared<ResultArtifact>();
  if (!(is >> tag >> r->stats.banks >> r->stats.controller_cells >>
        r->stats.delay_cells >> r->stats.cells_in >> r->stats.cells_out >>
        period_bits) ||
      tag != "stats") {
    fail("result artifact: bad stats line");
  }
  std::memcpy(&r->stats.predicted_period_ps, &period_bits,
              sizeof(period_bits));
  r->verilog = std::make_shared<const std::string>(body.substr(eol + 1));
  return r;
}

}  // namespace

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

Engine::Engine(const cell::Tech& tech, const EngineOptions& opt)
    : tech_(tech),
      store_(ArtifactStore::Options{opt.capacity, opt.cache_dir}) {}

Engine::~Engine() = default;

StageCounters Engine::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

void Engine::count(size_t StageCounters::*c, size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  counters_.*c += n;
}

ArtifactStore::Stats Engine::store_stats() const { return store_.stats(); }

Engine::Lineage Engine::lineage_snapshot(const Hash256& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = lineage_.find(key);
  return it == lineage_.end() ? Lineage{} : it->second;
}

Engine& Engine::process(const cell::Tech& tech) {
  static std::mutex m;
  // Leaked on purpose: process-lifetime engines, usable from static
  // destructors of any translation unit.
  static auto* engines = new std::map<std::string, std::unique_ptr<Engine>>();
  std::lock_guard<std::mutex> lock(m);
  std::unique_ptr<Engine>& e = (*engines)[tech.name()];
  if (!e) e = std::make_unique<Engine>(tech);
  return *e;
}

// Every cached stage is served here, in one order:
//   1. lookup: the memory tier, then the disk tier when `des` is set;
//   2. hit: bump the stage's hit counter, return the shared artifact;
//   3. miss: fire the stage's fault probe, then a cancel point. Both sit
//      on the miss path only: a hit involves none of the machinery the
//      probe models and is too cheap to be worth aborting;
//   4. compute: the callback picks the run counter its path bumps
//      (adjacency_eco vs adjacency_runs, synth_patched vs synth_runs);
//   5. publish: the artifact goes into the store, and to disk when the
//      compute returned a body. A compute that throws publishes nothing.
template <class A, class Compute>
std::shared_ptr<const A> Engine::serve(std::string_view kind,
                                       const Hash256& key,
                                       size_t StageCounters::*hit,
                                       const char* site, Compute&& compute,
                                       const ArtifactStore::Deserializer& des) {
  if (ArtifactStore::Ptr a = store_.get(kind, key, des)) {
    count(hit);
    return std::static_pointer_cast<const A>(a);
  }
  if (site) {
    fault::maybe_throw(site);
    cancel_point();
  }
  Computed c = compute();
  if (c.ran) count(c.ran);
  store_.put(kind, key, c.art, c.body);
  return std::static_pointer_cast<const A>(c.art);
}

Engine::Submission Engine::identify(const nl::Netlist& ff, nl::NetId clock,
                                    const DesyncOptions& opt) {
  Submission sub{nl::content_hash(ff), ff.net(clock).name, {}, {}};
  Sha256 h;
  h.field("partition-v1").field(tech_.name());
  mix(h, nl::census_hash(ff));
  using M = PartitionSpec::Mode;
  switch (opt.strategy.mode) {
    case M::Prefix:
      h.field("prefix").field_u64(
          static_cast<uint64_t>(opt.strategy.prefix_depth));
      break;
    case M::PerFlipFlop:
      h.field("perff");
      break;
    case M::Single:
      h.field("single");
      break;
    case M::Explicit:
      h.field("explicit");
      mix(h, partition_content_hash(*opt.strategy.partition, ff));
      break;
    case M::Auto:
      // The optimizer reads the whole netlist (timing!) and the knobs
      // that shape its search; the ignored job-count knob (opt_jobs) is
      // excluded from every stage key, so a submission re-run with a
      // different value stays a pure cache hit.
      h.field("auto");
      mix(h, sub.ff_hash);
      h.field(sub.clock);
      h.field_f64(opt.strategy.auto_budget).field_f64(opt.margin);
      h.field_u64(static_cast<uint64_t>(opt.protocol));
      break;
  }
  sub.part_key = h.digest();
  Sha256 lh;
  lh.field("latchify-v1").field(tech_.name());
  mix(lh, sub.ff_hash).field(sub.clock);
  sub.latch_key = mix(lh, sub.part_key).digest();
  return sub;
}

Engine::Stages Engine::run_stages(const nl::Netlist& ff, nl::NetId clock,
                                  const DesyncOptions& opt,
                                  const Submission& sub) {
  DESYN_ASSERT(opt.margin >= 1.0, "matched-delay margin must be >= 1");
  for (double m : opt.margins) {
    DESYN_ASSERT(m <= 0.0 || m >= 1.0,
                 "per-bank margins must be >= 1 (or <= 0 = unset)");
  }

  // ---- partition stage ----------------------------------------------------
  // Only Auto partitions earn a disk entry: the cheap strategies recompute
  // faster than a disk round trip, and only from_groups output round-trips
  // the naming exactly.
  const bool is_auto = opt.strategy.mode == PartitionSpec::Mode::Auto;
  ArtifactStore::Deserializer part_des;
  if (is_auto) {
    part_des = [&ff](const std::string& body) -> ArtifactStore::Ptr {
      return std::make_shared<PartArtifact>(deserialize_partition(body, ff));
    };
  }
  auto part = serve<PartArtifact>(
      "partition", sub.part_key, &StageCounters::partition_hits,
      "engine.stage.partition",
      [&]() -> Computed {
        Partition p;
        if (is_auto) {
          PartitionOptOptions po;
          po.period_budget = opt.strategy.auto_budget;
          po.margin = opt.margin;
          po.protocol = opt.protocol;
          p = optimize_partition(ff, clock, tech_, po).partition;
        } else {
          p = make_partition(ff, clock, opt.strategy, tech_, opt.protocol,
                             opt.margin);
        }
        auto pa = std::make_shared<PartArtifact>(std::move(p));
        std::string body =
            is_auto ? serialize_partition(pa->partition, ff) : std::string();
        return {pa, &StageCounters::partition_runs, std::move(body)};
      },
      part_des);

  // ---- latchify stage -----------------------------------------------------
  const Hash256& latch_key = sub.latch_key;
  auto latch = serve<LatchArtifact>(
      "latchify", latch_key, &StageCounters::latchify_hits,
      "engine.stage.latchify", [&]() -> Computed {
        nl::Netlist copy = ff;
        LatchifyResult lr = latchify(copy, clock, part->partition);
        return {std::make_shared<LatchArtifact>(std::move(copy), std::move(lr)),
                &StageCounters::latchify_runs};
      });
  // The cached latched netlist may be another (canonically equal)
  // representation of the submission: re-resolve the clock by name.
  nl::NetId lclock = latch->netlist.find_net(sub.clock);
  DESYN_ASSERT(lclock.valid());

  // ---- lineage: the previous submission of this design coordinate --------
  Hash256 lineage_key;
  {
    Sha256 h;
    h.field("lineage-v1").field(tech_.name());
    h.field(ff.name()).field(sub.clock);
    h.field(opt.strategy.label());
    if (opt.strategy.mode == PartitionSpec::Mode::Explicit) {
      mix(h, partition_content_hash(*opt.strategy.partition, ff));
    }
    h.field_f64(opt.margin);
    hash_margins(h, opt.margins);
    h.field_u64(static_cast<uint64_t>(opt.protocol));
    lineage_key = h.digest();
  }
  Lineage prev = lineage_snapshot(lineage_key);
  std::optional<NetlistDiff> diff;  // computed lazily, at most once
  auto diff_vs_prev = [&]() -> const NetlistDiff& {
    if (!diff) {
      if (prev.latch == latch) {
        diff = NetlistDiff{true, {}};  // same artifact: trivially identical
      } else {
        diff = diff_netlists(prev.latch->netlist, latch->netlist);
      }
    }
    return *diff;
  };

  // ---- adjacency stage ----------------------------------------------------
  auto adj = serve<AdjArtifact>(
      "adjacency",
      coordinate_hash("adjacency-v1", tech_, opt, latch_key).digest(),
      &StageCounters::adjacency_hits, "engine.stage.adjacency",
      [&]() -> Computed {
        const Margins margins(opt.margin, opt.margins);
        AdjacencyResult ar;
        size_t StageCounters::*ran = &StageCounters::adjacency_runs;
        if (prev.latch && prev.adj && diff_vs_prev().structural_same) {
          size_t retimed = 0;
          ar = extract_control_graph_eco(latch->netlist, latch->lr, lclock,
                                         tech_, margins, opt.protocol,
                                         prev.adj->adj,
                                         diff_vs_prev().changed, &retimed);
          ran = &StageCounters::adjacency_eco;
          count(&StageCounters::eco_banks_retimed, retimed);
        } else {
          ar = extract_control_graph(latch->netlist, latch->lr, lclock, tech_,
                                     margins, opt.protocol);
        }
        auto aa = std::make_shared<AdjArtifact>(std::move(ar));
        aa->cg_hash = control_graph_hash(aa->adj);
        std::string body = serialize_adjacency(aa->adj);
        return {aa, ran, std::move(body)};
      },
      [](const std::string& body) -> ArtifactStore::Ptr {
        auto aa = std::make_shared<AdjArtifact>(deserialize_adjacency(body));
        aa->cg_hash = control_graph_hash(aa->adj);
        return aa;
      });

  // ---- synth stage --------------------------------------------------------
  auto synth = serve<SynthArtifact>(
      "synth", coordinate_hash("synth-v1", tech_, opt, latch_key).digest(),
      &StageCounters::synth_hits, "engine.stage.synth", [&]() -> Computed {
        // Patch path: the edit left the synthesized control structure
        // alone — either no matched delay moved (cg hash unchanged) or
        // every moved delay stayed inside its quantization bucket — so
        // controller synthesis would reproduce the previous netlist
        // exactly: copy it and replay the field edits onto the same cell
        // ids. Kind flips on bank latches are excluded: attach_controllers
        // rewrites latch kinds, so the delta would not commute with it.
        bool patchable =
            prev.latch && prev.adj && prev.synth &&
            diff_vs_prev().structural_same &&
            (prev.adj->cg_hash == adj->cg_hash ||
             same_quantized_control(prev.adj->adj, adj->adj, tech_));
        if (patchable) {
          std::set<uint32_t> bank_latches;
          for (const Bank& b : latch->lr.banks) {
            for (nl::CellId c : b.latches) bank_latches.insert(c.value());
          }
          for (nl::CellId c : diff_vs_prev().changed) {
            if (prev.latch->netlist.cell(c).kind !=
                    latch->netlist.cell(c).kind &&
                bank_latches.count(c.value())) {
              patchable = false;
              break;
            }
          }
        }
        if (!patchable) {
          DesyncResult r{latch->netlist,    part->partition,
                         latch->lr,         adj->adj.cg,
                         {},                adj->adj.env_snk,
                         adj->adj.env_src,  opt.protocol};
          r.ctrl = attach_controllers(r.netlist, r.banks, r.cg, opt.protocol,
                                      tech_);
          return {std::make_shared<SynthArtifact>(std::move(r)),
                  &StageCounters::synth_runs};
        }
        DesyncResult r = prev.synth->result;  // deep copy, then field-patch
        for (nl::CellId c : diff_vs_prev().changed) {
          const nl::CellData& pc = prev.latch->netlist.cell(c);
          const nl::CellData& nc = latch->netlist.cell(c);
          if (pc.kind != nc.kind) r.netlist.set_kind(c, nc.kind);
          if (pc.init != nc.init) r.netlist.set_init(c, nc.init);
          if (nc.payload >= 0 && prev.latch->netlist.payload(pc.payload) !=
                                     latch->netlist.payload(nc.payload)) {
            r.netlist.replace_payload(nc.payload,
                                      latch->netlist.payload(nc.payload));
          }
        }
        if (prev.adj->cg_hash != adj->cg_hash) {
          // Delays moved within their quantization buckets: the hardware
          // is unchanged but the result must carry the re-extracted graph.
          r.cg = adj->adj.cg;
          r.env_snk = adj->adj.env_snk;
          r.env_src = adj->adj.env_src;
        }
        return {std::make_shared<SynthArtifact>(std::move(r)),
                &StageCounters::synth_patched};
      });

  // ---- lineage update -----------------------------------------------------
  {
    std::lock_guard<std::mutex> lock(mu_);
    constexpr size_t kMaxLineage = 64;
    if (lineage_.size() > kMaxLineage && !lineage_.count(lineage_key)) {
      lineage_.clear();  // crude bound; lineage is an accelerator, not state
    }
    Lineage& l = lineage_[lineage_key];
    l.latch = latch;
    l.adj = adj;
    l.synth = synth;
  }
  return {synth, adj};
}

std::shared_ptr<const DesyncResult> Engine::desynchronize(
    const nl::Netlist& ff, nl::NetId clock, const DesyncOptions& opt) {
  count(&StageCounters::runs);
  Stages st = run_stages(ff, clock, opt, identify(ff, clock, opt));
  return {st.synth, &st.synth->result};
}

ArtifactStore::Ptr Engine::proof_setup(const nl::Netlist& ff, nl::NetId clock,
                                       const DesyncOptions& opt,
                                       const ProofBuild& build) {
  // Keyed like the synth stage: the set-up depends on the design and the
  // desynchronized circuit, never on the stimulus or the rounds compared.
  // Memory tier only; a proof builds what it misses, with no fault probe.
  const Submission sub = identify(ff, clock, opt);
  return serve<Artifact>(
      "proof", coordinate_hash("synth-v1", tech_, opt, sub.latch_key).digest(),
      &StageCounters::proof_hits, nullptr, [&]() -> Computed {
        const Stages st = run_stages(ff, clock, opt, sub);
        Sha256 h;
        h.field("sync-ref-v1").field(tech_.name());
        mix(h, sub.ff_hash).field(sub.clock);
        auto sync = serve<Artifact>(
            "sync_ref", h.digest(), &StageCounters::sync_ref_hits, nullptr,
            [&]() -> Computed {
              return {build.sync_ref(), &StageCounters::sync_ref_runs};
            });
        return {build.setup(std::move(sync), {st.synth, &st.synth->result}),
                &StageCounters::proof_runs};
      });
}

std::shared_ptr<const check::LintReport> Engine::lint(
    const nl::Netlist& ff, nl::NetId clock, const DesyncOptions& opt) {
  // Same coordinates as the result cache: anything that can change the
  // desynchronized netlist can change the report, nothing else can.
  // Memory tier only: reports are cheap to redo.
  const Submission sub = identify(ff, clock, opt);
  auto la = serve<LintArtifact>(
      "lint",
      coordinate_hash("lint-v1", tech_, opt, sub.ff_hash, sub.clock,
                      sub.part_key)
          .digest(),
      &StageCounters::lint_hits, nullptr, [&]() -> Computed {
        auto a = std::make_shared<LintArtifact>();
        a->rep = check::lint(run_stages(ff, clock, opt, sub).synth->result,
                             tech_, Margins{opt.margin, opt.margins});
        return {a, &StageCounters::lint_runs};
      });
  return {la, &la->rep};
}

std::shared_ptr<const McReport> Engine::mc(const nl::Netlist& ff,
                                           nl::NetId clock,
                                           const DesyncOptions& opt,
                                           const McOptions& mc) {
  // Result-cache coordinates plus the sampling knobs that shape the
  // distribution. `mc.jobs` is excluded: the fill and the batch solver
  // are byte-identical at any worker count (per-block writes, the
  // pn::McrBatch contract), the same exclusion the ignored optimizer job
  // counts get. Memory tier only, like lint.
  const Submission sub = identify(ff, clock, opt);
  Sha256 h = coordinate_hash("mc-v1", tech_, opt, sub.ff_hash, sub.clock,
                             sub.part_key);
  h.field_u64(mc.samples).field_u64(mc.seed);
  h.field_f64(mc.sigma);
  h.field_u64(mc.corners.size());
  for (double c : mc.corners) h.field_f64(c);
  auto ma = serve<McAnalysisArtifact>(
      "mc", h.digest(), &StageCounters::mc_hits, nullptr, [&]() -> Computed {
        auto a = std::make_shared<McAnalysisArtifact>();
        a->rep = mc_analysis(run_stages(ff, clock, opt, sub).synth->result,
                             tech_, Margins(opt.margin, opt.margins), mc);
        return {a, &StageCounters::mc_runs};
      });
  return {ma, &ma->rep};
}

FlowOutcome Engine::run(const nl::Netlist& ff, nl::NetId clock,
                        const DesyncOptions& opt) {
  count(&StageCounters::runs);
  const Submission sub = identify(ff, clock, opt);
  bool cached = true;
  auto ra = serve<ResultArtifact>(
      "result",
      coordinate_hash("result-v1", tech_, opt, sub.ff_hash, sub.clock,
                      sub.part_key)
          .digest(),
      &StageCounters::result_hits, "engine.stage.result",
      [&]() -> Computed {
        cached = false;
        Stages st = run_stages(ff, clock, opt, sub);
        // ---- mcr stage ----------------------------------------------------
        Sha256 h;
        h.field("mcr-v1").field(tech_.name());
        mix(h, st.adj->cg_hash).field_u64(static_cast<uint64_t>(opt.protocol));
        auto mcr = serve<McrArtifact>(
            "mcr", h.digest(), &StageCounters::mcr_hits, "engine.stage.mcr",
            [&]() -> Computed {
              auto m = std::make_shared<McrArtifact>();
              // The one scoring rule the optimizer and MC sample 0 share.
              m->period = predicted_period(st.adj->adj.cg, opt.protocol, tech_);
              return {m, &StageCounters::mcr_runs};
            });

        const DesyncResult& dr = st.synth->result;
        auto r = std::make_shared<ResultArtifact>();
        std::ostringstream os;
        nl::write_verilog(dr.netlist, os);
        r->verilog = std::make_shared<const std::string>(std::move(os).str());
        // The same cost split verif::check_flow_equivalence reports.
        r->stats.banks = dr.cg.num_banks();
        r->stats.controller_cells = dr.ctrl.cells.size() - dr.ctrl.delay_units;
        r->stats.delay_cells = dr.ctrl.delay_units;
        r->stats.cells_in = ff.num_live_cells();
        r->stats.cells_out = dr.netlist.num_live_cells();
        r->stats.predicted_period_ps = mcr->period;
        std::string body = serialize_result(*r);
        return {r, nullptr, std::move(body)};
      },
      deserialize_result);
  return {ra->verilog, ra->stats, cached};
}

}  // namespace desyn::flow

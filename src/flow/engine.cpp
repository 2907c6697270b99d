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

struct OptArtifact : Artifact {
  PartitionOptResult result;
  explicit OptArtifact(PartitionOptResult r) : result(std::move(r)) {}
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

/// Hash the per-bank margin overrides (DesyncOptions::margins) into a
/// stage key. They change the hardware, so every stage from adjacency on
/// must key on them — unlike opt_jobs/mc jobs, which never do.
/// Deliberately *not* part of the partition key: the partitioner always
/// scores at the global margin (bank ids do not exist before the
/// clustering is fixed), so per-bank overrides cannot change its answer —
/// pinned by EngineTest.CacheKeySensitivity.
Sha256& hash_margins(Sha256& h, const std::vector<double>& margins) {
  h.field_u64(margins.size());
  for (double m : margins) h.field_f64(m);
  return h;
}

/// Hash of the storage-cell layout (id, name, kind, macro params) in id
/// order. The legacy partition strategies read exactly this, and a cached
/// Partition's member ids are valid in any netlist with the same census.
Hash256 census_hash(const nl::Netlist& nl) {
  Sha256 h;
  h.field("census-v1");
  for (nl::CellId c : nl.cells()) {
    const nl::CellData& cd = nl.cell(c);
    if (!cell::is_storage(cd.kind)) continue;
    h.field_u64(c.value());
    h.field(cd.name);
    h.field_u64(static_cast<uint64_t>(cd.kind));
    h.field_u64(cd.p0).field_u64(cd.p1);
  }
  return h.digest();
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

Hash256 Engine::partition_key(const nl::Netlist& ff, nl::NetId clock,
                              const DesyncOptions& opt,
                              const Hash256& ff_hash) {
  Sha256 h;
  h.field("partition-v1").field(tech_.name());
  mix(h, census_hash(ff));
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
      mix(h, ff_hash);
      h.field(ff.net(clock).name);
      h.field_f64(opt.strategy.auto_budget).field_f64(opt.margin);
      h.field_u64(static_cast<uint64_t>(opt.protocol));
      break;
  }
  return h.digest();
}

std::shared_ptr<const PartitionOptResult> Engine::optimize(
    const nl::Netlist& ff, nl::NetId clock, const PartitionOptOptions& opt) {
  Sha256 h;
  h.field("optimize-v1").field(tech_.name());
  mix(h, census_hash(ff));
  mix(h, nl::content_hash(ff));
  h.field(ff.net(clock).name);
  h.field_f64(opt.period_budget).field_f64(opt.margin);
  h.field_u64(static_cast<uint64_t>(opt.protocol));
  h.field_u64(opt.seed).field_u64(opt.max_merges);
  h.field_u64(opt.refine ? 1 : 0);
  Hash256 key = h.digest();

  if (ArtifactStore::Ptr a = store_.get("optimize", key)) {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.optimize_hits;
    auto oa = std::static_pointer_cast<const OptArtifact>(a);
    return {oa, &oa->result};
  }
  PartitionOptResult r = optimize_partition(ff, clock, tech_, opt);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.optimize_runs;
  }
  auto oa = std::make_shared<OptArtifact>(std::move(r));
  store_.put("optimize", key, oa);
  return {oa, &oa->result};
}

Engine::Stages Engine::run_stages(const nl::Netlist& ff, nl::NetId clock,
                                  const DesyncOptions& opt,
                                  const Hash256& ff_hash,
                                  const Hash256& part_key) {
  DESYN_ASSERT(opt.margin >= 1.0, "matched-delay margin must be >= 1");
  for (double m : opt.margins) {
    DESYN_ASSERT(m <= 0.0 || m >= 1.0,
                 "per-bank margins must be >= 1 (or <= 0 = unset)");
  }
  const std::string clock_name = ff.net(clock).name;

  // ---- partition stage ----------------------------------------------------
  const bool is_auto = opt.strategy.mode == PartitionSpec::Mode::Auto;
  std::shared_ptr<const PartArtifact> part;
  {
    ArtifactStore::Deserializer des;
    if (is_auto) {
      // Only Auto partitions earn a disk entry: the cheap strategies
      // recompute faster than a disk round trip, and only from_groups
      // output round-trips the naming exactly.
      des = [&ff](const std::string& body) -> ArtifactStore::Ptr {
        return std::make_shared<PartArtifact>(
            deserialize_partition(body, ff));
      };
    }
    ArtifactStore::Ptr a = store_.get("partition", part_key, des);
    if (a) {
      std::lock_guard<std::mutex> lock(mu_);
      ++counters_.partition_hits;
    } else {
      // Stage-boundary probes sit in the compute branch only: a cache hit
      // involves none of the machinery the probe models. Likewise the
      // cancel points — hits are too cheap to be worth aborting.
      fault::maybe_throw("engine.stage.partition");
      cancel_point();
      Partition p;
      if (is_auto) {
        PartitionOptOptions po;
        po.period_budget = opt.strategy.auto_budget;
        po.margin = opt.margin;
        po.protocol = opt.protocol;
        p = optimize(ff, clock, po)->partition;
      } else {
        p = make_partition(ff, clock, opt.strategy, tech_, opt.protocol,
                           opt.margin);
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++counters_.partition_runs;
      }
      auto pa = std::make_shared<PartArtifact>(std::move(p));
      store_.put("partition", part_key, pa,
                 is_auto ? serialize_partition(pa->partition, ff)
                         : std::string());
      a = pa;
    }
    part = std::static_pointer_cast<const PartArtifact>(a);
  }

  // ---- latchify stage -----------------------------------------------------
  Hash256 latch_key;
  {
    Sha256 h;
    h.field("latchify-v1").field(tech_.name());
    mix(h, ff_hash);
    h.field(clock_name);
    mix(h, part_key);
    latch_key = h.digest();
  }
  std::shared_ptr<const LatchArtifact> latch;
  if (ArtifactStore::Ptr a = store_.get("latchify", latch_key)) {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.latchify_hits;
    latch = std::static_pointer_cast<const LatchArtifact>(a);
  } else {
    fault::maybe_throw("engine.stage.latchify");
    cancel_point();
    nl::Netlist copy = ff;
    LatchifyResult lr = latchify(copy, clock, part->partition);
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++counters_.latchify_runs;
    }
    auto la = std::make_shared<LatchArtifact>(std::move(copy), std::move(lr));
    store_.put("latchify", latch_key, la);
    latch = la;
  }
  // The cached latched netlist may be another (canonically equal)
  // representation of the submission: re-resolve the clock by name.
  nl::NetId lclock = latch->netlist.find_net(clock_name);
  DESYN_ASSERT(lclock.valid());

  // ---- lineage: the previous submission of this design coordinate --------
  Hash256 lineage_key;
  {
    Sha256 h;
    h.field("lineage-v1").field(tech_.name());
    h.field(ff.name()).field(clock_name);
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
  Hash256 adj_key;
  {
    Sha256 h;
    h.field("adjacency-v1").field(tech_.name());
    mix(h, latch_key);
    h.field_f64(opt.margin);
    hash_margins(h, opt.margins);
    h.field_u64(static_cast<uint64_t>(opt.protocol));
    adj_key = h.digest();
  }
  std::shared_ptr<const AdjArtifact> adj;
  {
    ArtifactStore::Deserializer des =
        [](const std::string& body) -> ArtifactStore::Ptr {
      auto aa = std::make_shared<AdjArtifact>(deserialize_adjacency(body));
      aa->cg_hash = control_graph_hash(aa->adj);
      return aa;
    };
    if (ArtifactStore::Ptr a = store_.get("adjacency", adj_key, des)) {
      std::lock_guard<std::mutex> lock(mu_);
      ++counters_.adjacency_hits;
      adj = std::static_pointer_cast<const AdjArtifact>(a);
    } else {
      fault::maybe_throw("engine.stage.adjacency");
      cancel_point();
      AdjacencyResult ar;
      if (prev.latch && prev.adj && diff_vs_prev().structural_same) {
        size_t retimed = 0;
        ar = extract_control_graph_eco(latch->netlist, latch->lr, lclock,
                                       tech_, Margins(opt.margin, opt.margins),
                                       opt.protocol, prev.adj->adj,
                                       diff_vs_prev().changed, &retimed);
        std::lock_guard<std::mutex> lock(mu_);
        ++counters_.adjacency_eco;
        counters_.eco_banks_retimed += retimed;
      } else {
        ar = extract_control_graph(latch->netlist, latch->lr, lclock, tech_,
                                   Margins(opt.margin, opt.margins),
                                   opt.protocol);
        std::lock_guard<std::mutex> lock(mu_);
        ++counters_.adjacency_runs;
      }
      auto aa = std::make_shared<AdjArtifact>(std::move(ar));
      aa->cg_hash = control_graph_hash(aa->adj);
      store_.put("adjacency", adj_key, aa, serialize_adjacency(aa->adj));
      adj = aa;
    }
  }

  // ---- synth stage --------------------------------------------------------
  Hash256 synth_key;
  {
    Sha256 h;
    h.field("synth-v1").field(tech_.name());
    mix(h, latch_key);
    h.field_f64(opt.margin);
    hash_margins(h, opt.margins);
    h.field_u64(static_cast<uint64_t>(opt.protocol));
    synth_key = h.digest();
  }
  std::shared_ptr<const SynthArtifact> synth;
  if (ArtifactStore::Ptr a = store_.get("synth", synth_key)) {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.synth_hits;
    synth = std::static_pointer_cast<const SynthArtifact>(a);
  } else {
    fault::maybe_throw("engine.stage.synth");
    cancel_point();
    // Patch path: the edit left the synthesized control structure alone —
    // either no matched delay moved (cg hash unchanged) or every moved
    // delay stayed inside its quantization bucket — so controller
    // synthesis would reproduce the previous netlist exactly: copy it and
    // replay the field edits onto the same cell ids. Kind flips on bank
    // latches are excluded: attach_controllers rewrites latch kinds, so
    // the delta would not commute with it.
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
        if (prev.latch->netlist.cell(c).kind != latch->netlist.cell(c).kind &&
            bank_latches.count(c.value())) {
          patchable = false;
          break;
        }
      }
    }
    if (patchable) {
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
        // Delays moved within their quantization buckets: the hardware is
        // unchanged but the result must carry the re-extracted graph.
        r.cg = adj->adj.cg;
        r.env_snk = adj->adj.env_snk;
        r.env_src = adj->adj.env_src;
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++counters_.synth_patched;
      }
      auto sa = std::make_shared<SynthArtifact>(std::move(r));
      store_.put("synth", synth_key, sa);
      synth = sa;
    } else {
      DesyncResult r{latch->netlist, part->partition, latch->lr, adj->adj.cg,
                     {},             adj->adj.env_snk, adj->adj.env_src,
                     opt.protocol};
      r.ctrl = attach_controllers(r.netlist, r.banks, r.cg, opt.protocol,
                                  tech_);
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++counters_.synth_runs;
      }
      auto sa = std::make_shared<SynthArtifact>(std::move(r));
      store_.put("synth", synth_key, sa);
      synth = sa;
    }
  }

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

std::shared_ptr<const Engine::McrArtifact> Engine::mcr_stage(
    const AdjArtifact& adj, ctl::Protocol protocol) {
  Hash256 key;
  {
    Sha256 h;
    h.field("mcr-v1").field(tech_.name());
    mix(h, adj.cg_hash);
    h.field_u64(static_cast<uint64_t>(protocol));
    key = h.digest();
  }
  if (ArtifactStore::Ptr a = store_.get("mcr", key)) {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.mcr_hits;
    return std::static_pointer_cast<const McrArtifact>(a);
  }
  fault::maybe_throw("engine.stage.mcr");
  cancel_point();
  auto m = std::make_shared<McrArtifact>();
  // The one scoring rule the optimizer and Monte-Carlo sample 0 share.
  m->period = predicted_period(adj.adj.cg, protocol, tech_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.mcr_runs;
  }
  store_.put("mcr", key, m);
  return m;
}

std::shared_ptr<const DesyncResult> Engine::desynchronize(
    const nl::Netlist& ff, nl::NetId clock, const DesyncOptions& opt) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.runs;
  }
  Hash256 ff_hash = nl::content_hash(ff);
  Hash256 part_key = partition_key(ff, clock, opt, ff_hash);
  Stages st = run_stages(ff, clock, opt, ff_hash, part_key);
  return {st.synth, &st.synth->result};
}

std::shared_ptr<const check::LintReport> Engine::lint(
    const nl::Netlist& ff, nl::NetId clock, const DesyncOptions& opt) {
  Hash256 ff_hash = nl::content_hash(ff);
  Hash256 part_key = partition_key(ff, clock, opt, ff_hash);
  Hash256 key;
  {
    // Same coordinates as the result cache: anything that can change the
    // desynchronized netlist can change the report, nothing else can.
    Sha256 h;
    h.field("lint-v1").field(tech_.name());
    mix(h, ff_hash);
    h.field(ff.net(clock).name);
    mix(h, part_key);
    h.field_f64(opt.margin);
    hash_margins(h, opt.margins);
    h.field_u64(static_cast<uint64_t>(opt.protocol));
    key = h.digest();
  }
  if (ArtifactStore::Ptr a = store_.get("lint", key)) {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.lint_hits;
    auto la = std::static_pointer_cast<const LintArtifact>(a);
    return {la, &la->rep};
  }
  Stages st = run_stages(ff, clock, opt, ff_hash, part_key);
  auto la = std::make_shared<LintArtifact>();
  la->rep = check::lint(st.synth->result, tech_,
                        Margins{opt.margin, opt.margins});
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.lint_runs;
  }
  store_.put("lint", key, la);  // memory tier only: reports are cheap to redo
  return {std::shared_ptr<const LintArtifact>(la), &la->rep};
}

std::shared_ptr<const McReport> Engine::mc(const nl::Netlist& ff,
                                           nl::NetId clock,
                                           const DesyncOptions& opt,
                                           const McOptions& mc) {
  Hash256 ff_hash = nl::content_hash(ff);
  Hash256 part_key = partition_key(ff, clock, opt, ff_hash);
  Hash256 key;
  {
    // Result-cache coordinates plus the sampling knobs that shape the
    // distribution. `mc.jobs` is excluded: the batch solver is
    // byte-identical at any worker count (pn::McrBatch contract), the same
    // exclusion the partition/sim job counts get.
    Sha256 h;
    h.field("mc-v1").field(tech_.name());
    mix(h, ff_hash);
    h.field(ff.net(clock).name);
    mix(h, part_key);
    h.field_f64(opt.margin);
    hash_margins(h, opt.margins);
    h.field_u64(static_cast<uint64_t>(opt.protocol));
    h.field_u64(mc.samples).field_u64(mc.seed);
    h.field_f64(mc.sigma);
    h.field_u64(mc.corners.size());
    for (double c : mc.corners) h.field_f64(c);
    key = h.digest();
  }
  if (ArtifactStore::Ptr a = store_.get("mc", key)) {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.mc_hits;
    auto ma = std::static_pointer_cast<const McAnalysisArtifact>(a);
    return {ma, &ma->rep};
  }
  Stages st = run_stages(ff, clock, opt, ff_hash, part_key);
  auto ma = std::make_shared<McAnalysisArtifact>();
  ma->rep = mc_analysis(st.synth->result, tech_,
                        Margins(opt.margin, opt.margins), mc);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.mc_runs;
  }
  store_.put("mc", key, ma);  // memory tier only, like lint
  return {std::shared_ptr<const McAnalysisArtifact>(ma), &ma->rep};
}

FlowOutcome Engine::run(const nl::Netlist& ff, nl::NetId clock,
                        const DesyncOptions& opt) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.runs;
  }
  Hash256 ff_hash = nl::content_hash(ff);
  Hash256 part_key = partition_key(ff, clock, opt, ff_hash);
  Hash256 result_key;
  {
    Sha256 h;
    h.field("result-v1").field(tech_.name());
    mix(h, ff_hash);
    h.field(ff.net(clock).name);
    mix(h, part_key);
    h.field_f64(opt.margin);
    hash_margins(h, opt.margins);
    h.field_u64(static_cast<uint64_t>(opt.protocol));
    result_key = h.digest();
  }
  ArtifactStore::Deserializer des =
      [](const std::string& body) -> ArtifactStore::Ptr {
    return deserialize_result(body);
  };
  if (ArtifactStore::Ptr a = store_.get("result", result_key, des)) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++counters_.result_hits;
    }
    auto ra = std::static_pointer_cast<const ResultArtifact>(a);
    return {ra->verilog, ra->stats, true};
  }

  Stages st = run_stages(ff, clock, opt, ff_hash, part_key);
  std::shared_ptr<const McrArtifact> mcr = mcr_stage(*st.adj, opt.protocol);
  // Last probe before the result artifact is assembled and published: a
  // fault here proves a failed submission leaves no partial result entry.
  fault::maybe_throw("engine.stage.result");
  cancel_point();

  const DesyncResult& dr = st.synth->result;
  auto ra = std::make_shared<ResultArtifact>();
  {
    std::ostringstream os;
    nl::write_verilog(dr.netlist, os);
    ra->verilog = std::make_shared<const std::string>(std::move(os).str());
  }
  // The same cost split verif::check_flow_equivalence reports.
  ra->stats.banks = dr.cg.num_banks();
  ra->stats.controller_cells = dr.ctrl.cells.size() - dr.ctrl.delay_units;
  ra->stats.delay_cells = dr.ctrl.delay_units;
  ra->stats.cells_in = ff.num_live_cells();
  ra->stats.cells_out = dr.netlist.num_live_cells();
  ra->stats.predicted_period_ps = mcr->period;
  store_.put("result", result_key, ra, serialize_result(*ra));
  return {ra->verilog, ra->stats, false};
}

}  // namespace desyn::flow

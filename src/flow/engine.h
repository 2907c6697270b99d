// The staged flow engine: the desynchronization flow as a pipeline of
// content-addressed stages over an ArtifactStore.
//
//   partition  ->  latchify  ->  adjacency  ->  synth  ->  mcr  ->  result
//
// Every stage produces an immutable artifact keyed by a canonical hash of
// exactly the inputs that stage depends on, and every stage is served by
// one protocol (Engine::serve: lookup, then on a miss probe, compute and
// publish). Margins are the global margin plus the per-bank overrides:
//
//   partition   H(tech, census | ff_hash, strategy knobs)
//   latchify    H(tech, ff_hash, clock, partition key)
//   adjacency   H(tech, latchify key, margins, protocol)
//   synth       H(tech, latchify key, margins, protocol)
//   mcr         H(tech, cg content hash, protocol)
//   result      H(tech, ff_hash, clock, partition key, margins, protocol)
//
// lint and mc are keyed at the result's coordinates (mc adds its sampling
// knobs). Two more memory-tier stages hold the design-only set-up of a
// flow-equivalence proof (verif::check_flow_equivalence):
//
//   sync_ref    H(tech, ff_hash, clock)
//   proof       the synth stage's key
//
// The first proof of a design builds its sync reference (the clocked
// netlist with its clock tree, the STA period, the compiled simulator
// image and the capture taps); the first proof of a coordinate builds its
// set-up (the desync image, taps, worst-case setup table, predicted period
// and register table). The flow stages never build either, and a repeat
// proof costs its two simulations.
//
// Re-submitting an unchanged design is a pure result-cache hit: no stage
// runs, the stored Verilog is returned. An *edited* design re-runs only
// the stages whose inputs actually changed; on top of that, per-design
// lineage enables two ECO fast paths when the edit is field-only (cell
// kind within the same pin structure, init value, payload contents):
//
//   * adjacency: cone-limited re-timing via extract_control_graph_eco —
//     only source banks whose output cone contains a changed cell re-run
//     sparse STA, every other matched delay is copied.
//   * synth: when the edit does not move any matched delay (cg hash
//     unchanged), the previous synthesized netlist is copied and the
//     field edits are replayed onto the same cell ids — no controller
//     re-synthesis.
//
// The mcr stage is keyed on the control graph's content hash, so an edit
// that moves no matched delay is a cache hit there; any other edit solves
// the timed model cold (flow::predicted_period).
//
// Determinism contract: every cached or ECO-patched result is
// byte-identical to what the cold monolithic flow
// (desynchronize_reference) produces for the same canonical content.
// Hash keys address canonical content, not bytes: two netlists that
// differ only in construction order share artifacts, and both receive
// the first submission's (semantically equivalent) output bytes.
//
// Thread safety: a single Engine may be used from many threads (the
// persistent server does); stages compute outside the locks, double
// computation on a racing miss is benign.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "core/desynchronizer.h"
#include "flow/artifact.h"
#include "flow/mc.h"
#include "netlist/hash.h"

namespace desyn::check {
struct LintReport;
}

namespace desyn::flow {

struct EngineOptions {
  /// In-memory artifact entries before eviction. 128 holds perfbench
  /// `verify`'s working set of 113 entries: 78 flow entries (partition
  /// and latchify of 14 design/strategy pairs, adjacency and synth of 25
  /// coordinates), 10 sync references and 25 proof set-ups.
  size_t capacity = 128;
  std::string cache_dir;  ///< on-disk artifact tier; empty = memory only
};

/// What ran vs. what was served — the observable behavior of the staged
/// pipeline, pinned by the engine tests (cached-vs-cold, ECO scenarios).
struct StageCounters {
  size_t runs = 0;            ///< flow submissions (run/desynchronize)
  size_t result_hits = 0;     ///< submissions answered by the result cache
  size_t partition_runs = 0;
  size_t partition_hits = 0;
  size_t latchify_runs = 0;
  size_t latchify_hits = 0;
  size_t adjacency_runs = 0;  ///< full STA extractions
  size_t adjacency_hits = 0;
  size_t adjacency_eco = 0;   ///< cone-limited ECO re-extractions
  size_t eco_banks_retimed = 0;  ///< source-bank STA reruns across all ECOs
  size_t synth_runs = 0;      ///< full controller synthesis
  size_t synth_hits = 0;
  size_t synth_patched = 0;   ///< field-patch replays of a cached synth
  size_t mcr_runs = 0;        ///< cold max-cycle-ratio solves
  size_t mcr_hits = 0;
  size_t mcr_warm = 0;        ///< always 0: the mcr stage solves cold
  size_t lint_runs = 0;       ///< static-verification (check::lint) runs
  size_t lint_hits = 0;       ///< lint reports served from the cache
  size_t mc_runs = 0;         ///< Monte-Carlo analyses (flow::mc_analysis)
  size_t mc_hits = 0;         ///< MC reports served from the cache
  size_t sync_ref_runs = 0;   ///< proof sync references built (per design)
  size_t sync_ref_hits = 0;
  size_t proof_runs = 0;      ///< proof set-ups built (per coordinate)
  size_t proof_hits = 0;
};

/// The summary a flow submission reports (the server's response payload;
/// field split matches verif::check_flow_equivalence's cost accounting).
struct FlowStats {
  size_t banks = 0;             ///< control banks incl. the env pair
  size_t controller_cells = 0;  ///< handshake cells excluding delay lines
  size_t delay_cells = 0;       ///< matched-delay DELAY cells
  size_t cells_in = 0;          ///< live cells of the submitted netlist
  size_t cells_out = 0;         ///< live cells of the desynchronized one
  double predicted_period_ps = 0;  ///< max-cycle-ratio prediction
  bool operator==(const FlowStats&) const = default;
};

struct FlowOutcome {
  std::shared_ptr<const std::string> verilog;  ///< the emitted circuit
  FlowStats stats;
  bool cached = false;  ///< true when served from the result cache
};

class Engine {
 public:
  /// `tech` must outlive the engine (it is a process-lifetime registry in
  /// every current caller).
  explicit Engine(const cell::Tech& tech, const EngineOptions& opt = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Submit a flow: run (or serve) every stage through the MCR period
  /// prediction and return the emitted Verilog plus summary stats.
  FlowOutcome run(const nl::Netlist& ff_netlist, nl::NetId clock,
                  const DesyncOptions& opt);

  /// The staged equivalent of desynchronize_reference(): everything up to
  /// and including controller synthesis, served from the artifact cache.
  /// The returned result is immutable and shared with the cache.
  std::shared_ptr<const DesyncResult> desynchronize(
      const nl::Netlist& ff_netlist, nl::NetId clock,
      const DesyncOptions& opt);

  /// Static verification (check::lint) of the desynchronized design as a
  /// content-addressed stage: keyed at the same coordinates as the result
  /// cache, so re-linting an unchanged submission is a pure cache hit and
  /// an edited one reuses every flow stage the edit did not invalidate.
  std::shared_ptr<const check::LintReport> lint(const nl::Netlist& ff_netlist,
                                                nl::NetId clock,
                                                const DesyncOptions& opt);

  /// Cached flow::mc_analysis of the desynchronized design: keyed at the
  /// result-cache coordinates plus the sampling knobs (samples, seed,
  /// sigma, corners). `mc.jobs` is excluded — reports are byte-identical
  /// for any worker count.
  std::shared_ptr<const McReport> mc(const nl::Netlist& ff_netlist,
                                     nl::NetId clock, const DesyncOptions& opt,
                                     const McOptions& mc);

  /// The design-only set-up of a flow-equivalence proof as two
  /// memory-tier stages (see the file comment); verif/flow_equivalence.cpp
  /// defines the artifacts and builds them, the engine keys, caches and
  /// counts them. `sync_ref` builds the submitted design's sync reference;
  /// `setup` builds one coordinate's set-up from that reference and the
  /// flow result, which it must keep alive.
  struct ProofBuild {
    std::function<ArtifactStore::Ptr()> sync_ref;
    std::function<ArtifactStore::Ptr(ArtifactStore::Ptr sync_ref,
                                     std::shared_ptr<const DesyncResult>)>
        setup;
  };
  /// The proof set-up of (ff_netlist, clock, opt), built through `build`
  /// on a miss. A hit consults no flow stage: the set-up holds the flow
  /// result it was built from.
  ArtifactStore::Ptr proof_setup(const nl::Netlist& ff_netlist,
                                 nl::NetId clock, const DesyncOptions& opt,
                                 const ProofBuild& build);

  StageCounters counters() const;
  ArtifactStore::Stats store_stats() const;
  const cell::Tech& tech() const { return tech_; }

  /// The process-wide engine for `tech` (memory tier only) — what the
  /// flow::desynchronize() free function routes through. One engine per
  /// tech name, created on first use, never destroyed.
  static Engine& process(const cell::Tech& tech);

 private:
  struct LatchArtifact;
  struct AdjArtifact;
  struct SynthArtifact;
  struct McrArtifact;

  /// Per-design stage lineage: the previous submission's artifacts under
  /// the same (design name, clock, strategy, margin, protocol) coordinate,
  /// kept so the *next* submission of an edited design can diff against
  /// them and take the ECO fast paths. Bounded (see kMaxLineage).
  struct Lineage {
    std::shared_ptr<const LatchArtifact> latch;
    std::shared_ptr<const AdjArtifact> adj;
    std::shared_ptr<const SynthArtifact> synth;
  };

  /// Everything run() needs beyond what desynchronize() returns.
  struct Stages {
    std::shared_ptr<const SynthArtifact> synth;
    std::shared_ptr<const AdjArtifact> adj;
  };

  /// What every stage key of one submission derives from.
  struct Submission {
    Hash256 ff_hash;    ///< canonical content of the flip-flop netlist
    std::string clock;  ///< clock net name
    Hash256 part_key;   ///< the partition stage's key
    Hash256 latch_key;  ///< the latchify stage's key
  };

  /// A stage compute's outcome, handed back to serve(): the artifact, the
  /// run counter this compute path bumps (null: none) and the disk body
  /// (empty: memory tier only).
  struct Computed {
    Computed(ArtifactStore::Ptr a, size_t StageCounters::*r,
             std::string b = {})
        : art(std::move(a)), ran(r), body(std::move(b)) {}
    ArtifactStore::Ptr art;
    size_t StageCounters::*ran;
    std::string body;
  };

  /// The one stage protocol: serve (kind, key) from the store, or compute
  /// and publish it. `hit` is the stage's hit counter, `site` its fault
  /// probe (null: none), `des` its disk reader (empty: memory tier only).
  template <class A, class Compute>
  std::shared_ptr<const A> serve(std::string_view kind, const Hash256& key,
                                 size_t StageCounters::*hit, const char* site,
                                 Compute&& compute,
                                 const ArtifactStore::Deserializer& des = {});
  void count(size_t StageCounters::*c, size_t n = 1);

  Submission identify(const nl::Netlist& ff, nl::NetId clock,
                      const DesyncOptions& opt);
  Stages run_stages(const nl::Netlist& ff, nl::NetId clock,
                    const DesyncOptions& opt, const Submission& sub);
  Lineage lineage_snapshot(const Hash256& key) const;

  const cell::Tech& tech_;
  ArtifactStore store_;
  mutable std::mutex mu_;  ///< counters_ + lineage_
  StageCounters counters_;
  std::unordered_map<Hash256, Lineage> lineage_;
};

}  // namespace desyn::flow

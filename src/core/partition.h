// First-class bank partitioning: the assignment of storage cells (DFFs and
// RAM macros) of a synchronous netlist to control-bank pairs.
//
// The paper fixes one controller per register bank but leaves the *choice*
// of banks open — it is the central area/throughput knob of
// de-synchronization: coarse banks share controllers and matched-delay
// lines (cheap, slow — every member waits for the slowest input), fine
// banks handshake independently (fast, expensive). This header turns that
// choice from a hardwired enum into data:
//
//   * `Partition` — an explicit, validated, canonically-ordered clustering
//     of the storage cells. Constructors cover the three classic
//     strategies (prefix / per-flip-flop / single) plus `from_groups()`
//     for arbitrary user- or tool-supplied clusterings.
//   * `PartitionSpec` — the *recipe* for a partition as it travels through
//     options structs and CLI flags ("prefix:2", "auto:1.05", ...).
//   * `optimize_partition()` — an MCR-guided greedy clustering search:
//     start from per-flip-flop, merge banks while the predicted period
//     (max cycle ratio of the timed control model) stays within a
//     user budget of the Prefix baseline, minimizing controller +
//     matched-delay gate cost.
//
// Group invariants (enforced by validate()):
//   * every group is non-empty,
//   * every member is a storage cell (DFF or RAM) of the netlist, exactly
//     once across all groups, and every storage cell is covered,
//   * a RAM macro is always the *sole* member of its group — its
//     master/slave bank pair owns the write port and the read data and
//     cannot be shared (RAM bank-pair integrity).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "cell/tech.h"
#include "ctl/protocol.h"
#include "netlist/netlist.h"

namespace desyn::flow {

/// Thrown when a partition fails validation. `kind()` says how, so tests
/// and tools can react to the specific defect rather than string-matching.
class PartitionError : public Error {
 public:
  enum class Kind {
    EmptyGroup,    ///< a group with no members
    ForeignCell,   ///< a member that is not a storage cell of the netlist
    DuplicateCell, ///< a storage cell listed in two groups (or twice)
    UncoveredCell, ///< a storage cell of the netlist missing from the partition
    MixedRamGroup, ///< a RAM macro sharing a group with other storage
  };
  PartitionError(Kind kind, const std::string& what)
      : Error(what), kind_(kind) {}
  Kind kind() const { return kind_; }

 private:
  Kind kind_;
};

struct PartitionGroup {
  std::string name;                ///< bank-pair base name ("<name>.m/.s")
  std::vector<nl::CellId> cells;   ///< member storage cells, sorted by id
  bool ram = false;                ///< singleton RAM group
};

/// An explicit storage-cell clustering. Group `g` becomes bank pair
/// (2g, 2g+1) of the latchified netlist: 2g the even (master) bank, 2g+1
/// the odd (slave) bank. Canonical order: FF groups by smallest member
/// cell id, then RAM groups by cell id — the order the legacy strategies
/// produced, so bank indices stay stable across the refactor.
class Partition {
 public:
  Partition() = default;

  /// Group FFs by hierarchical name prefix (see bank_prefix()); every RAM
  /// gets its own group. `depth` = number of trailing '.'-segments
  /// stripped (depth 1 is the classic "up to the last dot" grouping).
  static Partition prefix(const nl::Netlist& nl, int depth = 1);
  /// One group per flip-flop and per RAM — the finest granularity.
  static Partition per_flip_flop(const nl::Netlist& nl);
  /// All FFs in one group ("all"); RAMs still get their own groups.
  static Partition single(const nl::Netlist& nl);
  /// Arbitrary clustering of the *flip-flops*: `groups` lists DFF cell
  /// ids; RAM singleton groups are appended automatically. Validates and
  /// canonicalizes; throws PartitionError on any invariant violation.
  static Partition from_groups(const nl::Netlist& nl,
                               std::vector<std::vector<nl::CellId>> groups);

  const std::vector<PartitionGroup>& groups() const { return groups_; }
  size_t num_groups() const { return groups_.size(); }
  /// Group index of storage cell `c`; -1 if not a member.
  int group_of(nl::CellId c) const;

  /// Check every invariant against `nl` (see the header comment); throws
  /// PartitionError naming the offending group/cell. The single-clock
  /// requirement is checked by latchify() (MultiClockError), which sees
  /// the clock net.
  void validate(const nl::Netlist& nl) const;

  /// Sort groups into canonical order (FF groups by smallest member id,
  /// then RAM groups) and members by id. All constructors return
  /// canonical partitions; call after editing groups() by hand.
  void canonicalize();

  /// "12 groups: {s0: s0.a s0.b} {s1: ...}" — deterministic, for tests
  /// and debug output.
  std::string describe(const nl::Netlist& nl) const;

  friend bool operator==(const Partition& a, const Partition& b) {
    return a.groups_ == b.groups_;
  }

 private:
  void index();  ///< rebuild the cell -> group map
  std::vector<PartitionGroup> groups_;
  std::vector<int> group_of_;  ///< dense by cell id; -1 = not a member
};

inline bool operator==(const PartitionGroup& a, const PartitionGroup& b) {
  return a.name == b.name && a.cells == b.cells && a.ram == b.ram;
}

/// Bank-name prefix of a cell name: the name with its last `depth`
/// '.'-segments stripped ("ifid.pc_q3" -> "ifid"; "st3.d.r0" with depth 2
/// -> "st3"). Names with no hierarchy left — no dot, a leading dot, or a
/// Verilog escaped identifier (leading backslash, where dots are not
/// hierarchy separators) — fall back to "core" uniformly.
std::string bank_prefix(const std::string& cell_name, int depth = 1);

/// The partition *recipe* carried by DesyncOptions and the CLI: how to
/// build the Partition once the netlist (and, for Auto, the timing model)
/// is at hand.
struct PartitionSpec {
  enum class Mode { Prefix, PerFlipFlop, Single, Auto, Explicit };
  Mode mode = Mode::Prefix;
  int prefix_depth = 1;    ///< Mode::Prefix: segments stripped
  double auto_budget = 1.05;  ///< Mode::Auto: allowed predicted-period
                              ///< ratio over the Prefix baseline
  /// Mode::Explicit: the partition itself (cell ids of the FF netlist).
  std::optional<Partition> partition;

  PartitionSpec() = default;
  static PartitionSpec explicit_(Partition p) {
    PartitionSpec s;
    s.mode = Mode::Explicit;
    s.partition = std::move(p);
    return s;
  }

  /// Parse a CLI strategy: "prefix", "prefix:N", "perff", "single",
  /// "auto", "auto:B" (B = period budget, e.g. 1.05). Throws Error.
  static PartitionSpec parse(std::string_view s);
  /// The canonical CLI name back ("prefix:2", "auto:1.05", "explicit").
  std::string label() const;
};

/// `v` as the exact decimal fraction of its shortest round-trip text,
/// reduced: the numerator and denominator of 1.05 are 21 and 20. The
/// optimizer reads its period budget this way.
std::pair<int64_t, int64_t> exact_decimal(double v);

/// Materialize `spec` for `ff_netlist`. Mode::Auto runs
/// optimize_partition() with `protocol`/`margin` (the knobs that shape the
/// control graph being scored); the other modes ignore tech entirely.
/// `opt_jobs` is accepted and ignored, like PartitionOptOptions::jobs.
Partition make_partition(const nl::Netlist& ff_netlist, nl::NetId clock,
                         const PartitionSpec& spec, const cell::Tech& tech,
                         ctl::Protocol protocol, double margin,
                         int opt_jobs = 1);

// ---------------------------------------------------------------------------
// The MCR-guided clustering optimizer
// ---------------------------------------------------------------------------

struct PartitionOptOptions {
  /// Allowed predicted-period degradation: the optimized partition's
  /// predicted period must stay <= budget * (Prefix baseline period).
  double period_budget = 1.05;
  double margin = 1.10;  ///< matched-delay margin (mirrors DesyncOptions)
  ctl::Protocol protocol = ctl::Protocol::Pulse;
  /// Accepted and ignored: the search is serial (a certificate probe is
  /// far cheaper than a thread hand-off). Kept so existing callers keep
  /// compiling.
  int jobs = 1;
};

/// Where the optimizer's time went — the scaling counters the benches and
/// CI track. `candidates` counts every merge the search considered;
/// most are settled without any solver run, either rejected by an earlier
/// failure (`pruned`) or by the exact potential certificate
/// (`warm_solves`, see core/certificate.h); `cold_solves` counts full
/// max-cycle-ratio solves (the per-flip-flop start; one per candidate for
/// the reference oracle) and stays a constant regardless of design size.
struct OptimizeStats {
  size_t candidates = 0;
  size_t pruned = 0;
  size_t warm_solves = 0;
  size_t cold_solves = 0;
};

struct PartitionOptResult {
  Partition partition;        ///< the optimized clustering
  double perff_period = 0;    ///< predicted period of the PerFlipFlop start
  double baseline_period = 0; ///< predicted period of the Prefix baseline
  size_t baseline_banks = 0;  ///< groups of the Prefix baseline
  double period = 0;          ///< predicted period of `partition`
  size_t cost = 0;            ///< controller+delay cells of `partition`
  int merges = 0;             ///< committed group merges
  OptimizeStats stats;        ///< the scaling breakdown
};

/// Search for a cheap partition of `ff_netlist` whose predicted period
/// stays within `opt.period_budget` of the Prefix baseline. Greedy
/// agglomerative: start from per-flip-flop and repeatedly commit the
/// highest-ranked candidate merge that keeps the predicted period (max
/// cycle ratio of the candidate's timed control model) within budget.
/// Candidates rank by co-occurrence weight, ties broken by a fixed hash of
/// the pair, so the search is deterministic.
///
/// The scoring loop is incremental end to end: one STA pass sizes the
/// per-flip-flop control graph, every candidate is an O(deg) arc patch on
/// the current quotient settled by an exact potential certificate (a
/// backward repair of integer potentials that either settles — within
/// budget — or closes an over-budget cycle; see core/certificate.h), and a
/// failed candidate stays marked, rejected probe-free forever after
/// (coarsening only adds rendezvous). A cold solve runs once, on the start.
PartitionOptResult optimize_partition(const nl::Netlist& ff_netlist,
                                      nl::NetId clock, const cell::Tech& tech,
                                      const PartitionOptOptions& opt = {});

/// The cold oracle: the identical search, but every candidate is scored by
/// re-deriving its whole quotient control graph from scratch and solving
/// it cold — no incremental state, no warm starts, no failure pruning.
/// Exists to pin optimize_partition(): both must return the same partition
/// (equivalence-tested over the circuit suite). Use only for testing;
/// it is orders of magnitude slower on large fabrics.
PartitionOptResult optimize_partition_reference(
    const nl::Netlist& ff_netlist, nl::NetId clock, const cell::Tech& tech,
    const PartitionOptOptions& opt = {});

/// Predicted cycle time of a control graph under `protocol`: the max cycle
/// ratio of ctl::hardware_model's timed MG (pn::max_cycle_ratio). The
/// single scoring rule shared by the flow and the optimizer.
double predicted_period(const ctl::ControlGraph& cg, ctl::Protocol protocol,
                        const cell::Tech& tech);

}  // namespace desyn::flow

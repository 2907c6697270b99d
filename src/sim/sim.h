// Event-driven gate-level simulator with three-valued logic (0/1/X) and
// per-cell inertial delays taken from the technology library.
//
// Delays are identical to what STA assumes (both call Tech::delay with the
// instance's arity and fanout), so analytic and simulated timing agree.
//
// Semantics:
//  * Nets initialize to X; tie cells, storage `init` values and
//    state-holding cells' `init` establish the reset state, which is then
//    settled combinationally at t=0 (models the end of a reset sequence).
//  * A cell re-evaluates whenever one of its (relevant) inputs changes and
//    schedules its output(s) after its propagation delay. Re-evaluation
//    before the pending event matures overwrites it (inertial delay:
//    too-narrow pulses are swallowed).
//  * DFF samples D on the rising edge of CK; RAM commits a write on the
//    rising edge of CK when WE=1; latches are transparent at EN=1 (Latch) /
//    EN=0 (LatchN).
//  * Setup checks: a capture edge (FF CK rise, latch closing edge, RAM CK
//    rise) with a data input that changed less than `setup` ago is recorded
//    as a violation. The margin bench uses this to find the failure point
//    of under-sized matched delays.
//  * Every picosecond is one step: all events due at time t commit first
//    (in FIFO scheduling order), then the watchers of the changed nets
//    fire, then the fanout of every change re-evaluates against the
//    committed values. A capture edge coinciding with its data change
//    therefore sees the new data (and records a zero-slack violation).
//    Events scheduled at t during a step (watcher stimulus, zero-delay
//    cells) run as a further step at the same t.
//
// Construction: a Simulator runs a compiled image (sim::Compiled), the
// immutable part of everything it derives before time 0 — per-cell
// delays, the CSR fanout and pin tables, the DFF clock records, and the
// settled reset state with its reset-kick events. The netlist constructor
// compiles, then constructs; a caller that simulates one netlist many
// times (a flow-equivalence proof per stimulus) compiles once and shares
// the image, even across threads. Constructing from an image copies the
// reset values, zeroes the per-net state and replays the kicks, so both
// paths give the same simulator event for event.
//
// Performance: all per-net and per-cell state (values, toggle counters,
// RAM contents, watchers, clock periods, cached delays) lives in dense
// vectors indexed by id, and the pending-event set is a time-bucketed
// calendar queue (timing wheel + overflow heap) — O(1) schedule/pop
// instead of hash lookups and binary-heap reshuffles on the inner loop.
// The image flattens each net's fanout and each cell's pins (kind, first
// output, input nets) into CSR tables, so gates, latches and C-elements
// evaluate from those tables and the net values in place, through
// cell::eval_comb / eval_state_holding — the one gate evaluator — without
// reading a CellData or copying their inputs. Only RAM and ROM macros
// read their CellData.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <queue>
#include <span>
#include <vector>

#include "cell/tech.h"
#include "netlist/netlist.h"

namespace desyn::sim {

using cell::V;

struct SetupViolation {
  Ps at = 0;             ///< capture edge time
  nl::CellId cell;       ///< capturing storage cell
  nl::NetId data_net;    ///< offending data net
  Ps slack = 0;          ///< (negative) setup slack observed
};

/// The compiled image of a netlist (see the file comment). The netlist
/// must outlive the image and stay unmodified.
class Compiled {
 public:
  Compiled(const nl::Netlist& nl, const cell::Tech& tech);
  Compiled(const Compiled&) = delete;  // simulators point into it
  Compiled& operator=(const Compiled&) = delete;

  const nl::Netlist& netlist() const { return nl_; }
  /// Propagation delay of cell `c` (the model sta::Sta times with).
  Ps delay(nl::CellId c) const { return delay_[c.value()]; }

 private:
  friend class Simulator;

  /// A DFF clock pin, pre-resolved: the bulk of a clocked design's event
  /// traffic, acted on only for rising edges, so the inner loop touches
  /// no CellData and falling clock edges skip every flip-flop.
  struct FfCkPin {
    nl::NetId d, q;
    nl::CellId cell;  // for setup-violation reporting
    Ps delay;
  };
  /// Flattened pins of one cell: kind, first output and its input nets
  /// `in_[in]` to `in_[in + n_in - 1]`.
  struct FlatCell {
    uint32_t in;
    nl::NetId out;
    uint16_t n_in;
    cell::Kind kind;
  };
  /// A reset-release event: a state element whose settled inputs already
  /// disagree with its reset output starts moving at time `at`.
  struct Kick {
    nl::NetId net;
    V value;
    Ps at;
  };

  /// Settle the reset state combinationally (zero time) and record the
  /// kicks it releases.
  void settle();

  const nl::Netlist& nl_;
  std::vector<Ps> delay_;  // per cell
  /// Flattened fanout, CSR-indexed by net id: DFF clock pins in ff_ck_,
  /// every other pin in fan_pins_ (evaluated by Simulator::evaluate_pin).
  std::vector<FfCkPin> ff_ck_;
  std::vector<uint32_t> ff_ck_off_;  // num_nets + 1 offsets into ff_ck_
  std::vector<nl::Pin> fan_pins_;
  std::vector<uint32_t> fan_off_;  // num_nets + 1 offsets into fan_pins_
  std::vector<FlatCell> flat_;     // per cell
  std::vector<nl::NetId> in_;
  std::vector<nl::CellId> rams_;   // RAM cells in id order
  Ps dff_setup_ = 0;    // tech.dff_setup()
  Ps latch_setup_ = 0;  // tech.latch_setup()
  std::vector<V> reset_;     // per net: the settled reset state
  std::vector<Kick> kicks_;  // in the order they are scheduled
};

/// Compile `nl` under `tech` into a shareable image.
std::shared_ptr<const Compiled> compile(const nl::Netlist& nl,
                                        const cell::Tech& tech);

class Simulator {
 public:
  /// Compile `nl`, then construct from the image.
  Simulator(const nl::Netlist& nl, const cell::Tech& tech);
  /// Simulate a compiled image, which the simulator shares and never
  /// modifies.
  explicit Simulator(std::shared_ptr<const Compiled> image);

  const nl::Netlist& netlist() const { return nl_; }

  // ---- stimulus -----------------------------------------------------------

  /// Schedule a primary-input change at absolute time `at` (>= now).
  void set_input(nl::NetId net, V v, Ps at);
  /// Free-running clock on a primary input: first rising edge at
  /// `first_rise`, then toggling every period/2. The clock sustains itself
  /// until the simulation stops.
  void add_clock(nl::NetId net, Ps period, Ps first_rise);

  // ---- execution ----------------------------------------------------------

  /// Process events up to and including time `t`.
  void run_until(Ps t);
  /// Run until no events remain or `max_t` is reached. Returns true if the
  /// circuit quiesced (self-clocking circuits and circuits with clocks
  /// never do).
  bool run_until_quiet(Ps max_t);
  Ps now() const { return now_; }

  // ---- observation --------------------------------------------------------

  V value(nl::NetId net) const { return val_[net.value()]; }
  /// 0<->1 transition count since construction / clear_activity().
  uint64_t toggles(nl::NetId net) const { return toggles_[net.value()]; }
  /// Reset all toggle counters and the activity window (for steady-state
  /// power measurement).
  void clear_activity();
  /// Time of the last clear_activity() (start of the measurement window).
  Ps activity_window_start() const { return window_start_; }

  using Watcher = std::function<void(Ps, V)>;
  /// Invoke `w` after every applied value change of `net`, once every
  /// change of that picosecond has committed.
  void watch(nl::NetId net, Watcher w);

  const std::vector<SetupViolation>& setup_violations() const {
    return violations_;
  }
  uint64_t setup_violation_count() const { return violation_count_; }

  uint64_t events_processed() const { return events_processed_; }
  /// Propagation delay of cell `c` (the model sta::Sta times with).
  Ps delay(nl::CellId c) const { return delay_[c.value()]; }

  /// Current contents word of a RAM cell (for testbench inspection).
  uint64_t ram_word(nl::CellId ram, uint64_t addr) const;

 private:
  struct Event {
    Ps time;
    uint64_t seq;  // FIFO tie-break for equal times
    nl::NetId net;
    V value;
    uint64_t version;
    friend bool operator>(const Event& a, const Event& b) {
      return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }
  };

  /// Time-bucketed calendar queue. A timing wheel of 1 ps buckets covers the
  /// next kWheelSize picoseconds; events beyond that horizon wait in a
  /// binary-heap overflow and migrate into the wheel as the cursor advances.
  /// Within a bucket (one picosecond) events drain FIFO — push order equals
  /// seq order, including migrated overflow events (the heap ties on seq and
  /// migration happens the instant the horizon first covers a time, before
  /// any direct push at that time can occur) — so inertial-delay semantics
  /// are identical to a priority_queue, with O(1) push/pop on the hot path
  /// instead of O(log n).
  class EventQueue {
   public:
    EventQueue() : wheel_(kWheelSize) {}
    /// `ev.time` must be >= the last popped/clamped time (simulation time
    /// is monotone; Simulator guarantees this via its `now_` asserts).
    void push(const Event& ev);
    /// Pops the next event with time <= `limit` into `*out`. Returns false
    /// when none exists; the cursor then rests at min(next event, limit) so
    /// later pushes at the current simulation time stay reachable.
    bool pop_next(Ps limit, Event* out);
    /// Pops the next event due at the cursor's own time, if any. All such
    /// events sit in the cursor's bucket, so this never scans or moves.
    bool pop_now(Event* out);
    bool empty() const { return wheel_size_ == 0 && overflow_.empty(); }

   private:
    static constexpr size_t kWheelSize = size_t{1} << 10;  // 1024 ps window
    static constexpr size_t kWords = kWheelSize / 64;      // occupancy bitmap

    std::vector<Event>& bucket(Ps t) {
      return wheel_[static_cast<uint64_t>(t) & (kWheelSize - 1)];
    }
    /// Smallest occupied wheel time strictly greater than `t` (which must
    /// be the cursor; the window invariant makes the mapping from bucket
    /// index back to absolute time unique). -1 if the wheel is empty.
    Ps next_occupied_after(Ps t) const;
    /// Move overflow events now inside the horizon onto the wheel.
    void migrate();

    std::vector<std::vector<Event>> wheel_;
    std::array<uint64_t, kWords> occupied_{};  // bit per non-empty bucket
    size_t wheel_size_ = 0;  // live (unpopped) events on the wheel
    size_t drain_pos_ = 0;   // consumed prefix of bucket(cursor_)
    Ps cursor_ = 0;          // current drain time; never retreats
    std::priority_queue<Event, std::vector<Event>, std::greater<Event>>
        overflow_;
  };

  /// A committed value change, held until its step evaluates fanout.
  struct Change {
    nl::NetId net;
    V oldv, newv;
  };

  void schedule(nl::NetId net, V v, Ps at);
  /// One step at `first.time`: commit `first` and every other event due
  /// then, fire watchers, evaluate the fanout of each change.
  void step(const Event& first);
  void commit(const Event& ev);
  void evaluate_fanout(const Change& ch);
  void evaluate_pin(nl::Pin p, V old_cause);
  /// Slot of RAM cell `c` in ram_state_.
  size_t ram_slot(nl::CellId c) const;
  /// A capture edge of cell `c` now: records a violation if `data` changed
  /// less than `setup` ago.
  void check_setup(nl::CellId c, nl::NetId data, Ps setup);
  void record_violation(const SetupViolation& v);

  std::shared_ptr<const Compiled> img_;
  const nl::Netlist& nl_;
  // The image's tables, viewed directly so the inner loop indexes them
  // as it would its own vectors.
  std::span<const Ps> delay_;
  std::span<const Compiled::FfCkPin> ff_ck_;
  std::span<const uint32_t> ff_ck_off_;
  std::span<const nl::Pin> fan_pins_;
  std::span<const uint32_t> fan_off_;
  std::span<const Compiled::FlatCell> flat_;
  std::span<const nl::NetId> in_;
  Ps dff_setup_ = 0;
  Ps latch_setup_ = 0;

  std::vector<V> val_;             // per net
  std::vector<Ps> last_change_;    // per net, for setup checks
  std::vector<uint64_t> toggles_;  // per net
  std::vector<uint64_t> version_;  // per net, pending-event version
  std::vector<uint8_t> pending_;   // per net, 1 if latest schedule not applied
  EventQueue queue_;
  uint64_t seq_ = 0;
  std::vector<Change> changes_;  // the current step's commits

  std::vector<std::vector<uint64_t>> ram_state_;  // per image RAM slot
  std::vector<std::vector<Watcher>> watchers_;    // per net
  std::vector<Ps> clock_half_period_;  // per net; 0 = not a free-running clock

  std::vector<SetupViolation> violations_;
  uint64_t violation_count_ = 0;
  static constexpr size_t kMaxRecordedViolations = 64;

  Ps now_ = 0;
  Ps window_start_ = 0;
  uint64_t events_processed_ = 0;
};

/// Read a little-endian word off a bus of nets (LSB first). X bits read as 0;
/// *has_x reports whether any bit was unknown.
uint64_t read_word(const Simulator& sim, std::span<const nl::NetId> bus,
                   bool* has_x = nullptr);

/// Schedule a word onto a bus of primary inputs at time `at`.
void poke_word(Simulator& sim, std::span<const nl::NetId> bus, uint64_t value,
               Ps at);

}  // namespace desyn::sim

// Static timing analysis over the gate-level netlist.
//
// Model: every net has a worst-case arrival time; a cell adds
// tech.delay(kind, arity, fanout-of-output) from its worst input to its
// outputs. Storage outputs (latch/FF Q) and primary inputs are launch
// points; storage data inputs (D, RAM write pins) are capture endpoints.
//
// Two uses in the flow:
//  * min_clock_period(): the synchronous reference's achievable period
//    (worst FF->FF path + setup), as a commercial STA would report.
//  * arrivals(sources): generic worst-path propagation from a chosen set of
//    launch nets — this is what sizes the matched delays (worst path from a
//    latch bank's Q pins to the successor bank's D pins).
#pragma once

#include <span>
#include <vector>

#include "cell/tech.h"
#include "netlist/netlist.h"

namespace desyn::sta {

/// A launch point: `net` begins toggling at time `at`.
struct Source {
  nl::NetId net;
  Ps at = 0;
};

/// Arrival time used for unreachable nets.
inline constexpr Ps kUnreached = -1;

class Sta {
 public:
  Sta(const nl::Netlist& nl, const cell::Tech& tech);

  /// Worst arrival per net (indexed by NetId value) propagated through
  /// combinational logic from `sources`. Storage cells do not propagate
  /// (their outputs stay kUnreached unless listed as sources); the RAM/ROM
  /// read path (RA -> RD) does propagate. State-holding control cells
  /// (CElem/Gc) propagate like gates — the control-network analysis relies
  /// on this.
  std::vector<Ps> arrivals(std::span<const Source> sources) const;

  /// Reusable state for arrivals_sparse(): the arrival map plus the list
  /// of nets the last propagation touched. One per caller (or thread).
  struct SparseScratch {
    std::vector<Ps> arr;             ///< per net; valid only for `touched`
    std::vector<nl::NetId> touched;  ///< nets reached by the last call
    /// Restore `arr` to all-kUnreached (O(|touched|)) for the next call.
    void reset();

   private:
    friend class Sta;
    std::vector<uint32_t> mark;  ///< per-cell epoch stamps
    uint32_t epoch = 0;
    std::vector<std::pair<uint32_t, uint32_t>> heap;  ///< (topo pos, cell)
  };

  /// arrivals() restricted to the downstream cone of `sources`: visits
  /// only reached cells (in topographic order via a position heap) instead
  /// of sweeping the whole netlist, and records every touched net. The
  /// per-flip-flop control-graph extraction runs one propagation per bank,
  /// so the dense sweep's O(banks * netlist) becomes O(sum of cone sizes).
  /// Call scratch.reset() after consuming the result.
  void arrivals_sparse(std::span<const Source> sources,
                       SparseScratch& scratch) const;

  /// Worst arrival over the *data* inputs of storage cell `c` (D for
  /// latch/FF; WE/WA/WD for RAM), given a previously computed arrival map.
  Ps storage_input_arrival(const std::vector<Ps>& arr, nl::CellId c) const;

  /// True if input pin `i` of storage cell `cd` is a capture data endpoint
  /// (D; RAM WE/WA/WD) — the pins storage_input_arrival aggregates.
  static bool data_endpoint_pin(const nl::CellData& cd, size_t i);

  /// Propagation delay of `c`: nl::cell_delay, the simulator's rule too.
  Ps cell_delay(nl::CellId c) const;

  struct PeriodReport {
    Ps min_period = 0;           ///< max path + setup over all endpoints
    nl::CellId worst_launch;     ///< storage cell launching the worst path
    nl::CellId worst_capture;    ///< storage cell capturing it
    Ps worst_path = 0;           ///< launch clk->q + combinational
  };

  /// Minimum clock period of the FF-based synchronous circuit: for every
  /// storage->storage path, launch clk->q + combinational + setup.
  /// Primary-input-launched paths are included with launch time 0.
  PeriodReport min_clock_period() const;

  /// Critical path ending at `net` under arrival map `arr`: list of nets
  /// from a launch point to `net` (inclusive). Empty if unreached.
  std::vector<nl::NetId> trace_path(const std::vector<Ps>& arr,
                                    nl::NetId net) const;

 private:
  const nl::Netlist& nl_;
  const cell::Tech& tech_;
  std::vector<nl::CellId> topo_;   ///< evaluation order (comb cells first)
  std::vector<uint32_t> topo_pos_; ///< cell id -> position in topo_
};

}  // namespace desyn::sta

// Clock-tree synthesis for the synchronous reference implementation.
//
// The paper's comparison only makes sense if the synchronous circuit pays
// for its clock network; this module builds a balanced, fanout-bounded
// buffer tree from the clock input to every clock sink (FF CK / latch EN /
// RAM CK pins) so that simulation and power estimation account for it.
// Uniform chunking keeps every sink at the same depth: insertion delay is
// equal for all sinks (zero skew), matching the ideal-clock STA assumption.
#pragma once

#include "cell/tech.h"
#include "netlist/netlist.h"

namespace desyn::flow {

struct ClockTree {
  std::vector<nl::CellId> buffers;  ///< tree buffer cells
  std::vector<nl::NetId> nets;      ///< tree nets (for power attribution)
  int levels = 0;
  Ps insertion_delay = 0;           ///< clock pin to sink pin
};

/// The insertion of a fanout-bounded buffer tree over `sinks` pins:
/// `levels` buffer stages (0 when every sink fits under the root), each a
/// Buf loaded with `max_fanout`. `units` is that delay rounded up to whole
/// DELAY cells: the handshake compensation a desynchronized bank's enable
/// tree needs. build_clock_tree builds exactly this shape.
struct TreeInsertion {
  int levels = 0;
  Ps delay = 0;   ///< root pin to sink pin
  int units = 0;  ///< `delay` in DELAY cells, rounded up
};
TreeInsertion tree_insertion(size_t sinks, const cell::Tech& tech,
                             int max_fanout = 8);

/// Build the tree in place; all pins previously connected to `clock` are
/// re-pointed at leaf buffers. `max_fanout` bounds every tree node's load
/// (8 is a typical CTS buffer fanout). The returned net list includes the
/// clock root, so power attribution covers the whole network.
ClockTree build_clock_tree(nl::Netlist& nl, nl::NetId clock,
                           const cell::Tech& tech, int max_fanout = 8);

}  // namespace desyn::flow

// Structural queries: topological order, fanin cones, inventory statistics.
#pragma once

#include <array>

#include "cell/tech.h"
#include "netlist/netlist.h"

namespace desyn::nl {

/// Topological order of all live cells such that every cell evaluated
/// combinationally (gates, ROM, and the RAM read path) appears after the
/// drivers of its inputs. Latch/FF/CElem/Gc outputs are cut points (their
/// value at any instant is state, initialized from `init` and updated
/// event-wise by the simulator); those cells are appended at the end of the
/// order. Throws desyn::Error if the remaining graph contains a cycle,
/// i.e. a combinational loop not broken by any state element.
std::vector<CellId> topo_order(const Netlist& nl);

/// All cells in the combinational fanin cone of `net`, stopping at storage
/// outputs and primary inputs. Includes the RAM/ROM read path.
std::vector<CellId> combinational_fanin(const Netlist& nl, NetId net);

/// The loaded propagation delay of `c`: Tech::delay(kind, arity, largest
/// output fanout). The one delay rule of the STA and the simulator.
Ps cell_delay(const Netlist& nl, CellId c, const cell::Tech& tech);

/// Inventory of a netlist: per-kind counts and area.
struct Stats {
  std::array<size_t, 21> count_by_kind{};
  size_t cells = 0;
  size_t nets = 0;
  size_t flipflops = 0;
  size_t latches = 0;
  size_t celems = 0;  ///< CElem + Gc (controller state)
  size_t delay_cells = 0;
  Um2 area = 0;

  size_t count(cell::Kind k) const {
    return count_by_kind[static_cast<size_t>(k)];
  }
  std::string to_string() const;
};

Stats stats(const Netlist& nl, const cell::Tech& tech);

}  // namespace desyn::nl

// Structural queries: topological order, fanin cones, inventory statistics.
#pragma once

#include <array>

#include "cell/tech.h"
#include "netlist/netlist.h"

namespace desyn::nl {

/// Kahn's pass over the cells evaluated combinationally (gates, ROM, and
/// the RAM read path); Latch/FF/CElem/Gc outputs are cut points (their
/// value at any instant is state, initialized from `init` and updated
/// event-wise by the simulator). `order` lists the evaluated cells it could
/// order, each after the drivers of its inputs. `blocked` lists, in cell-id
/// order, the evaluated cells it could not: each sits on or behind a
/// combinational loop not broken by any state element. The blocked set
/// does not depend on the order the pass pops ready cells in.
struct CombOrder {
  std::vector<CellId> order;
  std::vector<CellId> blocked;
};
CombOrder comb_order(const Netlist& nl);

/// comb_order()'s order with the cut cells appended at the end: every live
/// cell, each evaluated one after the drivers of its inputs. Throws
/// desyn::Error if some cell is blocked (a combinational loop).
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

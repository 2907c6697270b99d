#include "netlist/query.h"

#include <algorithm>

namespace desyn::nl {

namespace {

/// A cell whose output(s) are state: evaluation order does not depend on its
/// input drivers.
bool is_cut(cell::Kind k) {
  if (k == cell::Kind::Ram) return false;  // async read path is combinational
  return cell::is_storage(k) || cell::is_state_holding(k);
}

}  // namespace

CombOrder comb_order(const Netlist& nl) {
  // In-degree counts input nets driven by other evaluated (non-cut) cells.
  std::vector<uint32_t> indeg(nl.num_cells(), 0);
  // Worklist: a plain vector with a consuming head index (a deque's block
  // allocations showed up hot in simulator construction).
  std::vector<CellId> ready;
  size_t ready_head = 0;
  size_t eval_cells = 0;

  for (CellId c : nl.cells()) {
    const CellData& cd = nl.cell(c);
    if (is_cut(cd.kind)) continue;
    ++eval_cells;
    uint32_t d = 0;
    for (NetId in : cd.ins) {
      CellId drv = nl.net(in).driver;
      if (drv.valid() && !is_cut(nl.cell(drv).kind)) ++d;
    }
    indeg[c.value()] = d;
    if (d == 0) ready.push_back(c);
  }

  CombOrder res;
  res.order.reserve(nl.num_live_cells());
  while (ready_head < ready.size()) {
    CellId c = ready[ready_head++];
    res.order.push_back(c);
    for (NetId out : nl.cell(c).outs) {
      for (const Pin& p : nl.net(out).fanout) {
        if (is_cut(nl.cell(p.cell).kind)) continue;
        if (--indeg[p.cell.value()] == 0) ready.push_back(p.cell);
      }
    }
  }
  if (res.order.size() != eval_cells) {
    // An evaluated cell keeps a positive in-degree exactly when it was
    // never ordered.
    for (CellId c : nl.cells()) {
      if (indeg[c.value()] > 0) res.blocked.push_back(c);
    }
  }
  return res;
}

std::vector<CellId> topo_order(const Netlist& nl) {
  CombOrder co = comb_order(nl);
  if (!co.blocked.empty()) {
    fail("netlist '", nl.name(), "' has a combinational cycle (",
         co.order.size() + co.blocked.size(), " combinational cells, only ",
         co.order.size(), " orderable)");
  }
  for (CellId c : nl.cells()) {
    if (is_cut(nl.cell(c).kind)) co.order.push_back(c);
  }
  return std::move(co.order);
}

std::vector<CellId> combinational_fanin(const Netlist& nl, NetId net) {
  std::vector<CellId> cone;
  std::vector<bool> seen(nl.num_cells(), false);
  std::vector<NetId> stack{net};
  while (!stack.empty()) {
    NetId n = stack.back();
    stack.pop_back();
    CellId drv = nl.net(n).driver;
    if (!drv.valid() || seen[drv.value()]) continue;
    const CellData& cd = nl.cell(drv);
    if (is_cut(cd.kind)) continue;
    seen[drv.value()] = true;
    cone.push_back(drv);
    for (NetId in : cd.ins) stack.push_back(in);
  }
  return cone;
}

Ps cell_delay(const Netlist& nl, CellId c, const cell::Tech& tech) {
  const CellData& cd = nl.cell(c);
  size_t fanout = 0;
  for (NetId o : cd.outs) fanout = std::max(fanout, nl.net(o).fanout.size());
  return tech.delay(cd.kind, static_cast<int>(cd.ins.size()),
                    static_cast<int>(fanout));
}

Stats stats(const Netlist& nl, const cell::Tech& tech) {
  Stats s;
  s.nets = nl.num_nets();
  for (CellId c : nl.cells()) {
    const CellData& cd = nl.cell(c);
    ++s.cells;
    ++s.count_by_kind[static_cast<size_t>(cd.kind)];
    s.area += tech.area(cd.kind, static_cast<int>(cd.ins.size()), cd.p0, cd.p1);
    switch (cd.kind) {
      case cell::Kind::Dff: ++s.flipflops; break;
      case cell::Kind::Latch:
      case cell::Kind::LatchN: ++s.latches; break;
      case cell::Kind::CElem:
      case cell::Kind::Gc: ++s.celems; break;
      case cell::Kind::Delay: ++s.delay_cells; break;
      default: break;
    }
  }
  return s;
}

std::string Stats::to_string() const {
  std::ostringstream os;
  os << "cells=" << cells << " nets=" << nets << " area=" << area << "um2";
  os << " [";
  bool first = true;
  for (size_t i = 0; i < count_by_kind.size(); ++i) {
    if (count_by_kind[i] == 0) continue;
    if (!first) os << " ";
    first = false;
    os << cell::kind_name(static_cast<cell::Kind>(i)) << ":" << count_by_kind[i];
  }
  os << "]";
  return os.str();
}

}  // namespace desyn::nl

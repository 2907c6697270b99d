#include "sta/sta.h"

#include <algorithm>

#include "netlist/query.h"

namespace desyn::sta {

using cell::Kind;
using nl::CellId;
using nl::NetId;

namespace {

/// Cells STA propagates through combinationally.
bool propagates(Kind k) {
  return cell::is_combinational(k) || k == Kind::Ram;
}

/// True if input pin `i` of a cell participates in combinational
/// propagation (for RAM only the read-address pins do).
bool pin_propagates(const nl::CellData& cd, size_t i) {
  if (cd.kind != Kind::Ram) return true;
  size_t ra_begin = 2 + cd.p0 + cd.p1;
  return i >= ra_begin;
}

/// True if input pin `i` is a *data* capture endpoint with a setup
/// requirement (D of latch/FF; WE/WA/WD of RAM).
bool pin_is_data_endpoint(const nl::CellData& cd, size_t i) {
  switch (cd.kind) {
    case Kind::Latch:
    case Kind::LatchN:
    case Kind::Dff:
      return i == 0;  // D; pin 1 is EN/CK
    case Kind::Ram:
      return i >= 1 && i < size_t{2} + cd.p0 + cd.p1;  // WE, WA, WD
    default:
      return false;
  }
}

}  // namespace

Sta::Sta(const nl::Netlist& nl, const cell::Tech& tech)
    : nl_(nl), tech_(tech), topo_(nl::topo_order(nl)) {
  topo_pos_.assign(nl.num_cells(), UINT32_MAX);
  for (size_t i = 0; i < topo_.size(); ++i) {
    topo_pos_[topo_[i].value()] = static_cast<uint32_t>(i);
  }
}

bool Sta::data_endpoint_pin(const nl::CellData& cd, size_t i) {
  return pin_is_data_endpoint(cd, i);
}

Ps Sta::cell_delay(nl::CellId c) const {
  return nl::cell_delay(nl_, c, tech_);
}

std::vector<Ps> Sta::arrivals(std::span<const Source> sources) const {
  std::vector<Ps> arr(nl_.num_nets(), kUnreached);
  for (const Source& s : sources) {
    DESYN_ASSERT(s.net.valid() && s.net.value() < nl_.num_nets());
    arr[s.net.value()] = std::max(arr[s.net.value()], s.at);
  }
  for (CellId c : topo_) {
    const nl::CellData& cd = nl_.cell(c);
    if (!propagates(cd.kind)) continue;
    Ps worst = kUnreached;
    for (size_t i = 0; i < cd.ins.size(); ++i) {
      if (!pin_propagates(cd, i)) continue;
      worst = std::max(worst, arr[cd.ins[i].value()]);
    }
    if (worst == kUnreached) continue;  // unreached (incl. tie cells)
    Ps out = worst + cell_delay(c);
    for (NetId o : cd.outs) {
      arr[o.value()] = std::max(arr[o.value()], out);
    }
  }
  return arr;
}

void Sta::SparseScratch::reset() {
  for (nl::NetId n : touched) arr[n.value()] = kUnreached;
  touched.clear();
}

void Sta::arrivals_sparse(std::span<const Source> sources,
                          SparseScratch& s) const {
  DESYN_ASSERT(s.touched.empty(), "call scratch.reset() between propagations");
  s.arr.resize(nl_.num_nets(), kUnreached);
  s.mark.resize(nl_.num_cells(), 0);
  ++s.epoch;
  s.heap.clear();
  auto cmp = [](const std::pair<uint32_t, uint32_t>& a,
                const std::pair<uint32_t, uint32_t>& b) { return a > b; };
  auto touch = [&](NetId n, Ps at) {
    Ps& slot = s.arr[n.value()];
    if (slot == kUnreached) s.touched.push_back(n);
    if (at <= slot) return;
    slot = at;
    // Wake every propagating consumer of the net. Each cell is processed
    // once (epoch mark on pop); duplicate heap entries are skipped then.
    for (const nl::Pin& p : nl_.net(n).fanout) {
      const nl::CellData& cd = nl_.cell(p.cell);
      if (!propagates(cd.kind) || !pin_propagates(cd, p.index)) continue;
      uint32_t pos = topo_pos_[p.cell.value()];
      if (pos == UINT32_MAX || s.mark[p.cell.value()] == s.epoch) continue;
      s.heap.push_back({pos, p.cell.value()});
      std::push_heap(s.heap.begin(), s.heap.end(), cmp);
    }
  };
  for (const Source& src : sources) {
    DESYN_ASSERT(src.net.valid() && src.net.value() < nl_.num_nets());
    touch(src.net, src.at);
  }
  // Ascending topo position guarantees every reached input of a cell is
  // final before the cell pops — the sparse twin of the dense sweep.
  while (!s.heap.empty()) {
    std::pop_heap(s.heap.begin(), s.heap.end(), cmp);
    auto [pos, cv] = s.heap.back();
    s.heap.pop_back();
    if (s.mark[cv] == s.epoch) continue;
    s.mark[cv] = s.epoch;
    const nl::CellData& cd = nl_.cell(nl::CellId(cv));
    Ps worst = kUnreached;
    for (size_t i = 0; i < cd.ins.size(); ++i) {
      if (!pin_propagates(cd, i)) continue;
      worst = std::max(worst, s.arr[cd.ins[i].value()]);
    }
    if (worst == kUnreached) continue;
    Ps out = worst + cell_delay(nl::CellId(cv));
    for (NetId o : cd.outs) touch(o, out);
  }
}

Ps Sta::storage_input_arrival(const std::vector<Ps>& arr, nl::CellId c) const {
  const nl::CellData& cd = nl_.cell(c);
  Ps worst = kUnreached;
  for (size_t i = 0; i < cd.ins.size(); ++i) {
    if (!pin_is_data_endpoint(cd, i)) continue;
    worst = std::max(worst, arr[cd.ins[i].value()]);
  }
  return worst;
}

Sta::PeriodReport Sta::min_clock_period() const {
  // Launch points: every storage output at its clk->q delay; primary inputs
  // at 0 (externally registered, zero input delay).
  std::vector<Source> sources;
  std::vector<CellId> launch_of_net(nl_.num_nets(), CellId::invalid());
  for (CellId c : nl_.cells()) {
    const nl::CellData& cd = nl_.cell(c);
    if (!cell::is_storage(cd.kind)) continue;
    Ps clk2q = cell_delay(c);
    for (NetId o : cd.outs) {
      sources.push_back({o, clk2q});
      launch_of_net[o.value()] = c;
    }
  }
  for (NetId in : nl_.inputs()) sources.push_back({in, 0});

  std::vector<Ps> arr = arrivals(sources);

  PeriodReport rep;
  for (CellId c : nl_.cells()) {
    const nl::CellData& cd = nl_.cell(c);
    if (!cell::is_storage(cd.kind)) continue;
    Ps a = storage_input_arrival(arr, c);
    if (a == kUnreached) continue;
    Ps setup = cell::is_latch(cd.kind) ? tech_.latch_setup() : tech_.dff_setup();
    Ps period = a + setup;
    if (period > rep.min_period) {
      rep.min_period = period;
      rep.worst_capture = c;
      rep.worst_path = a;
      // Identify the launch by tracing the critical path back to a source.
      std::vector<NetId> path;
      for (size_t i = 0; i < cd.ins.size(); ++i) {
        if (pin_is_data_endpoint(cd, i) &&
            arr[cd.ins[i].value()] == a) {
          path = trace_path(arr, cd.ins[i]);
          break;
        }
      }
      rep.worst_launch = path.empty()
                             ? CellId::invalid()
                             : launch_of_net[path.front().value()];
    }
  }
  if (rep.min_period == 0) {
    // Purely combinational design: period is the worst PI -> PO path.
    for (NetId o : nl_.outputs()) {
      if (arr[o.value()] != kUnreached) {
        rep.min_period = std::max(rep.min_period, arr[o.value()]);
      }
    }
  }
  return rep;
}

std::vector<NetId> Sta::trace_path(const std::vector<Ps>& arr,
                                   nl::NetId net) const {
  std::vector<NetId> rev;
  NetId cur = net;
  while (cur.valid() && arr[cur.value()] != kUnreached) {
    rev.push_back(cur);
    CellId drv = nl_.net(cur).driver;
    if (!drv.valid()) break;  // primary input
    const nl::CellData& cd = nl_.cell(drv);
    if (!propagates(cd.kind)) break;  // launched at a storage output
    Ps need = arr[cur.value()] - cell_delay(drv);
    NetId best = NetId::invalid();
    Ps best_arr = kUnreached;
    for (size_t i = 0; i < cd.ins.size(); ++i) {
      if (!pin_propagates(cd, i)) continue;
      Ps a = arr[cd.ins[i].value()];
      if (a != kUnreached && a <= need && a > best_arr) {
        best = cd.ins[i];
        best_arr = a;
      }
    }
    if (!best.valid()) break;  // source net (listed in sources)
    cur = best;
  }
  std::reverse(rev.begin(), rev.end());
  return rev;
}

}  // namespace desyn::sta

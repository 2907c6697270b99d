#include "netlist/netlist.h"

#include <algorithm>

namespace desyn::nl {

std::string Netlist::unique_net_name(std::string base) {
  if (base.empty()) base = cat("n", auto_name_counter_++);
  while (net_by_name_.count(base)) base = cat(base, "_", auto_name_counter_++);
  return base;
}

std::string Netlist::unique_cell_name(std::string base) {
  if (base.empty()) base = cat("u", auto_name_counter_++);
  while (cell_by_name_.count(base)) base = cat(base, "_", auto_name_counter_++);
  return base;
}

NetId Netlist::add_net(std::string name) {
  memo_.clear();
  NetId id(static_cast<uint32_t>(nets_.size()));
  NetData nd;
  nd.name = unique_net_name(std::move(name));
  net_by_name_[nd.name] = id.value();
  nets_.push_back(std::move(nd));
  return id;
}

NetId Netlist::add_input(std::string name) {
  DESYN_ASSERT(!name.empty(), "primary inputs must be named");
  NetId id = add_net(std::move(name));
  inputs_.push_back(id);
  return id;
}

void Netlist::mark_output(NetId net) {
  DESYN_ASSERT(net.valid() && net.value() < nets_.size());
  memo_.clear();
  if (std::find(outputs_.begin(), outputs_.end(), net) == outputs_.end()) {
    outputs_.push_back(net);
  }
}

CellId Netlist::add_cell(cell::Kind kind, std::string name,
                         std::vector<NetId> ins, std::vector<NetId> outs,
                         cell::V init, int32_t payload, uint16_t p0,
                         uint16_t p1) {
  const int want_in = cell::num_inputs(kind, static_cast<int>(ins.size()), p0, p1);
  const int want_out = cell::num_outputs(kind, p0, p1);
  DESYN_ASSERT(static_cast<int>(ins.size()) == want_in, "cell ", name, " (",
               cell::kind_name(kind), "): expected ", want_in, " inputs, got ",
               ins.size());
  DESYN_ASSERT(static_cast<int>(outs.size()) == want_out);

  memo_.clear();
  CellId id(static_cast<uint32_t>(cells_.size()));
  CellData cd;
  cd.kind = kind;
  cd.name = unique_cell_name(std::move(name));
  cd.ins = std::move(ins);
  cd.outs = std::move(outs);
  cd.init = init;
  cd.payload = payload;
  cd.p0 = p0;
  cd.p1 = p1;
  cell_by_name_[cd.name] = id.value();

  for (uint16_t i = 0; i < cd.ins.size(); ++i) {
    net_mut(cd.ins[i]).fanout.push_back(Pin{id, i});
  }
  for (uint16_t o = 0; o < cd.outs.size(); ++o) {
    NetData& nd = net_mut(cd.outs[o]);
    DESYN_ASSERT(!nd.driver.valid(), "net ", nd.name, " already driven");
    DESYN_ASSERT(!is_primary_input(cd.outs[o]), "cannot drive primary input ",
                 nd.name);
    nd.driver = id;
    nd.driver_pin = o;
  }
  cells_.push_back(std::move(cd));
  ++live_cells_;
  return id;
}

int32_t Netlist::add_payload(std::vector<uint64_t> words) {
  memo_.clear();
  payloads_.push_back(std::move(words));
  return static_cast<int32_t>(payloads_.size() - 1);
}

void Netlist::rewire_input(CellId c, uint16_t index, NetId to) {
  CellData& cd = cell_mut(c);
  DESYN_ASSERT(!cd.dead && index < cd.ins.size());
  NetData& from = net_mut(cd.ins[index]);
  auto it = std::find(from.fanout.begin(), from.fanout.end(), Pin{c, index});
  DESYN_ASSERT(it != from.fanout.end());
  from.fanout.erase(it);
  cd.ins[index] = to;
  net_mut(to).fanout.push_back(Pin{c, index});
}

void Netlist::remove_cell(CellId c) {
  CellData& cd = cell_mut(c);
  DESYN_ASSERT(!cd.dead);
  for (uint16_t i = 0; i < cd.ins.size(); ++i) {
    NetData& nd = net_mut(cd.ins[i]);
    auto it = std::find(nd.fanout.begin(), nd.fanout.end(), Pin{c, i});
    DESYN_ASSERT(it != nd.fanout.end());
    nd.fanout.erase(it);
  }
  for (NetId o : cd.outs) {
    net_mut(o).driver = CellId::invalid();
  }
  cd.dead = true;
  --live_cells_;
}

NetId Netlist::find_net(std::string_view name) const {
  auto it = net_by_name_.find(std::string(name));
  return it == net_by_name_.end() ? NetId::invalid() : NetId(it->second);
}

CellId Netlist::find_cell(std::string_view name) const {
  auto it = cell_by_name_.find(std::string(name));
  return it == cell_by_name_.end() ? CellId::invalid() : CellId(it->second);
}

bool Netlist::is_primary_input(NetId net) const {
  return std::find(inputs_.begin(), inputs_.end(), net) != inputs_.end();
}

void Netlist::check() const {
  for (uint32_t ci = 0; ci < cells_.size(); ++ci) {
    const CellData& cd = cells_[ci];
    if (cd.dead) continue;
    const int want_in =
        cell::num_inputs(cd.kind, static_cast<int>(cd.ins.size()), cd.p0, cd.p1);
    DESYN_ASSERT(static_cast<int>(cd.ins.size()) == want_in);
    for (uint16_t i = 0; i < cd.ins.size(); ++i) {
      const NetData& nd = net(cd.ins[i]);
      auto it = std::find(nd.fanout.begin(), nd.fanout.end(), Pin{CellId(ci), i});
      DESYN_ASSERT(it != nd.fanout.end(), "cell ", cd.name,
                   " missing from fanout of net ", nd.name);
    }
    for (uint16_t o = 0; o < cd.outs.size(); ++o) {
      const NetData& nd = net(cd.outs[o]);
      DESYN_ASSERT(nd.driver == CellId(ci) && nd.driver_pin == o,
                   "driver mismatch on net ", nd.name);
    }
  }
  for (uint32_t ni = 0; ni < nets_.size(); ++ni) {
    const NetData& nd = nets_[ni];
    if (nd.driver.valid()) {
      const CellData& cd = cell(nd.driver);
      DESYN_ASSERT(!cd.dead, "net ", nd.name, " driven by dead cell");
      DESYN_ASSERT(nd.driver_pin < cd.outs.size() &&
                   cd.outs[nd.driver_pin] == NetId(ni));
    } else if (!nd.fanout.empty()) {
      DESYN_ASSERT(is_primary_input(NetId(ni)), "undriven net ", nd.name,
                   " has fanout");
    }
    for (const Pin& p : nd.fanout) {
      const CellData& cd = cell(p.cell);
      DESYN_ASSERT(!cd.dead && p.index < cd.ins.size() &&
                   cd.ins[p.index] == NetId(ni));
    }
  }
  for (NetId o : outputs_) {
    DESYN_ASSERT(o.valid() && o.value() < nets_.size());
  }
}

}  // namespace desyn::nl

#include "netlist/hash.h"

#include <algorithm>
#include <atomic>

namespace desyn::nl {

namespace {

std::atomic<uint64_t> computations{0};

Hash256 compute_content_hash(const Netlist& nl) {
  computations.fetch_add(1, std::memory_order_relaxed);
  Sha256 h;
  h.field("desyn-nl-v1");
  h.field(nl.name());

  // Ports, order-independently: declaration order is representation.
  auto port_names = [&](const std::vector<NetId>& ports) {
    std::vector<std::string_view> names;
    names.reserve(ports.size());
    for (NetId n : ports) names.push_back(nl.net(n).name);
    std::sort(names.begin(), names.end());
    h.field_u64(names.size());
    for (std::string_view n : names) h.field(n);
  };
  port_names(nl.inputs());
  port_names(nl.outputs());

  // Live cells in name order (names are unique, so this is canonical).
  std::vector<CellId> order;
  order.reserve(nl.num_live_cells());
  for (CellId c : nl.cells()) order.push_back(c);
  std::sort(order.begin(), order.end(), [&](CellId a, CellId b) {
    return nl.cell(a).name < nl.cell(b).name;
  });

  h.field_u64(order.size());
  for (CellId c : order) {
    const CellData& cd = nl.cell(c);
    h.field(cd.name);
    h.field_u64(static_cast<uint64_t>(cd.kind));
    h.field_u64(static_cast<uint64_t>(cd.init));
    h.field_u64(cd.p0);
    h.field_u64(cd.p1);
    h.field_i64(cd.group);
    // Connectivity: the net *names* each pin reads/drives. Net ids are
    // representation; names are content.
    h.field_u64(cd.ins.size());
    for (NetId n : cd.ins) h.field(nl.net(n).name);
    h.field_u64(cd.outs.size());
    for (NetId n : cd.outs) h.field(nl.net(n).name);
    // Payload contents, inline (the payload-table index is representation).
    if (cd.payload >= 0) {
      const std::vector<uint64_t>& words = nl.payload(cd.payload);
      h.field_u64(1);
      h.field_u64(words.size());
      for (uint64_t w : words) h.field_u64(w);
    } else {
      h.field_u64(0);
    }
  }
  return h.digest();
}

Hash256 compute_census_hash(const Netlist& nl) {
  computations.fetch_add(1, std::memory_order_relaxed);
  Sha256 h;
  h.field("census-v1");
  for (CellId c : nl.cells()) {
    const CellData& cd = nl.cell(c);
    if (!cell::is_storage(cd.kind)) continue;
    h.field_u64(c.value());
    h.field(cd.name);
    h.field_u64(static_cast<uint64_t>(cd.kind));
    h.field_u64(cd.p0).field_u64(cd.p1);
  }
  return h.digest();
}

}  // namespace

Hash256 content_hash(const Netlist& nl) {
  return nl.memo_.get(&Netlist::HashMemo::content,
                      [&nl] { return compute_content_hash(nl); });
}

Hash256 census_hash(const Netlist& nl) {
  return nl.memo_.get(&Netlist::HashMemo::census,
                      [&nl] { return compute_census_hash(nl); });
}

uint64_t hash_computations() {
  return computations.load(std::memory_order_relaxed);
}

}  // namespace desyn::nl

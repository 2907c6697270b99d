#include "ctl/protocol.h"

#include <algorithm>

#include "pn/analysis.h"

namespace desyn::ctl {

const char* protocol_name(Protocol p) {
  switch (p) {
    case Protocol::Lockstep: return "lockstep";
    case Protocol::SemiDecoupled: return "semi-decoupled";
    case Protocol::FullyDecoupled: return "fully-decoupled";
    case Protocol::Pulse: return "pulse";
  }
  return "?";
}

Protocol parse_protocol(std::string_view name) {
  if (name == "lockstep") return Protocol::Lockstep;
  if (name == "semi" || name == "semi-decoupled") return Protocol::SemiDecoupled;
  if (name == "fully" || name == "fully-decoupled") {
    return Protocol::FullyDecoupled;
  }
  if (name == "pulse") return Protocol::Pulse;
  fail("unknown protocol '", name,
       "' (expected lockstep|semi|fully|pulse)");
}

int first_fire_index(Protocol p, bool even, bool plus) {
  if (p == Protocol::Pulse) {
    // Pulse order: O+ O- E+ E- (banks start opaque; odd pulses first).
    if (even) return plus ? 2 : 3;
    return plus ? 0 : 1;
  }
  // Synchronous two-phase order: E- O+ O- E+.
  if (even) return plus ? 3 : 0;
  return plus ? 1 : 2;
}

int ControlGraph::add_bank(std::string name, bool even) {
  banks_.push_back(Bank{std::move(name), even});
  return static_cast<int>(banks_.size()) - 1;
}

int ControlGraph::add_edge(int from, int to, Ps matched_delay) {
  DESYN_ASSERT(from >= 0 && from < static_cast<int>(banks_.size()));
  DESYN_ASSERT(to >= 0 && to < static_cast<int>(banks_.size()));
  DESYN_ASSERT(banks_[static_cast<size_t>(from)].even !=
                   banks_[static_cast<size_t>(to)].even,
               "control edge must connect banks of opposite parity: ",
               banks_[static_cast<size_t>(from)].name, " -> ",
               banks_[static_cast<size_t>(to)].name);
  const uint64_t key = (static_cast<uint64_t>(static_cast<uint32_t>(from))
                        << 32) |
                       static_cast<uint32_t>(to);
  auto [it, inserted] =
      edge_index_.try_emplace(key, static_cast<int>(edges_.size()));
  if (!inserted) {
    Edge& e = edges_[static_cast<size_t>(it->second)];
    e.matched_delay = std::max(e.matched_delay, matched_delay);
    return it->second;
  }
  edges_.push_back(Edge{from, to, matched_delay});
  return it->second;
}

std::vector<int> ControlGraph::preds(int bank) const {
  std::vector<int> out;
  for (const Edge& e : edges_) {
    if (e.to == bank) out.push_back(e.from);
  }
  return out;
}

std::vector<int> ControlGraph::succs(int bank) const {
  std::vector<int> out;
  for (const Edge& e : edges_) {
    if (e.from == bank) out.push_back(e.to);
  }
  return out;
}

int ControlGraph::find_bank(std::string_view name) const {
  for (size_t i = 0; i < banks_.size(); ++i) {
    if (banks_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

void ControlGraph::validate() const {
  for (const Edge& e : edges_) {
    DESYN_ASSERT(bank(e.from).even != bank(e.to).even);
    DESYN_ASSERT(e.matched_delay >= 0);
  }
}

std::vector<ProtoArc> protocol_arcs(const ControlGraph& cg, Protocol p) {
  cg.validate();
  std::vector<ProtoArc> arcs;
  auto idx = [&](int bank, bool plus) {
    return first_fire_index(p, cg.bank(bank).even, plus);
  };
  // Marked iff the target's first firing precedes the source's.
  auto arc = [&](int ub, bool up, int vb, bool vp, bool pred, Ps matched,
                 bool alt = false) {
    arcs.push_back(ProtoArc{ub, up, vb, vp, idx(vb, vp) < idx(ub, up), pred,
                            alt, pred ? matched : 0});
  };

  // Alternation (also the "auxiliary arcs" of Fig. 4 for boundary banks).
  for (size_t i = 0; i < cg.num_banks(); ++i) {
    int b = static_cast<int>(i);
    arc(b, true, b, false, false, 0, true);  // a+ -> a-
    arc(b, false, b, true, false, 0, true);  // a- -> a+
  }

  for (const ControlGraph::Edge& e : cg.edges()) {
    const Ps d = e.matched_delay;
    switch (p) {
      case Protocol::FullyDecoupled:
        arc(e.from, true, e.to, false, true, d);    // a+ -> b-
        arc(e.to, false, e.from, true, false, 0);   // b- -> a+
        break;
      case Protocol::SemiDecoupled:
        arc(e.from, true, e.to, false, true, d);
        arc(e.to, false, e.from, true, false, 0);
        arc(e.from, false, e.to, true, true, d);    // a- -> b+
        arc(e.to, true, e.from, false, false, 0);   // b+ -> a-
        break;
      case Protocol::Lockstep:
        // Semi-decoupled's handshake (which already forbids overlapping
        // transparency on the edge) plus same-sign rendezvous: each event
        // of a waits for the previous same-sign event of b and vice versa,
        // the emulated two-phase clock. Without the semi arcs the
        // same-sign rendezvous alone would let b open while a is still
        // transparent — a combinational race through two open latches.
        arc(e.from, true, e.to, false, true, d);    // a+ -> b-
        arc(e.to, false, e.from, true, false, 0);   // b- -> a+
        arc(e.from, false, e.to, true, true, d);    // a- -> b+
        arc(e.to, true, e.from, false, false, 0);   // b+ -> a-
        arc(e.from, true, e.to, true, true, d);     // a+ -> b+
        arc(e.from, false, e.to, false, true, d);   // a- -> b-
        arc(e.to, true, e.from, true, false, 0);    // b+ -> a+
        arc(e.to, false, e.from, false, false, 0);  // b- -> a-
        break;
      case Protocol::Pulse:
        // Round-token rendezvous on pulse starts; pulse widths live on the
        // alternation arcs (annotated by protocol_mg).
        arc(e.from, true, e.to, true, true, d);     // a+ -> b+
        arc(e.to, true, e.from, true, false, 0);    // b+ -> a+
        break;
    }
  }
  return arcs;
}

pn::MarkedGraph mg_from_arcs(std::string name, const ControlGraph& cg,
                             std::span<const ProtoArc> arcs, Ps ctrl_delay,
                             Ps pulse_width) {
  pn::MarkedGraph mg(std::move(name));
  std::vector<BankTrans> bt;
  for (size_t i = 0; i < cg.num_banks(); ++i) {
    BankTrans t;
    t.plus = mg.add_transition(cg.bank(static_cast<int>(i)).name + "+");
    t.minus = mg.add_transition(cg.bank(static_cast<int>(i)).name + "-");
    bt.push_back(t);
  }
  auto trans = [&](int bank, bool plus) {
    return plus ? bt[static_cast<size_t>(bank)].plus
                : bt[static_cast<size_t>(bank)].minus;
  };
  for (const ProtoArc& a : arcs) {
    mg.add_arc(trans(a.from, a.from_plus), trans(a.to, a.to_plus),
               a.marked ? 1 : 0,
               arc_delay(arc_timing(a), a.matched_delay, ctrl_delay,
                         pulse_width));
  }
  return mg;
}

pn::MarkedGraph protocol_mg(const ControlGraph& cg, Protocol p,
                            Ps ctrl_delay, Ps pulse_width) {
  pn::MarkedGraph mg = mg_from_arcs(cat("ctl_", protocol_name(p)), cg,
                                    protocol_arcs(cg, p), ctrl_delay,
                                    pulse_width);
#ifndef NDEBUG
  // The header's contract: every protocol MG admits its own canonical
  // schedule. Enforce it where the markings are derived, so a bad
  // first_fire_index tweak fails here instead of as a downstream deadlock.
  DESYN_ASSERT(pn::admits_sequence(mg, canonical_schedule(mg, cg, p, 1)) < 0,
               "protocol ", protocol_name(p),
               " marked graph rejects its own canonical schedule");
#endif
  return mg;
}

std::vector<BankTrans> bank_transitions(const pn::MarkedGraph& mg,
                                        const ControlGraph& cg) {
  std::vector<BankTrans> bt;
  for (size_t i = 0; i < cg.num_banks(); ++i) {
    BankTrans t;
    t.plus = mg.find(cg.bank(static_cast<int>(i)).name + "+");
    t.minus = mg.find(cg.bank(static_cast<int>(i)).name + "-");
    DESYN_ASSERT(t.plus.valid() && t.minus.valid());
    bt.push_back(t);
  }
  return bt;
}

std::vector<pn::TransId> canonical_schedule(const pn::MarkedGraph& mg,
                                            const ControlGraph& cg,
                                            Protocol p, int periods) {
  auto bt = bank_transitions(mg, cg);
  std::vector<pn::TransId> seq;
  for (int k = 0; k < periods; ++k) {
    for (int batch = 0; batch < 4; ++batch) {
      for (size_t i = 0; i < cg.num_banks(); ++i) {
        bool even = cg.bank(static_cast<int>(i)).even;
        for (bool plus : {true, false}) {
          if (first_fire_index(p, even, plus) == batch) {
            seq.push_back(plus ? bt[i].plus : bt[i].minus);
          }
        }
      }
    }
  }
  return seq;
}

}  // namespace desyn::ctl

#include "ctl/controller.h"

#include <algorithm>
#include <array>

#include "pn/analysis.h"

namespace desyn::ctl {

namespace {

/// Reduce `inputs` to at most kMaxArity with a C-element tree. Inputs move
/// monotonically between consecutive rendezvous (each toggles exactly once
/// per round) and share the reset value `init`, so a tree of C-elements
/// implements the same join as one wide C-element, with latency the
/// matched-delay margin absorbs.
std::vector<nl::NetId> celem_tree(nl::Netlist& nl, ControllerNetwork& net,
                                  std::vector<nl::NetId> inputs,
                                  const std::string& bank_name, cell::V init) {
  int level = 0;
  while (static_cast<int>(inputs.size()) > cell::kMaxArity) {
    std::vector<nl::NetId> next;
    for (size_t k = 0; k < inputs.size(); k += cell::kMaxArity) {
      size_t n = std::min<size_t>(cell::kMaxArity, inputs.size() - k);
      if (n == 1) {
        next.push_back(inputs[k]);
        continue;
      }
      nl::NetId join =
          nl.add_net(cat("ctl.", bank_name, ".join", level, "_",
                         k / cell::kMaxArity));
      nl::CellId jc = nl.add_cell(
          cell::Kind::CElem, "",
          std::vector<nl::NetId>(inputs.begin() + static_cast<long>(k),
                                 inputs.begin() + static_cast<long>(k + n)),
          {join}, init);
      net.cells.push_back(jc);
      net.control_nets.push_back(join);
      next.push_back(join);
    }
    inputs = std::move(next);
    ++level;
  }
  return inputs;
}

/// Join same-init `inputs` down to a single net (identity for one input).
nl::NetId join_to_one(nl::Netlist& nl, ControllerNetwork& net,
                      std::vector<nl::NetId> inputs,
                      const std::string& name, cell::V init) {
  if (inputs.size() == 1) return inputs[0];
  inputs = celem_tree(nl, net, std::move(inputs), name, init);
  if (inputs.size() == 1) return inputs[0];
  nl::NetId j = nl.add_net(cat("ctl.", name, ".join"));
  net.cells.push_back(nl.add_cell(cell::Kind::CElem, "", std::move(inputs),
                                  {j}, init));
  net.control_nets.push_back(j);
  return j;
}

}  // namespace

/// The arcs the synthesized network implements: the protocol model, plus —
/// for FullyDecoupled — a capture-ordering refinement (b- after a- through
/// the matched line). The Fig. 4 model relies on a producer's output being
/// settled when a consumer captures, but fully-decoupled transparency
/// windows overlap, so data two banks upstream can race through a
/// still-transparent producer into the consumer's capture. Semi and
/// lockstep exclude the overlap via their a- -> b+ mirror arcs; fully
/// keeps the overlap and orders the captures instead. Restricting the
/// network preserves conformance (every hardware trace stays a firing
/// sequence of the protocol model).
std::vector<ProtoArc> hardware_arcs(const ControlGraph& cg, Protocol p) {
  std::vector<ProtoArc> arcs = protocol_arcs(cg, p);
  if (p == Protocol::FullyDecoupled) {
    for (const ControlGraph::Edge& e : cg.edges()) {
      bool marked = first_fire_index(p, cg.bank(e.to).even, false) <
                    first_fire_index(p, cg.bank(e.from).even, false);
      arcs.push_back(ProtoArc{e.from, false, e.to, false, marked, true, false,
                              e.matched_delay});
    }
  }
  return arcs;
}

namespace {

ControllerNetwork synthesize_pulse(nl::Builder& b, const ControlGraph& cg,
                                   const cell::Tech& tech) {
  nl::Netlist& nl = b.netlist();
  ControllerNetwork net;

  // Pre-create round nets so cross references resolve in any bank order.
  for (size_t i = 0; i < cg.num_banks(); ++i) {
    nl::NetId r = nl.add_net(cat("ctl.", cg.bank(static_cast<int>(i)).name, ".r"));
    net.rounds.push_back(r);
    net.falls.push_back(nl::NetId::invalid());  // R plays both roles
    net.control_nets.push_back(r);
  }

  // Per-bank incoming and outgoing edges, each list in cg.edges() order.
  std::vector<std::vector<const ControlGraph::Edge*>> in_edges(cg.num_banks()),
      out_edges(cg.num_banks());
  for (const ControlGraph::Edge& e : cg.edges()) {
    in_edges[static_cast<size_t>(e.to)].push_back(&e);
    out_edges[static_cast<size_t>(e.from)].push_back(&e);
  }

  for (size_t i = 0; i < cg.num_banks(); ++i) {
    const int bank = static_cast<int>(i);
    const std::string& bname = cg.bank(bank).name;
    const bool even = cg.bank(bank).even;
    const cell::V init = even ? cell::V::V1 : cell::V::V0;

    // Predecessor round tokens: join first (C-element tree), then one
    // shared matched-delay line per bank sized to the worst incoming edge —
    // the paper's per-block matched delay.
    std::vector<nl::NetId> pred_tokens;
    Ps worst = 0;
    for (const ControlGraph::Edge* e : in_edges[i]) {
      pred_tokens.push_back(net.rounds[static_cast<size_t>(e->from)]);
      worst = std::max(worst, e->matched_delay);
    }
    std::vector<nl::NetId> inputs;
    if (!pred_tokens.empty()) {
      // Predecessors of an even bank are odd (round init 0) and vice versa,
      // so the join's initial value is the opposite parity.
      cell::V join_init = even ? cell::V::V0 : cell::V::V1;
      nl::NetId tap = join_to_one(nl, net, std::move(pred_tokens),
                                  bname + ".req", join_init);
      const int units = matched_delay_cells(worst, tech);
      for (int k = 0; k < units; ++k) {
        nl::NetId next = nl.add_net(cat("ctl.", bname, ".d", k));
        nl::CellId c = nl.add_cell(cell::Kind::Delay, "", {tap}, {next});
        net.cells.push_back(c);
        net.control_nets.push_back(next);
        ++net.delay_units;
        tap = next;
      }
      inputs.push_back(tap);
    }
    // Successor round tokens through buffers (spatial wiring).
    for (const ControlGraph::Edge* e : out_edges[i]) {
      nl::NetId ack =
          nl.add_net(cat("ctl.", cg.bank(e->to).name, ".ack.to.", bname));
      nl::CellId bc = nl.add_cell(cell::Kind::Buf, "",
                                  {net.rounds[static_cast<size_t>(e->to)]}, {ack});
      net.cells.push_back(bc);
      net.control_nets.push_back(ack);
      inputs.push_back(ack);
    }
    DESYN_ASSERT(!inputs.empty(), "bank ", bname, " has no control neighbours");

    // Even banks see inverted tokens: their C toggles after the (odd)
    // neighbours toggled, yielding the strict pairwise alternation.
    if (even) {
      std::vector<nl::NetId> inverted;
      for (nl::NetId in : inputs) {
        nl::NetId inv = nl.add_net("");
        nl::CellId ic = nl.add_cell(cell::Kind::Inv, "", {in}, {inv});
        net.cells.push_back(ic);
        net.control_nets.push_back(inv);
        inverted.push_back(inv);
      }
      inputs = std::move(inverted);
    }
    if (inputs.size() == 1) inputs.push_back(inputs[0]);  // C(a,a): follower
    inputs = celem_tree(nl, net, std::move(inputs), bname, init);
    if (inputs.size() == 1) inputs.push_back(inputs[0]);

    nl::CellId c = nl.add_cell(cell::Kind::CElem, cat("ctl.", bname), inputs,
                               {net.rounds[i]}, init);
    net.cells.push_back(c);

    // Local pulse generator: La = XOR(R, buf^3(R)) pulses once per toggle;
    // width = three buffers. The width must exceed the XOR's own loaded
    // delay (or the pulse is inertially swallowed); the flow additionally
    // rebuffers high-fanout enables with a distribution tree.
    nl::NetId d1 = nl.add_net(cat("ctl.", bname, ".p1"));
    nl::NetId d2 = nl.add_net(cat("ctl.", bname, ".p2"));
    nl::NetId d3 = nl.add_net(cat("ctl.", bname, ".p3"));
    nl::NetId en = nl.add_net(cat("ctl.", bname, ".en"));
    net.cells.push_back(nl.add_cell(cell::Kind::Buf, "", {net.rounds[i]}, {d1}));
    net.cells.push_back(nl.add_cell(cell::Kind::Buf, "", {d1}, {d2}));
    net.cells.push_back(nl.add_cell(cell::Kind::Buf, "", {d2}, {d3}));
    net.cells.push_back(nl.add_cell(cell::Kind::Xor, cat("ctl.", bname, ".pg"),
                                    {net.rounds[i], d3}, {en}));
    net.window_cells.emplace_back(net.cells.end() - 4, net.cells.end());
    net.control_nets.push_back(d1);
    net.control_nets.push_back(d2);
    net.control_nets.push_back(d3);
    net.control_nets.push_back(en);
    net.enables.push_back(en);
  }
  return net;
}

/// Muller construction for the Lockstep/Semi/Fully protocols: one C-element
/// per MG transition, one inverter per marked arc, one delay line per
/// transition with predecessor arcs, a level enable per bank. See the
/// header comment for the theory.
ControllerNetwork synthesize_level(nl::Builder& b, const ControlGraph& cg,
                                   Protocol p, const cell::Tech& tech) {
  nl::Netlist& nl = b.netlist();
  ControllerNetwork net;

  // Transition signals s[bank][sign] (sign 1 = plus), all reset to 0;
  // pre-created so arcs resolve in any order.
  std::vector<std::array<nl::NetId, 2>> s(cg.num_banks());
  for (size_t i = 0; i < cg.num_banks(); ++i) {
    const std::string& bname = cg.bank(static_cast<int>(i)).name;
    s[i][1] = nl.add_net(cat("ctl.", bname, ".tp"));
    s[i][0] = nl.add_net(cat("ctl.", bname, ".tm"));
    net.rounds.push_back(s[i][1]);
    net.falls.push_back(s[i][0]);
    net.control_nets.push_back(s[i][1]);
    net.control_nets.push_back(s[i][0]);
  }

  // One inverter per marked arc source, shared between its targets.
  std::vector<std::array<nl::NetId, 2>> inv_of(
      cg.num_banks(), {nl::NetId::invalid(), nl::NetId::invalid()});
  auto inverted = [&](int bank, bool plus) {
    nl::NetId& cached = inv_of[static_cast<size_t>(bank)][plus ? 1 : 0];
    if (!cached.valid()) {
      cached = nl.add_net("");
      net.cells.push_back(nl.add_cell(
          cell::Kind::Inv, "", {s[static_cast<size_t>(bank)][plus ? 1 : 0]},
          {cached}));
      net.control_nets.push_back(cached);
    }
    return cached;
  };

  // One-shot reset kick: rises once, a cell delay after reset release.
  // Gating the marked (initially-tokened) predecessor joins with it makes
  // the initial tokens travel the delay lines as real transitions, so the
  // first capture of every bank waits for its matched data path.
  nl::NetId kick = nl::NetId::invalid();
  auto ensure_kick = [&]() {
    if (kick.valid()) return kick;
    nl::NetId hi = nl.add_net("ctl.kick.hi");
    net.cells.push_back(nl.add_cell(cell::Kind::TieHi, "", {}, {hi}));
    kick = nl.add_net("ctl.kick");
    net.cells.push_back(nl.add_cell(cell::Kind::CElem, "ctl.kick", {hi, hi},
                                    {kick}, cell::V::V0));
    net.control_nets.push_back(hi);
    net.control_nets.push_back(kick);
    return kick;
  };

  // Group the protocol arcs by target transition. Predecessor-side arcs
  // into one transition join into one delay line per marking class (the
  // marking fixes the reset value, and C-joins need a uniform one); the
  // line is sized to the transition's worst incoming edge, mirroring the
  // per-destination aggregation of the timed model.
  struct TransIn {
    std::vector<nl::NetId> direct;  ///< succ/alternation arcs, post-invert
    std::vector<cell::V> direct_init;
    std::vector<nl::NetId> pred[2];  ///< pred-side arcs, by marking class
    Ps worst = 0;
  };
  std::vector<std::array<TransIn, 2>> in(cg.num_banks());
  for (const ProtoArc& a : hardware_arcs(cg, p)) {
    nl::NetId x = a.marked ? inverted(a.from, a.from_plus)
                           : s[static_cast<size_t>(a.from)][a.from_plus ? 1 : 0];
    if (a.alternation && a.from_plus) {
      // Minimum transparency width on the a+ -> a- leg (three buffers, as
      // the Pulse generator): without it a fully-decoupled bank's window
      // can shrink to one C-element delay — narrower than the latch
      // propagation delay, and narrow enough that the enable XOR's own
      // loaded delay inertially swallows the window entirely.
      const std::string& bname = cg.bank(a.from).name;
      for (int k = 0; k < 3; ++k) {
        nl::NetId next = nl.add_net(cat("ctl.", bname, ".w", k));
        net.cells.push_back(nl.add_cell(cell::Kind::Buf, "", {x}, {next}));
        net.control_nets.push_back(next);
        x = next;
      }
    }
    TransIn& ti = in[static_cast<size_t>(a.to)][a.to_plus ? 1 : 0];
    if (a.pred_side) {
      ti.pred[a.marked ? 1 : 0].push_back(x);
      ti.worst = std::max(ti.worst, a.matched_delay);
    } else {
      ti.direct.push_back(x);
      ti.direct_init.push_back(a.marked ? cell::V::V1 : cell::V::V0);
    }
  }

  for (size_t i = 0; i < cg.num_banks(); ++i) {
    const std::string& bname = cg.bank(static_cast<int>(i)).name;
    for (int sign = 0; sign < 2; ++sign) {
      TransIn& ti = in[i][sign];
      const std::string tname = cat(bname, sign ? "+" : "-");
      std::vector<nl::NetId> inputs = ti.direct;
      std::vector<cell::V> inits = ti.direct_init;
      for (int m = 0; m < 2; ++m) {
        if (ti.pred[m].empty()) continue;
        const bool marked = m == 1;
        nl::NetId tap = join_to_one(nl, net, std::move(ti.pred[m]),
                                    cat(tname, ".req", m),
                                    marked ? cell::V::V1 : cell::V::V0);
        if (marked) {
          nl::NetId gated = nl.add_net(cat("ctl.", tname, ".tok"));
          net.cells.push_back(nl.add_cell(cell::Kind::And, "",
                                          {tap, ensure_kick()}, {gated}));
          net.control_nets.push_back(gated);
          tap = gated;
        }
        const int units = matched_delay_cells(ti.worst, tech);
        for (int k = 0; k < units; ++k) {
          nl::NetId next = nl.add_net(cat("ctl.", tname, ".d", m, "_", k));
          net.cells.push_back(nl.add_cell(cell::Kind::Delay, "", {tap}, {next}));
          net.control_nets.push_back(next);
          ++net.delay_units;
          tap = next;
        }
        inputs.push_back(tap);
        inits.push_back(cell::V::V0);  // settles 0 whether gated or not
      }
      DESYN_ASSERT(!inputs.empty(), "transition ", tname,
                   " has no control inputs");
      if (inputs.size() > static_cast<size_t>(cell::kMaxArity)) {
        // Wide join: C-trees are only valid over same-reset-value inputs,
        // so collapse each reset-value class to one net first.
        std::vector<nl::NetId> classes;
        for (cell::V v : {cell::V::V0, cell::V::V1}) {
          std::vector<nl::NetId> group;
          for (size_t k = 0; k < inputs.size(); ++k) {
            if (inits[k] == v) group.push_back(inputs[k]);
          }
          if (group.empty()) continue;
          classes.push_back(
              join_to_one(nl, net, std::move(group),
                          cat(tname, v == cell::V::V1 ? ".tok1" : ".tok0"), v));
        }
        inputs = std::move(classes);
      }
      if (inputs.size() == 1) inputs.push_back(inputs[0]);  // C(a,a)
      net.cells.push_back(nl.add_cell(cell::Kind::CElem, cat("ctl.", tname),
                                      std::move(inputs), {s[i][sign]},
                                      cell::V::V0));
    }

    // Level enable: rises on a+, falls on a-. Even banks (masters) start
    // transparent — XNOR of the two all-zero transition signals — exactly
    // the synchronous reference at CLK=0; odd banks start opaque.
    nl::NetId en = nl.add_net(cat("ctl.", bname, ".en"));
    net.cells.push_back(
        nl.add_cell(cg.bank(static_cast<int>(i)).even ? cell::Kind::Xnor
                                                      : cell::Kind::Xor,
                    cat("ctl.", bname, ".eg"), {s[i][1], s[i][0]}, {en}));
    net.window_cells.push_back({net.cells.back()});
    net.control_nets.push_back(en);
    net.enables.push_back(en);
  }
  return net;
}

}  // namespace

Ps controller_response_credit(const cell::Tech& tech) {
  // A request travels line -> (inverter) -> C-element -> pulse XOR before
  // the capture edge, while the producer's data left its latch right after
  // its own pulse XOR; these stages are part of the matched path.
  return tech.delay(cell::Kind::Inv, 1, 1) +
         tech.delay(cell::Kind::CElem, 2, 2) +
         tech.delay(cell::Kind::Xor, 2, 1);
}

Ps controller_response_delay(const cell::Tech& tech) {
  return tech.delay(cell::Kind::Inv, 1, 1) +
         tech.delay(cell::Kind::CElem, 2, 2);
}

Ps min_pulse_width(const cell::Tech& tech) {
  return 3 * tech.spec(cell::Kind::Buf).delay;
}

int matched_delay_cells(Ps matched, const cell::Tech& tech) {
  const Ps unit = tech.delay_unit();
  DESYN_ASSERT(unit > 0);
  const Ps credit = controller_response_credit(tech);
  return std::max<int>(
      1,
      static_cast<int>((std::max<Ps>(0, matched - credit) + unit - 1) / unit));
}

HardwareModel hardware_model(const ControlGraph& cg, Protocol p,
                             const cell::Tech& tech) {
  HardwareModel m;
  m.worst_in.assign(cg.num_banks(), 0);
  for (const ControlGraph::Edge& e : cg.edges()) {
    Ps& w = m.worst_in[static_cast<size_t>(e.to)];
    w = std::max(w, e.matched_delay);
  }
  m.line_cells.reserve(cg.num_banks());
  for (Ps w : m.worst_in) m.line_cells.push_back(matched_delay_cells(w, tech));
  // The synthesis sizes one line per destination (per transition for the
  // level protocols, whose pred arcs into a transition all come from the
  // same bank's incoming edges), so every pred arc carries its consumer's.
  m.arcs = hardware_arcs(cg, p);
  for (ProtoArc& a : m.arcs) {
    if (a.pred_side) {
      a.matched_delay =
          m.line_cells[static_cast<size_t>(a.to)] * tech.delay_unit();
    }
  }
  m.mg = mg_from_arcs(cat("hw_", protocol_name(p)), cg, m.arcs,
                      controller_response_delay(tech), min_pulse_width(tech));
  return m;
}

ControllerNetwork synthesize_controllers(nl::Builder& b,
                                         const ControlGraph& cg, Protocol p,
                                         const cell::Tech& tech) {
  cg.validate();
#ifndef NDEBUG
  // Malformed protocol models must fail fast here, at synthesis time, not
  // later as a lint finding or a simulation deadlock. protocol_mg() already
  // asserts the MG admits its own canonical schedule; on top of that both
  // the abstract model and the hardware refinement must be live (no
  // token-free cycle: the network cannot deadlock) and safe (1-bounded:
  // a single wire per arc can carry the marking). is_safe() runs one
  // BFS per distinct arc head, so it is gated on graph size — big
  // fabrics (4k+ transitions) still get the linear liveness check.
  {
    pn::MarkedGraph model = protocol_mg(cg, p);
    DESYN_ASSERT(pn::is_live(model), "protocol MG not live: ",
                 protocol_name(p));
    pn::MarkedGraph hw = hardware_model(cg, p, tech).mg;
    DESYN_ASSERT(pn::is_live(hw), "hardware MG not live: ", protocol_name(p));
    constexpr uint32_t kSafeCheckMaxArcs = 4096;
    if (hw.num_arcs() <= kSafeCheckMaxArcs) {
      DESYN_ASSERT(pn::is_safe(model), "protocol MG not safe: ",
                   protocol_name(p));
      DESYN_ASSERT(pn::is_safe(hw), "hardware MG not safe: ",
                   protocol_name(p));
    }
  }
#endif
  if (p == Protocol::Pulse) return synthesize_pulse(b, cg, tech);
  return synthesize_level(b, cg, p, tech);
}

}  // namespace desyn::ctl

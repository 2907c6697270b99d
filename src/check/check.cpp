// The linter's four passes (see check.h). The graph passes are the
// library's: pass 1 runs nl::comb_order once (its blocked cells are the
// DSN102 cycle, its order settles the reset state); pass 2 runs
// pn::is_live, pn::is_safe and pn::MinTokenSearch on one extracted MG.
#include "check/check.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include "base/json.h"
#include "core/adjacency.h"
#include "core/clocktree.h"
#include "netlist/query.h"
#include "pn/analysis.h"

namespace desyn::check {

namespace {

using cell::Kind;
using cell::V;

const char* severity_name(Severity s) {
  return s == Severity::Error ? "error" : "warning";
}

std::string sign_name(int bank, bool plus, const ctl::ControlGraph& cg) {
  return cat(cg.bank(bank).name, plus ? "+" : "-");
}

// ---- extracted control structure -----------------------------------------

/// A control arc recovered from the gate level: source/target transition,
/// initial marking (from reset values + path inversion parity) and the
/// number of DELAY cells traversed (matched-delay line + skew chain).
struct ExtArc {
  int from = 0;
  bool from_plus = false;
  int to = 0;
  bool to_plus = false;
  bool marked = false;
  int delays = 0;
};

/// (from, from_plus, to, to_plus) — the identity of an arc up to marking.
using Quad = std::tuple<int, bool, int, bool>;

Quad quad_of(const ExtArc& a) { return {a.from, a.from_plus, a.to, a.to_plus}; }
Quad quad_of(const ctl::ProtoArc& a) {
  return {a.from, a.from_plus, a.to, a.to_plus};
}

/// One backward path from a C-element input to a source transition net:
/// inversion parity and DELAY count accumulated along the way.
struct PathEnd {
  int bank = 0;
  bool plus = false;
  int parity = 0;
  int delays = 0;
};

/// Reverse-extracts the marked graph from the synthesized Muller network.
/// Every transition net (ctrl.rounds / ctrl.falls) must be driven by a
/// C-element; each of its input cones is traced backward through the cell
/// vocabulary the synthesis emits — buffers, delay lines, marking
/// inverters, join C-elements, the reset-kick AND gate and its tie-high
/// generator — until another transition net is reached. Anything else in
/// the cone (datapath cells, primary inputs, undriven nets, cyclic
/// structure) fails the extraction with DSN201.
struct ControlExtractor {
  const nl::Netlist& nl;
  /// net -> (bank, plus) for every transition net.
  std::unordered_map<uint32_t, std::pair<int, bool>> terminal;
  /// net -> reset value of the transition signal (its C-element's init).
  std::unordered_map<uint32_t, V> terminal_init;
  std::unordered_map<uint32_t, std::vector<PathEnd>> memo;
  std::vector<uint8_t> on_stack;  ///< per-net cycle guard
  bool failed = false;
  std::string fail_msg;
  std::string fail_net;

  explicit ControlExtractor(const nl::Netlist& n)
      : nl(n), on_stack(n.num_nets(), 0) {}

  void set_fail(nl::NetId n, std::string msg) {
    if (failed) return;
    failed = true;
    fail_msg = std::move(msg);
    fail_net = nl.net(n).name;
  }

  const std::vector<PathEnd>& trace(nl::NetId n) {
    static const std::vector<PathEnd> kEmpty;
    if (failed) return kEmpty;
    auto memoized = memo.find(n.value());
    if (memoized != memo.end()) return memoized->second;
    if (auto t = terminal.find(n.value()); t != terminal.end()) {
      return memo
          .emplace(n.value(),
                   std::vector<PathEnd>{{t->second.first, t->second.second,
                                         /*parity=*/0, /*delays=*/0}})
          .first->second;
    }
    if (on_stack[n.value()]) {
      set_fail(n, "cyclic controller structure (non-transition feedback)");
      return kEmpty;
    }
    const nl::NetData& nd = nl.net(n);
    if (!nd.driver.valid()) {
      set_fail(n, nl.is_primary_input(n)
                      ? "controller cone driven by a primary input"
                      : "undriven net in controller cone");
      return kEmpty;
    }
    on_stack[n.value()] = 1;
    const nl::CellData& cd = nl.cell(nd.driver);
    std::vector<PathEnd> out;
    switch (cd.kind) {
      case Kind::TieHi:
      case Kind::TieLo:
        break;  // the kick generator's constants: no arc on this branch
      case Kind::Buf:
      case Kind::Delay:
      case Kind::Inv: {
        out = trace(cd.ins[0]);
        for (PathEnd& p : out) {
          if (cd.kind == Kind::Delay) ++p.delays;
          if (cd.kind == Kind::Inv) p.parity ^= 1;
        }
        break;
      }
      case Kind::And:    // reset-kick gating of marked predecessor arcs
      case Kind::CElem:  // join trees (and the kick one-shot itself)
        for (nl::NetId in : cd.ins) {
          const std::vector<PathEnd>& sub = trace(in);
          out.insert(out.end(), sub.begin(), sub.end());
        }
        break;
      default:
        set_fail(n, cat("unexpected ", cell::kind_name(cd.kind), " cell '",
                        cd.name, "' in controller cone"));
        break;
    }
    on_stack[n.value()] = 0;
    if (failed) return kEmpty;
    return memo.emplace(n.value(), std::move(out)).first->second;
  }
};

// ---- the linter ----------------------------------------------------------

struct Linter {
  const flow::DesyncResult& r;
  const cell::Tech& tech;
  const flow::Margins& margins;
  const nl::Netlist& nl;
  const ctl::ControlGraph& cg;
  LintReport rep;

  bool comb_cycle = false;
  bool level = false;  ///< level protocols have a- transitions; Pulse not

  std::vector<ExtArc> extracted;
  std::set<std::pair<Quad, bool>> ext_set;  ///< (quad, marked)
  std::map<Quad, int> ext_delays;           ///< quad -> max DELAY count
  /// The extracted control MG (transitions indexed by node_of, unnamed):
  /// liveness, safety and the protocol contracts all run on it.
  pn::MarkedGraph ext_mg;
  std::vector<ctl::ProtoArc> model;
  /// Recomputed launch->capture delay per bank pair (flow::timed_edges).
  std::map<std::pair<int, int>, Ps> recomputed;

  Linter(const flow::DesyncResult& res, const cell::Tech& t,
         const flow::Margins& m)
      : r(res), tech(t), margins(m), nl(res.netlist), cg(res.cg) {
    level = r.protocol != ctl::Protocol::Pulse;
  }

  void add(int code, Severity sev, std::string msg, std::string net = "",
           std::string cell = "") {
    rep.diags.push_back(
        {code, sev, std::move(msg), std::move(net), std::move(cell)});
  }

  int real_banks() const { return static_cast<int>(r.banks.banks.size()); }

  // ---- pass 1: netlist structural lint -----------------------------------

  void pass_structure() {
    size_t before = rep.diags.size();
    check_floating_nets();
    nl::CombOrder co = nl::comb_order(nl);
    check_comb_cycles(co.blocked);
    if (!comb_cycle) {
      check_enable_roots();
      check_reset_settling(co.order);
    }
    rep.structure_clean = rep.diags.size() == before;
  }

  void check_floating_nets() {
    for (uint32_t i = 0; i < nl.num_nets(); ++i) {
      nl::NetId n(i);
      const nl::NetData& nd = nl.net(n);
      if (nd.driver.valid() || nd.fanout.empty()) continue;
      if (nl.is_primary_input(n)) continue;
      add(kFloatingNet, Severity::Error,
          cat("net '", nd.name, "' has ", nd.fanout.size(),
              " reader(s) but no driver"),
          nd.name);
    }
  }

  /// The cells nl::comb_order could not order sit on or behind a genuine
  /// combinational cycle (C-element feedback is cut and therefore never
  /// reported).
  void check_comb_cycles(const std::vector<nl::CellId>& blocked) {
    if (blocked.empty()) return;
    comb_cycle = true;
    // Walk backward through blocked predecessors until a repeat: the
    // repeated cell is a member of an actual cycle, not just downstream.
    std::vector<uint8_t> is_blocked(nl.num_cells(), 0);
    for (nl::CellId c : blocked) is_blocked[c.value()] = 1;
    std::set<uint32_t> seen;
    nl::CellId at = blocked.front();
    while (seen.insert(at.value()).second) {
      for (nl::NetId in : nl.cell(at).ins) {
        nl::CellId drv = nl.net(in).driver;
        if (drv.valid() && is_blocked[drv.value()]) {
          at = drv;
          break;
        }
      }
    }
    add(kCombCycle, Severity::Error,
        cat("combinational cycle through cell '", nl.cell(at).name,
            "' (not C-element feedback)"),
        "", nl.cell(at).name);
  }

  /// Walk a storage control pin's net up through distribution buffers to
  /// the gate that generates it.
  nl::NetId enable_root(nl::NetId n) const {
    for (size_t guard = 0; guard < nl.num_cells() + 1; ++guard) {
      const nl::NetData& nd = nl.net(n);
      if (!nd.driver.valid()) return n;
      const nl::CellData& cd = nl.cell(nd.driver);
      if (cd.kind != Kind::Buf) return n;
      n = cd.ins[0];
    }
    return n;
  }

  void check_enable_roots() {
    for (int b = 0; b < real_banks(); ++b) {
      const flow::Bank& bank = r.banks.banks[static_cast<size_t>(b)];
      nl::NetId want = r.ctrl.enables[static_cast<size_t>(b)];
      auto check_pin = [&](nl::CellId c, uint16_t pin, const char* what) {
        const nl::CellData& cd = nl.cell(c);
        nl::NetId root = enable_root(cd.ins[pin]);
        if (root == want) return;
        add(kDanglingEnable, Severity::Error,
            cat(what, " of '", cd.name, "' (bank ", bank.name,
                ") is rooted at net '", nl.net(root).name,
                "', not the bank enable '", nl.net(want).name, "'"),
            nl.net(cd.ins[pin]).name, cd.name);
      };
      for (nl::CellId c : bank.latches) {
        if (nl.cell(c).kind != Kind::Latch) {
          add(kDanglingEnable, Severity::Error,
              cat("latch '", nl.cell(c).name, "' (bank ", bank.name,
                  ") kept kind ", cell::kind_name(nl.cell(c).kind),
                  " — masters must flip to LATCH under pulse control"),
              "", nl.cell(c).name);
        }
        check_pin(c, 1, "enable pin");
      }
      for (nl::CellId c : bank.rams) check_pin(c, 0, "write-commit pin");
    }
  }

  /// Three-valued reset snapshot: storage and C-elements output their init
  /// value, primary inputs and memory read data are unknown; one pass over
  /// the combinational order settles everything else. Every control net
  /// must come out binary, or the controller's reset state is undefined.
  void check_reset_settling(const std::vector<nl::CellId>& order) {
    std::vector<V> val(nl.num_nets(), V::VX);
    for (nl::CellId c : nl.cells()) {
      const nl::CellData& cd = nl.cell(c);
      if (cd.kind == Kind::Ram || cd.kind == Kind::Rom) continue;
      if (cell::is_storage(cd.kind) || cell::is_state_holding(cd.kind)) {
        val[cd.outs[0].value()] = cd.init;
      }
    }
    std::vector<V> ins;
    for (nl::CellId c : order) {
      const nl::CellData& cd = nl.cell(c);
      if (!cell::is_combinational(cd.kind) || cd.kind == Kind::Rom) continue;
      ins.clear();
      for (nl::NetId in : cd.ins) ins.push_back(val[in.value()]);
      val[cd.outs[0].value()] = cell::eval_comb(cd.kind, ins);
    }
    std::set<uint32_t> control;
    for (nl::NetId n : r.ctrl.control_nets) control.insert(n.value());
    for (nl::NetId n : r.ctrl.enables) control.insert(n.value());
    size_t reported = 0, total = 0;
    for (uint32_t nid : control) {
      if (val[nid] != V::VX) continue;
      ++total;
      if (reported < 8) {
        ++reported;
        add(kResetUnresolved, Severity::Error,
            cat("control net '", nl.net(nl::NetId(nid)).name,
                "' does not settle to 0/1 at reset"),
            nl.net(nl::NetId(nid)).name);
      }
    }
    if (total > reported) {
      add(kResetUnresolved, Severity::Error,
          cat(total - reported,
              " further control nets do not settle at reset"));
    }
  }

  // ---- pass 2: control-network verification ------------------------------

  void pass_control() {
    model = ctl::hardware_arcs(cg, r.protocol);
    if (!level) {
      // Pulse hardware has one C-element per bank: only the round (+)
      // events exist at the gate level; the model's alternation arcs have
      // no hardware counterpart.
      std::erase_if(model, [](const ctl::ProtoArc& a) {
        return a.alternation || !a.from_plus || !a.to_plus;
      });
    }
    if (!extract()) return;
    rep.control_extracted = true;
    rep.arcs_checked = ext_set.size();
    build_ext_mg();
    check_live_safe();
    check_arc_sets();
    check_protocol_contracts();
  }

  bool extract() {
    ControlExtractor ex(nl);
    size_t nbanks = cg.num_banks();
    for (size_t b = 0; b < nbanks; ++b) {
      nl::NetId plus = r.ctrl.rounds[b];
      if (plus.valid()) ex.terminal[plus.value()] = {static_cast<int>(b), true};
      if (level) {
        nl::NetId minus = r.ctrl.falls[b];
        if (minus.valid()) {
          ex.terminal[minus.value()] = {static_cast<int>(b), false};
        }
      }
    }
    for (auto& [nid, t] : ex.terminal) {
      nl::CellId drv = nl.net(nl::NetId(nid)).driver;
      if (!drv.valid() || nl.cell(drv).kind != Kind::CElem) {
        add(kExtractionFailed, Severity::Error,
            cat("transition net '", nl.net(nl::NetId(nid)).name,
                "' is not driven by a C-element"),
            nl.net(nl::NetId(nid)).name);
        return false;
      }
      ex.terminal_init[nid] = nl.cell(drv).init;
    }
    for (auto& [nid, t] : ex.terminal) {
      nl::CellId drv = nl.net(nl::NetId(nid)).driver;
      for (nl::NetId in : nl.cell(drv).ins) {
        const std::vector<PathEnd>& ends = ex.trace(in);
        if (ex.failed) break;
        for (const PathEnd& p : ends) {
          nl::NetId src_net =
              p.plus || !level ? r.ctrl.rounds[static_cast<size_t>(p.bank)]
                               : r.ctrl.falls[static_cast<size_t>(p.bank)];
          V src_init = ex.terminal_init[src_net.value()];
          V dst_init = ex.terminal_init[nid];
          // The marking rule: the arc carries an initial token iff the
          // source signal's reset value, seen through the path's inversion
          // parity, differs from the target's reset value — exactly how
          // the synthesis realizes marked arcs (one marking inverter).
          bool marked =
              (p.parity ? (src_init == dst_init) : (src_init != dst_init));
          extracted.push_back({p.bank, p.plus, t.first, t.second, marked,
                               p.delays});
        }
      }
      if (ex.failed) break;
    }
    if (ex.failed) {
      add(kExtractionFailed, Severity::Error, ex.fail_msg, ex.fail_net);
      return false;
    }
    for (const ExtArc& a : extracted) {
      ext_set.insert({quad_of(a), a.marked});
      auto [it, fresh] = ext_delays.emplace(quad_of(a), a.delays);
      if (!fresh) it->second = std::max(it->second, a.delays);
    }
    return true;
  }

  /// Transition index in the extracted MG.
  int node_of(int bank, bool plus) const {
    return level ? bank * 2 + (plus ? 0 : 1) : bank;
  }

  void build_ext_mg() {
    const size_t nodes = cg.num_banks() * (level ? 2 : 1);
    for (size_t t = 0; t < nodes; ++t) ext_mg.add_transition({});
    for (const auto& [q, marked] : ext_set) {
      auto [f, fp, t, tp] = q;
      ext_mg.add_arc(pn::TransId(static_cast<uint32_t>(node_of(f, fp))),
                     pn::TransId(static_cast<uint32_t>(node_of(t, tp))),
                     marked ? 1 : 0);
    }
  }

  void check_live_safe() {
    if (!pn::is_live(ext_mg)) {
      add(kNotLive, Severity::Error,
          "extracted control MG is not live (token-free cycle: the "
          "controllers deadlock)");
      return;  // is_safe requires liveness
    }
    if (!pn::is_safe(ext_mg)) {
      add(kNotSafe, Severity::Error,
          "extracted control MG is not safe (a handshake place can hold "
          "more than one token)");
    }
  }

  void check_arc_sets() {
    std::set<std::pair<Quad, bool>> model_set;
    for (const ctl::ProtoArc& a : model) {
      model_set.insert({quad_of(a), a.marked});
    }
    auto arc_name = [&](const Quad& q, bool marked) {
      auto [f, fp, t, tp] = q;
      return cat(sign_name(f, fp, cg), " -> ", sign_name(t, tp, cg),
                 marked ? " (marked)" : " (unmarked)");
    };
    for (const auto& [q, marked] : model_set) {
      if (ext_set.count({q, marked})) continue;
      if (ext_set.count({q, !marked})) {
        add(kArcMismatch, Severity::Error,
            cat("arc ", arc_name(q, marked),
                " has the opposite initial marking in hardware"));
      } else {
        add(kArcMismatch, Severity::Error,
            cat("model arc ", arc_name(q, marked), " missing from hardware"));
      }
    }
    for (const auto& [q, marked] : ext_set) {
      if (model_set.count({q, marked}) || model_set.count({q, !marked})) {
        continue;  // marking mismatches reported once, from the model side
      }
      add(kArcMismatch, Severity::Error,
          cat("hardware arc ", arc_name(q, marked), " not in the model"));
    }
  }

  /// Protocol contracts that hold independently of the arc enumeration —
  /// the second source of truth that catches a PR 2-class bug where model
  /// and hardware share the same wrong arc list. Checked per data edge on
  /// the *extracted* graph:
  ///  * Lockstep/Semi forbid overlapping transparency: b may open only
  ///    after a closed, i.e. a token-free path a- -> b+ must exist.
  ///  * FullyDecoupled orders captures: the k-th capture of b follows the
  ///    k-th capture of a (offset by the canonical schedule), i.e. the
  ///    minimum-token path a- -> b- carries at most the schedule offset.
  void check_protocol_contracts() {
    if (!level) return;
    bool overlap_free = r.protocol == ctl::Protocol::Lockstep ||
                        r.protocol == ctl::Protocol::SemiDecoupled;
    // Both contracts start at the producer's a-: one search per source bank
    // yields the min-token count of every edge, reported in edge order.
    const auto& edges = cg.edges();
    std::vector<std::vector<size_t>> by_from(cg.num_banks());
    for (size_t i = 0; i < edges.size(); ++i) {
      by_from[static_cast<size_t>(edges[i].from)].push_back(i);
    }
    std::vector<int> tokens(edges.size());
    pn::MinTokenSearch search(ext_mg);
    for (size_t b = 0; b < by_from.size(); ++b) {
      if (by_from[b].empty()) continue;
      const std::vector<int>& dist = search.from(pn::TransId(
          static_cast<uint32_t>(node_of(static_cast<int>(b), false))));
      for (size_t i : by_from[b]) {
        tokens[i] =
            dist[static_cast<size_t>(node_of(edges[i].to, overlap_free))];
      }
    }
    for (size_t i = 0; i < edges.size(); ++i) {
      const ctl::ControlGraph::Edge& e = edges[i];
      const int mt = tokens[i];
      if (overlap_free) {
        if (mt != 0) {
          add(kProtocolContract, Severity::Error,
              cat("non-overlap violated on edge ", cg.bank(e.from).name,
                  " -> ", cg.bank(e.to).name, ": no token-free path ",
                  sign_name(e.from, false, cg), " -> ",
                  sign_name(e.to, true, cg),
                  " (the consumer can open before the producer closes)"));
        }
      } else {  // FullyDecoupled
        int allowed =
            ctl::first_fire_index(r.protocol, cg.bank(e.to).even, false) <
                    ctl::first_fire_index(r.protocol, cg.bank(e.from).even,
                                          false)
                ? 1
                : 0;
        if (mt > allowed) {
          add(kProtocolContract, Severity::Error,
              cat("capture ordering violated on edge ", cg.bank(e.from).name,
                  " -> ", cg.bank(e.to).name, ": min-token path ",
                  sign_name(e.from, false, cg), " -> ",
                  sign_name(e.to, false, cg), " carries ",
                  mt == pn::MinTokenSearch::kUnreachable
                      ? cat("no path")
                      : cat(mt, " token(s)"),
                  ", schedule allows ", allowed));
        }
      }
    }
  }

  // ---- pass 3: matched-delay coverage ------------------------------------

  /// flow::timed_edges re-run on the *final* netlist: the delays the flow
  /// would size for it now. LATCH and LATCHN share one liberty spec, so
  /// timing the flipped masters reproduces the latchified netlist's
  /// timing exactly; control nets feed only enable pins (not data
  /// endpoints), so the controller never contaminates the datapath
  /// arrivals. Every primary input launches: the ex-clock has no fanout in
  /// a desynchronized netlist, so it contributes nothing.
  void pass_timing() {
    for (const ctl::ControlGraph::Edge& e :
         flow::timed_edges(nl, r.banks, nl::NetId(), tech, margins)) {
      recomputed[{e.from, e.to}] = e.matched_delay;
    }
    rep.edges_checked = recomputed.size();

    // DSN302: every recomputed launch->capture pair must be a control-graph
    // edge, or its path is guarded by no matched delay at all.
    std::set<std::pair<int, int>> cg_pairs;
    for (const ctl::ControlGraph::Edge& e : cg.edges()) {
      cg_pairs.insert({e.from, e.to});
    }
    for (const auto& [pair, d] : recomputed) {
      if (cg_pairs.count(pair)) continue;
      add(kUncoveredPath, Severity::Error,
          cat("combinational path ", cg.bank(pair.first).name, " -> ",
              cg.bank(pair.second).name, " (", d,
              "ps with margin) has no control-graph edge: no matched delay "
              "guards it"));
    }

    if (!rep.control_extracted) return;

    // DSN301/303: each synthesized line must hold at least the units the
    // recomputed delays require (controller response credited, exactly the
    // synthesis' sizing rule) plus the source bank's enable-tree skew
    // compensation.
    std::map<std::pair<int, bool>, Ps> required;  // target transition -> ps
    for (const ctl::ProtoArc& a : model) {
      if (!a.pred_side) continue;
      auto it = recomputed.find({a.from, a.to});
      Ps d = it == recomputed.end() ? 0 : it->second;
      auto [slot, fresh] = required.emplace(std::make_pair(a.to, a.to_plus), d);
      if (!fresh) slot->second = std::max(slot->second, d);
    }
    std::set<Quad> pred_quads;
    for (const ctl::ProtoArc& a : model) {
      if (a.pred_side) pred_quads.insert(quad_of(a));
    }
    for (const Quad& q : pred_quads) {
      auto it = ext_delays.find(q);
      if (it == ext_delays.end()) continue;  // missing arc: pass 2/4 report
      auto [f, fp, t, tp] = q;
      int need = ctl::matched_delay_cells(required[{t, tp}], tech) +
                 skew_units(f);
      ++rep.paths_checked;
      if (it->second < need) {
        add(kDelayLineShort, Severity::Error,
            cat("matched-delay line ", sign_name(f, fp, cg), " -> ",
                sign_name(t, tp, cg), " has ", it->second,
                " DELAY cell(s), the data path needs ", need));
      } else if (it->second > need) {
        add(kDelayLineLong, Severity::Warning,
            cat("matched-delay line ", sign_name(f, fp, cg), " -> ",
                sign_name(t, tp, cg), " has ", it->second,
                " DELAY cell(s), ", need, " suffice (area waste)"));
      }
    }
  }

  /// The enable-tree skew compensation the flow inserts for wide banks
  /// (core/desynchronizer.cpp): every handshake consumer of a bank's
  /// transition nets is pushed back by its enable tree's insertion in
  /// whole DELAY units. Recomputed here from the bank's sink count with
  /// the flow's own rule, so the expected line lengths match the hardware.
  int skew_units(int bank) const {
    if (bank >= real_banks()) return 0;  // env banks drive no storage
    const flow::Bank& b = r.banks.banks[static_cast<size_t>(bank)];
    return flow::tree_insertion(b.latches.size() + b.rams.size(), tech).units;
  }

  // ---- pass 4: handshake completeness ------------------------------------

  void pass_handshake() {
    if (!rep.control_extracted) return;
    // DSN401: every request arc's acknowledge must exist — the model's
    // successor-side arcs (consumer back to producer) found in hardware.
    for (const ctl::ProtoArc& a : model) {
      if (a.pred_side || a.alternation) continue;
      if (ext_set.count({quad_of(a), a.marked}) ||
          ext_set.count({quad_of(a), !a.marked})) {
        continue;
      }
      add(kMissingAck, Severity::Error,
          cat("request ", cg.bank(a.to).name, " -> ", cg.bank(a.from).name,
              " has no acknowledging arc ", sign_name(a.from, a.from_plus, cg),
              " -> ", sign_name(a.to, a.to_plus, cg)));
    }
    // DSN402: RAM writers keep their ordering/closure arcs. Writers are
    // odd banks owning RAM macros; readers must capture before the write
    // commits (the reader -> writer edges), and under FullyDecoupled the
    // writer -> command-source closure edges keep the command pins stable.
    for (int w = 0; w < real_banks(); ++w) {
      const flow::Bank& wb = r.banks.banks[static_cast<size_t>(w)];
      if (wb.rams.empty() || wb.even) continue;
      for (const ctl::ControlGraph::Edge& e : cg.edges()) {
        bool reader_edge = e.from != w && e.to == w && e.from < real_banks() &&
                           cg.bank(e.from).even;
        bool closure_edge = r.protocol == ctl::Protocol::FullyDecoupled &&
                            e.from == w && e.to < real_banks() &&
                            cg.bank(e.to).even;
        if (!reader_edge && !closure_edge) continue;
        for (const ctl::ProtoArc& a : model) {
          if (a.alternation || a.from != e.from || a.to != e.to) continue;
          if (reader_edge && !a.pred_side) continue;   // ordering = pred arcs
          if (closure_edge && a.pred_side) continue;   // closure = ack arcs
          if (ext_set.count({quad_of(a), a.marked}) ||
              ext_set.count({quad_of(a), !a.marked})) {
            continue;
          }
          add(kRamClosureLost, Severity::Error,
              cat("RAM writer ", wb.name, " lost its ",
                  reader_edge ? "read-ordering" : "command-source closure",
                  " arc ", sign_name(a.from, a.from_plus, cg), " -> ",
                  sign_name(a.to, a.to_plus, cg)));
        }
      }
    }
  }

  LintReport run() {
    pass_structure();
    if (!comb_cycle) {  // Sta/topo machinery needs an acyclic netlist
      pass_control();
      pass_timing();
      pass_handshake();
    }
    return std::move(rep);
  }
};

}  // namespace

const char* code_pass(int code) {
  if (code < 200) return "structure";
  if (code < 300) return "control";
  if (code < 400) return "timing";
  return "handshake";
}

std::string format_code(int code) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "DSN%03d", code);
  return buf;
}

size_t LintReport::errors() const {
  size_t n = 0;
  for (const Diag& d : diags) n += d.severity == Severity::Error;
  return n;
}

size_t LintReport::warnings() const {
  size_t n = 0;
  for (const Diag& d : diags) n += d.severity == Severity::Warning;
  return n;
}

bool LintReport::has(int code) const {
  for (const Diag& d : diags) {
    if (d.code == code) return true;
  }
  return false;
}

LintReport lint(const flow::DesyncResult& r, const cell::Tech& tech,
                const flow::Margins& margins) {
  Linter linter(r, tech, margins);
  return linter.run();
}

std::string render_text(const LintReport& rep, const std::string& circuit) {
  std::string out;
  for (const Diag& d : rep.diags) {
    out += cat(format_code(d.code), " ", severity_name(d.severity), " [",
               code_pass(d.code), "] ", d.message);
    if (!d.net.empty()) out += cat(" (net ", d.net, ")");
    if (!d.cell.empty()) out += cat(" (cell ", d.cell, ")");
    out += "\n";
  }
  out += cat(circuit, ": ", rep.errors(), " error(s), ", rep.warnings(),
             " warning(s); checked ", rep.arcs_checked, " arcs, ",
             rep.paths_checked, " delay lines, ", rep.edges_checked,
             " bank pairs\n");
  return out;
}

std::string render_json(const LintReport& rep, const std::string& circuit,
                        ctl::Protocol protocol, double margin) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.4f", margin);
  std::string s = cat("{\"circuit\": \"", json::escape(circuit),
                      "\", \"protocol\": \"", ctl::protocol_name(protocol),
                      "\", \"margin\": ", buf,
                      ", \"clean\": ", rep.clean() ? "true" : "false",
                      ", \"errors\": ", rep.errors(),
                      ", \"warnings\": ", rep.warnings(),
                      ", \"checked\": {\"arcs\": ", rep.arcs_checked,
                      ", \"paths\": ", rep.paths_checked,
                      ", \"edges\": ", rep.edges_checked, "}, \"diags\": [");
  for (size_t i = 0; i < rep.diags.size(); ++i) {
    const Diag& d = rep.diags[i];
    s += cat(i ? ", " : "", "{\"code\": \"", format_code(d.code),
             "\", \"pass\": \"", code_pass(d.code), "\", \"severity\": \"",
             severity_name(d.severity), "\", \"message\": \"",
             json::escape(d.message), "\", \"net\": \"", json::escape(d.net),
             "\", \"cell\": \"", json::escape(d.cell), "\"}");
  }
  s += "]}";
  return s;
}

}  // namespace desyn::check

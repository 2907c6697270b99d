// Static verification of desynchronized circuits (`desyn_cli lint`).
//
// Every correctness guarantee elsewhere in the repo is dynamic — trace
// conformance and flow equivalence run the event simulator. This module is
// the static layer: four analysis passes over a flow::DesyncResult that
// prove (or refute) the properties the paper's construction relies on
// without simulating a single event.
//
//   structure   netlist-level sanity: floating nets, genuine combinational
//               cycles (the cells nl::comb_order cannot order; C-element
//               feedback is cut), storage control pins not rooted at their
//               bank's enable, control nets that do not settle to a binary
//               value at reset (one pass over that same order).
//   control     the marked graph is reverse-extracted from the synthesized
//               Muller gates (C-element input cones traced through
//               buffers/inverters/delay lines/join trees; an arc's initial
//               marking is recovered from reset values and path inversion
//               parity) into one pn::MarkedGraph, checked for liveness,
//               safeness (pn::is_live/is_safe), arc-for-arc
//               agreement with the intended ctl::hardware_arcs model, and
//               protocol contracts that hold even if the model itself were
//               wrong (non-overlap for Lockstep/Semi, capture ordering for
//               FullyDecoupled; pn::MinTokenSearch on the same graph) —
//               the PR 2 Lockstep arc-set bug class.
//   timing      matched-delay coverage: re-runs flow::timed_edges on the
//               final netlist to recompute every launch->capture bank
//               delay and checks each synthesized delay line is long
//               enough (margin applied, controller response credited,
//               enable-tree skew compensation included).
//   handshake   every request has an acknowledging arc and every RAM
//               writer keeps its read-ordering / command-source closure
//               arcs.
//
// Diagnostics carry stable DSN### codes (see docs/LINT.md) with net/cell
// anchors; renderers produce human text and the desyn-lint-v1 JSON object.
#pragma once

#include <string>
#include <vector>

#include "core/desynchronizer.h"

namespace desyn::check {

enum class Severity { Warning, Error };

/// Stable diagnostic codes. The numeric value is the published DSN number:
/// 1xx structure, 2xx control, 3xx timing, 4xx handshake. Codes are append-
/// only — tools and CI gates match on them.
enum Code : int {
  kFloatingNet = 101,        ///< net with fanout but no driver (and not a PI)
  kCombCycle = 102,          ///< combinational cycle outside C-element feedback
  kDanglingEnable = 103,     ///< storage control pin not rooted at its bank enable
  kResetUnresolved = 104,    ///< control net does not settle 0/1 at reset
  kExtractionFailed = 201,   ///< controller cone is not a recognizable MG
  kNotLive = 202,            ///< extracted MG has a token-free cycle
  kNotSafe = 203,            ///< extracted MG is not 1-bounded
  kArcMismatch = 204,        ///< extracted arc set differs from the model
  kProtocolContract = 205,   ///< non-overlap / capture-ordering violated
  kDelayLineShort = 301,     ///< matched-delay line shorter than the path needs
  kUncoveredPath = 302,      ///< launch->capture path with no control-graph edge
  kDelayLineLong = 303,      ///< line longer than needed (area waste; warning)
  kMissingAck = 401,         ///< request arc without its acknowledging arc
  kRamClosureLost = 402,     ///< RAM writer ordering/closure arcs missing
};

/// Pass family of a code ("structure", "control", "timing", "handshake").
const char* code_pass(int code);
/// "DSN204" formatting.
std::string format_code(int code);

struct Diag {
  int code = 0;
  Severity severity = Severity::Error;
  std::string message;  ///< human-readable, names inline
  std::string net;      ///< offending net name ("" when not net-anchored)
  std::string cell;     ///< offending cell name ("" when not cell-anchored)
};

struct LintReport {
  std::vector<Diag> diags;
  bool structure_clean = false;   ///< pass 1 found nothing cycle-breaking
  bool control_extracted = false; ///< pass 2 rebuilt the MG successfully
  size_t arcs_checked = 0;   ///< extracted control arcs compared to the model
  size_t paths_checked = 0;  ///< matched-delay pred paths length-verified
  size_t edges_checked = 0;  ///< recomputed launch->capture bank pairs

  size_t errors() const;
  size_t warnings() const;
  bool clean() const { return diags.empty(); }
  bool has(int code) const;
};

/// Run all four passes over a flow result. Pure analysis: `r` is not
/// modified and no exception escapes for any mutation of a once-valid
/// DesyncResult (defects become diagnostics, not crashes). `margins` must
/// be the ones the flow ran with (DesyncOptions::margin and ::margins;
/// DesyncResult does not carry them): the timing pass re-derives the
/// required delay-line lengths with them, so a line optimize_margins
/// shaved is not flagged as DSN301.
LintReport lint(const flow::DesyncResult& r, const cell::Tech& tech,
                const flow::Margins& margins = {});

/// Human-readable multi-line rendering ("" header line per diag plus a
/// summary); `circuit` labels the run.
std::string render_text(const LintReport& rep, const std::string& circuit);

/// One desyn-lint-v1 run object (documented in docs/LINT.md):
///   {"circuit": ..., "protocol": ..., "margin": ..., "clean": ...,
///    "errors": N, "warnings": N,
///    "checked": {"arcs": ..., "paths": ..., "edges": ...},
///    "diags": [{"code": "DSN###", "pass": ..., "severity": ...,
///               "message": ..., "net": ..., "cell": ...}]}
/// Callers wrap runs into {"schema": "desyn-lint-v1", "runs": [...]}.
std::string render_json(const LintReport& rep, const std::string& circuit,
                        ctl::Protocol protocol, double margin);

}  // namespace desyn::check

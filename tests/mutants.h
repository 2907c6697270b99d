// Matched-delay mutants of a desynchronized netlist, shared by the lint
// tests (DSN301) and the flow-equivalence horizon tests.
#pragma once

#include "netlist/netlist.h"

namespace desyn::mutants {

inline bool is_delay(const nl::Netlist& nl, nl::CellId c) {
  return c.valid() && nl.cell(c).kind == cell::Kind::Delay;
}

/// A (delay, delay) chain pair: `second` is fed by `first`. Splicing
/// `first` out (`second` reads `first`'s input) shaves one DELAY cell.
inline bool find_delay_pair(const nl::Netlist& nl, nl::CellId* second,
                            nl::CellId* first) {
  for (nl::CellId c : nl.cells()) {
    if (!is_delay(nl, c)) continue;
    nl::CellId up = nl.net(nl.cell(c).ins[0]).driver;
    if (is_delay(nl, up)) {
      *second = c;
      *first = up;
      return true;
    }
  }
  return false;
}

/// Bypasses the longest matched-delay line: its consumers read the line's
/// input directly. Returns false when `nl` has no DELAY cell.
inline bool bypass_longest_line(nl::Netlist& nl) {
  nl::CellId best_last, best_first;
  int best_len = 0;
  for (nl::CellId c : nl.cells()) {
    if (!is_delay(nl, c)) continue;
    bool feeds_delay = false;
    for (const nl::Pin& p : nl.net(nl.cell(c).outs[0]).fanout) {
      feeds_delay |= is_delay(nl, p.cell);
    }
    if (feeds_delay) continue;  // not the end of a line
    nl::CellId first = c;
    int len = 1;
    while (is_delay(nl, nl.net(nl.cell(first).ins[0]).driver)) {
      first = nl.net(nl.cell(first).ins[0]).driver;
      ++len;
    }
    if (len > best_len) {
      best_len = len;
      best_last = c;
      best_first = first;
    }
  }
  if (best_len == 0) return false;
  const nl::NetId in = nl.cell(best_first).ins[0];
  const std::vector<nl::Pin> sinks =
      nl.net(nl.cell(best_last).outs[0]).fanout;
  for (const nl::Pin& p : sinks) nl.rewire_input(p.cell, p.index, in);
  return true;
}

}  // namespace desyn::mutants

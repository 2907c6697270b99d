#include "core/clocktree.h"

namespace desyn::flow {

TreeInsertion tree_insertion(size_t sinks, const cell::Tech& tech,
                             int max_fanout) {
  DESYN_ASSERT(max_fanout >= 2);
  TreeInsertion ins;
  const size_t fanout = static_cast<size_t>(max_fanout);
  for (; sinks > fanout; sinks = (sinks + fanout - 1) / fanout) ++ins.levels;
  if (ins.levels == 0) return ins;
  ins.delay = tech.delay(cell::Kind::Buf, 1, max_fanout) * ins.levels;
  const Ps unit = tech.delay_unit();
  DESYN_ASSERT(unit > 0);
  ins.units = static_cast<int>((ins.delay + unit - 1) / unit);
  return ins;
}

ClockTree build_clock_tree(nl::Netlist& nl, nl::NetId clock,
                           const cell::Tech& tech, int max_fanout) {
  DESYN_ASSERT(max_fanout >= 2);
  ClockTree tree;
  // Current sink pins (copied: rewiring mutates the fanout list).
  std::vector<nl::Pin> sinks = nl.net(clock).fanout;
  if (sinks.empty()) return tree;

  // Build bottom-up: chunk sinks under leaf buffers, then chunk buffer
  // inputs under the next level, until one level fits under the root. Each
  // round creates buffers whose input pins become the next consumers.
  std::vector<nl::Pin> consumers = sinks;
  while (static_cast<int>(consumers.size()) > max_fanout) {
    std::vector<nl::Pin> next;
    for (size_t i = 0; i < consumers.size(); i += max_fanout) {
      size_t n = std::min<size_t>(max_fanout, consumers.size() - i);
      nl::NetId out = nl.add_net(cat("clktree.l", tree.levels, "_", i / max_fanout));
      nl::CellId buf = nl.add_cell(cell::Kind::Buf,
                                   cat("clkbuf.l", tree.levels, "_", i / max_fanout),
                                   {clock}, {out});
      // Temporarily driven by `clock`; re-pointed when the upper level forms.
      for (size_t k = 0; k < n; ++k) {
        nl.rewire_input(consumers[i + k].cell, consumers[i + k].index, out);
      }
      tree.buffers.push_back(buf);
      tree.nets.push_back(out);
      next.push_back(nl::Pin{buf, 0});
    }
    consumers = std::move(next);
    ++tree.levels;
  }
  // Remaining consumers hang directly off the clock input.
  tree.nets.push_back(clock);
  // Insertion delay: every sink sits under `levels` buffers.
  const TreeInsertion ins = tree_insertion(sinks.size(), tech, max_fanout);
  DESYN_ASSERT(ins.levels == tree.levels);
  tree.insertion_delay = ins.delay;
  return tree;
}

}  // namespace desyn::flow

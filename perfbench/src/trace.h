// Spans recorded by the benchmark around its calls into each layer's public
// functions. Off (the untraced run) a Span costs one relaxed load; on, each
// span is kept in memory with its parent and request id and written out
// when the run ends, as Chrome trace-event JSON and a self-time table.
//
// A span's name is the per-layer metric it feeds without the "_ms" suffix
// ("netlist.read", "sim.flow_eq", ...), so the metric is the summed span
// time of that name.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>

#include "common.h"

namespace perfbench::trace {

void enable(bool on);

class Span {
 public:
  /// `req` groups the spans of one request or op (0 = none); a nested span
  /// inherits its parent's when given 0.
  explicit Span(const char* name, uint64_t req = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int64_t id_ = -1;  ///< index into the recorder, -1 when tracing is off
};

/// Summed duration in ms of every span named `name`.
double total_ms(const std::string& name);
/// Per-name (count, total ms, self ms): self excludes child-span time.
struct SelfTime {
  size_t count = 0;
  double total_ms = 0;
  double self_ms = 0;
};
std::map<std::string, SelfTime> self_times();

/// Write `<stem>.trace.json` (Chrome trace events, viewable in Perfetto)
/// and `<stem>.selftime.txt`.
void write(const std::string& stem);

}  // namespace perfbench::trace

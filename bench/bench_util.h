// Shared helpers of the standalone bench binaries: wall-clock timing and
// the desyn-bench-v1 JSON report every --json flag writes.
#pragma once

#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "base/common.h"

namespace desyn::bench {

/// Mean wall-clock milliseconds of `reps` back-to-back calls of `f`.
template <typename F>
double time_ms(F&& f, int reps = 1) {
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < reps; ++i) f();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
             .count() /
         reps;
}

/// printf into a std::string (renders report fields and case objects).
[[gnu::format(printf, 1, 2)]] inline std::string fmt(const char* f, ...) {
  va_list ap, ap2;
  va_start(ap, f);
  va_copy(ap2, ap);
  std::string out(static_cast<size_t>(std::vsnprintf(nullptr, 0, f, ap)),
                  '\0');
  va_end(ap);
  std::vsnprintf(out.data(), out.size() + 1, f, ap2);
  va_end(ap2);
  return out;
}

/// Write a desyn-bench-v1 report to `path`:
///
///   {
///     "schema": "desyn-bench-v1",
///     "bench": "<bench>",
///     <header>,            (only when `header` is non-empty)
///     "cases": [
///       <case>,
///       ...
///     ]
///   }
///
/// `header` and every element of `cases` arrive rendered; a case object
/// may span lines.
inline void write_report(const std::string& path, const std::string& bench,
                         const std::vector<std::string>& cases,
                         const std::string& header = {}) {
  std::ofstream out(path);
  if (!out) fail("cannot write ", path);
  out << "{\n  \"schema\": \"desyn-bench-v1\",\n"
      << "  \"bench\": \"" << bench << "\",\n";
  if (!header.empty()) out << "  " << header << ",\n";
  out << "  \"cases\": [\n";
  for (size_t i = 0; i < cases.size(); ++i) {
    out << "    " << cases[i] << (i + 1 < cases.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace desyn::bench

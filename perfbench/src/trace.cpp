#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <thread>
#include <vector>

namespace perfbench::trace {
namespace {

struct Record {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int64_t parent;
  uint64_t req;
  uint32_t tid;
};

std::atomic<bool> g_on{false};
std::mutex g_mu;  ///< guards g_records and g_tids
std::vector<Record> g_records;
std::vector<std::thread::id> g_tids;
const Clock::time_point g_epoch = Clock::now();

thread_local int64_t t_current = -1;
thread_local uint64_t t_req = 0;

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              g_epoch)
      .count();
}

uint32_t tid_locked() {
  auto self = std::this_thread::get_id();
  auto it = std::find(g_tids.begin(), g_tids.end(), self);
  if (it != g_tids.end()) return static_cast<uint32_t>(it - g_tids.begin());
  g_tids.push_back(self);
  return static_cast<uint32_t>(g_tids.size() - 1);
}

}  // namespace

void enable(bool on) { g_on.store(on, std::memory_order_relaxed); }

Span::Span(const char* name, uint64_t req) {
  if (!g_on.load(std::memory_order_relaxed)) return;
  if (req == 0) req = t_req;
  std::lock_guard<std::mutex> lock(g_mu);
  id_ = static_cast<int64_t>(g_records.size());
  g_records.push_back({name, now_ns(), -1, t_current, req, tid_locked()});
  t_current = id_;
  t_req = req;
}

Span::~Span() {
  if (id_ < 0) return;
  int64_t end = now_ns();
  std::lock_guard<std::mutex> lock(g_mu);
  Record& r = g_records[static_cast<size_t>(id_)];
  r.end_ns = end;
  t_current = r.parent;
  t_req = r.parent >= 0 ? g_records[static_cast<size_t>(r.parent)].req : 0;
}

double total_ms(const std::string& name) {
  std::lock_guard<std::mutex> lock(g_mu);
  int64_t ns = 0;
  for (const Record& r : g_records) {
    if (name == r.name && r.end_ns >= 0) ns += r.end_ns - r.start_ns;
  }
  return 1e-6 * static_cast<double>(ns);
}

std::map<std::string, SelfTime> self_times() {
  std::lock_guard<std::mutex> lock(g_mu);
  std::vector<int64_t> child_ns(g_records.size(), 0);
  for (const Record& r : g_records) {
    if (r.parent >= 0 && r.end_ns >= 0) {
      child_ns[static_cast<size_t>(r.parent)] += r.end_ns - r.start_ns;
    }
  }
  std::map<std::string, SelfTime> out;
  for (size_t i = 0; i < g_records.size(); ++i) {
    const Record& r = g_records[i];
    if (r.end_ns < 0) continue;
    SelfTime& s = out[r.name];
    ++s.count;
    s.total_ms += 1e-6 * static_cast<double>(r.end_ns - r.start_ns);
    s.self_ms += 1e-6 * static_cast<double>(r.end_ns - r.start_ns - child_ns[i]);
  }
  return out;
}

void write(const std::string& stem) {
  {
    std::lock_guard<std::mutex> lock(g_mu);
    std::ofstream out(stem + ".trace.json");
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    char buf[256];
    const char* sep = "";
    for (size_t i = 0; i < g_records.size(); ++i) {
      const Record& r = g_records[i];
      if (r.end_ns < 0) continue;
      std::snprintf(buf, sizeof buf,
                    "%s{\"name\": \"%s\", \"cat\": \"%.*s\", \"ph\": \"X\", "
                    "\"pid\": 1, \"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                    "\"args\": {\"id\": %zu, \"parent\": %lld, \"req\": %llu}}",
                    sep, r.name,
                    static_cast<int>(std::string(r.name).find('.')), r.name,
                    r.tid, 1e-3 * static_cast<double>(r.start_ns),
                    1e-3 * static_cast<double>(r.end_ns - r.start_ns), i,
                    static_cast<long long>(r.parent),
                    static_cast<unsigned long long>(r.req));
      out << buf;
      sep = ",\n";
    }
    out << "\n]}\n";
  }
  std::ofstream table(stem + ".selftime.txt");
  std::vector<std::pair<std::string, SelfTime>> rows;
  for (const auto& kv : self_times()) rows.push_back(kv);
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.self_ms > b.second.self_ms;
  });
  char buf[160];
  std::snprintf(buf, sizeof buf, "%-28s %8s %12s %12s\n", "span", "count",
                "total_ms", "self_ms");
  table << buf;
  for (const auto& [name, s] : rows) {
    std::snprintf(buf, sizeof buf, "%-28s %8zu %12.3f %12.3f\n", name.c_str(),
                  s.count, s.total_ms, s.self_ms);
    table << buf;
  }
}

}  // namespace perfbench::trace

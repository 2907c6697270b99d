#include "base/fault.h"

#include <csignal>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <map>
#include <mutex>

namespace desyn::fault {

namespace {

// The compiled-in site catalog. One entry per probe in the tree; a probe
// whose name is missing here can never be armed, and an armed name that
// matches nothing here is rejected, so the catalog and the probes cannot
// drift apart silently (tests sweep all_sites()).
const char* const kSites[] = {
    "artifact.disk.corrupt",       // disk entry digest-verifies but is treated corrupt
    "artifact.disk.read",          // disk entry unreadable on get()
    "artifact.disk.write.fsync",   // fsync of the tmp file fails
    "artifact.disk.write.open",    // tmp file creation fails
    "artifact.disk.write.rename",  // tmp -> final rename fails
    "artifact.disk.write.write",   // write() of the payload fails
    "engine.stage.adjacency",      // throws in the adjacency compute branch
    "engine.stage.latchify",       // throws in the latchify compute branch
    "engine.stage.mcr",            // throws in the mcr compute branch
    "engine.stage.partition",      // throws in the partition compute branch
    "engine.stage.result",         // throws before the result artifact is stored
    "engine.stage.synth",          // throws in the synth compute branch
    "partition.probe",             // throws in an optimizer candidate probe
    "svc.accept",                  // accepted connection dropped immediately
    "svc.read",                    // connection dropped before a socket read
    "svc.write",                   // connection dropped before a response write
};

struct State {
  std::mutex mu;
  Spec spec;
  std::map<std::string, SiteStats, std::less<>> counters;
};

State& state() {
  static State s;
  return s;
}

uint64_t parse_u64(std::string_view key, std::string_view v) {
  uint64_t out = 0;
  auto [p, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
  if (ec != std::errc() || p != v.data() + v.size())
    fail("fault spec: bad value '", v, "' for key '", key, "'");
  return out;
}

// splitmix64-style finalizer over (seed, site, k); uniform in [0, 1).
double site_hash01(uint64_t seed, std::string_view site, uint64_t k) {
  uint64_t z = seed ^ (0x9e3779b97f4a7c15ull * (k + 1));
  for (char c : site) z = (z ^ static_cast<uint8_t>(c)) * 0x100000001b3ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  return static_cast<double>(z >> 11) * 0x1.0p-53;
}

}  // namespace

namespace detail {
std::atomic<bool> g_armed{false};
}  // namespace detail

Spec Spec::parse(std::string_view text) {
  Spec spec;
  bool have_site = false;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t comma = text.find(',', pos);
    if (comma == std::string_view::npos) comma = text.size();
    std::string_view field = text.substr(pos, comma - pos);
    pos = comma + 1;
    if (field.empty()) continue;
    size_t eq = field.find('=');
    if (eq == std::string_view::npos)
      fail("fault spec: field '", field, "' is not key=value");
    std::string_view key = field.substr(0, eq);
    std::string_view value = field.substr(eq + 1);
    if (key == "site") {
      spec.site = std::string(value);
      have_site = true;
    } else if (key == "hit") {
      spec.hit = parse_u64(key, value);
    } else if (key == "count") {
      spec.count = parse_u64(key, value);
    } else if (key == "seed") {
      spec.seed = parse_u64(key, value);
    } else if (key == "p") {
      char* end = nullptr;
      std::string v(value);
      spec.p = std::strtod(v.c_str(), &end);
      if (end != v.c_str() + v.size() || spec.p < 0.0 || spec.p > 1.0)
        fail("fault spec: p must be a probability in [0,1], got '", value, "'");
    } else if (key == "action") {
      if (value == "fail")
        spec.action = Action::Fail;
      else if (value == "kill")
        spec.action = Action::Kill;
      else
        fail("fault spec: action must be fail or kill, got '", value, "'");
    } else {
      fail("fault spec: unknown key '", key, "'");
    }
  }
  if (!have_site || spec.site.empty()) fail("fault spec: missing site=<name>");
  return spec;
}

std::string Spec::to_string() const {
  std::string out = cat("site=", site);
  if (p >= 0.0) {
    out += cat(",p=", p, ",seed=", seed);
  } else {
    if (hit != 0) out += cat(",hit=", hit);
    if (count != 1) out += cat(",count=", count);
  }
  if (action == Action::Kill) out += ",action=kill";
  return out;
}

bool Spec::matches(std::string_view site_name) const {
  if (!site.empty() && site.back() == '*')
    return starts_with(site_name, std::string_view(site).substr(0, site.size() - 1));
  return site_name == site;
}

bool Spec::fires(std::string_view site_name, uint64_t k) const {
  if (!matches(site_name)) return false;
  if (p >= 0.0) return site_hash01(seed, site_name, k) < p;
  return k >= hit && (count == 0 || k - hit < count);
}

void arm(const Spec& spec) {
  const auto& sites = all_sites();
  bool any = std::any_of(sites.begin(), sites.end(),
                         [&](const std::string& s) { return spec.matches(s); });
  if (!any) fail("fault spec: site '", spec.site, "' matches no registered site");
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.spec = spec;
  s.counters.clear();
  detail::g_armed.store(true, std::memory_order_release);
}

void disarm() {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  detail::g_armed.store(false, std::memory_order_release);
  s.counters.clear();
}

bool armed() { return detail::g_armed.load(std::memory_order_acquire); }

SiteStats stats(std::string_view site_name) {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  auto it = s.counters.find(site_name);
  return it == s.counters.end() ? SiteStats{} : it->second;
}

const std::vector<std::string>& all_sites() {
  static const std::vector<std::string> sites(std::begin(kSites),
                                              std::end(kSites));
  return sites;
}

namespace detail {

bool should_fail_slow(const char* site) {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  // Re-check under the lock: a concurrent disarm() must win.
  if (!g_armed.load(std::memory_order_acquire)) return false;
  SiteStats& c = s.counters[site];
  const uint64_t k = c.hits++;
  if (!s.spec.fires(site, k)) return false;
  c.fired++;
  if (s.spec.action == Spec::Action::Kill) {
    // A real crash, not an exception: nothing unwinds, nothing flushes.
    ::kill(::getpid(), SIGKILL);
  }
  return true;
}

}  // namespace detail

}  // namespace desyn::fault

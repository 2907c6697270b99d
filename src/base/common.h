// Shared utilities: error handling, asserts, string formatting, ids, RNG.
//
// Conventions (see DESIGN.md §7): exceptions signal construction/parse/user
// errors; DESYN_ASSERT guards internal invariants and is active in all build
// types (EDA data-structure corruption must never propagate silently).
#pragma once

#include <charconv>
#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace desyn {

/// Library-level error. Thrown for user-visible failures (bad input files,
/// malformed netlists handed to the flow, impossible requests).
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {
/// Integers `cat` renders with std::to_chars: exactly the types an ostream
/// prints as a plain decimal number (bool and the char types are excluded:
/// the stream prints those as "1"/"0" and as characters).
template <typename T>
inline constexpr bool kCatInteger =
    std::is_same_v<T, short> || std::is_same_v<T, unsigned short> ||
    std::is_same_v<T, int> || std::is_same_v<T, unsigned> ||
    std::is_same_v<T, long> || std::is_same_v<T, unsigned long> ||
    std::is_same_v<T, long long> || std::is_same_v<T, unsigned long long>;

/// Character data `cat` appends verbatim (char arrays decay to char*).
template <typename T>
inline constexpr bool kCatText =
    std::is_same_v<std::decay_t<T>, std::string> ||
    std::is_same_v<std::decay_t<T>, std::string_view> ||
    std::is_same_v<std::decay_t<T>, const char*> ||
    std::is_same_v<std::decay_t<T>, char*>;

template <typename T>
inline constexpr bool kCatFast =
    std::is_same_v<T, char> || kCatInteger<T> || kCatText<T>;

template <typename T>
void cat_append(std::string& out, const T& v) {
  if constexpr (std::is_same_v<T, char>) {
    out.push_back(v);
  } else if constexpr (kCatInteger<T>) {
    char buf[24];
    out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
  } else if constexpr (std::is_pointer_v<T>) {
    if (v != nullptr) out.append(v);
  } else {
    out.append(std::string_view(v));
  }
}
}  // namespace detail

/// Concatenate arbitrary streamable values into a std::string.
/// (gcc 12 has no std::format; this is the project-wide substitute.)
/// When every argument is text, a char or a non-bool, non-char integer the
/// pieces are appended directly (integers through std::to_chars, which
/// prints what a default-formatted ostream prints); any other argument
/// (double, bool, enum, Id, manipulator, ...) sends the whole call through
/// one std::ostringstream, so the rendered bytes never depend on the path.
template <typename... Args>
std::string cat(const Args&... args) {
  if constexpr ((detail::kCatFast<Args> && ...)) {
    std::string out;
    (detail::cat_append(out, args), ...);
    return out;
  } else {
    std::ostringstream os;
    (os << ... << args);
    return os.str();
  }
}

[[noreturn]] void assert_fail(const char* expr, const char* file, int line,
                              const std::string& msg);

#define DESYN_ASSERT(expr, ...)                                        \
  do {                                                                 \
    if (!(expr)) {                                                     \
      ::desyn::assert_fail(#expr, __FILE__, __LINE__,                  \
                           ::desyn::cat("" __VA_ARGS__));              \
    }                                                                  \
  } while (0)

template <typename... Args>
[[noreturn]] void fail(const Args&... args) {
  throw Error(cat(args...));
}

/// Strongly-typed 32-bit index. Tag is an empty struct unique per id space.
template <typename Tag>
class Id {
 public:
  constexpr Id() = default;
  constexpr explicit Id(uint32_t v) : v_(v) {}
  constexpr bool valid() const { return v_ != kInvalid; }
  constexpr uint32_t value() const { return v_; }
  constexpr friend bool operator==(Id a, Id b) { return a.v_ == b.v_; }
  constexpr friend bool operator!=(Id a, Id b) { return a.v_ != b.v_; }
  constexpr friend bool operator<(Id a, Id b) { return a.v_ < b.v_; }
  static constexpr Id invalid() { return Id(); }

 private:
  static constexpr uint32_t kInvalid = std::numeric_limits<uint32_t>::max();
  uint32_t v_ = kInvalid;
};

template <typename Tag>
std::ostream& operator<<(std::ostream& os, Id<Tag> id) {
  if (!id.valid()) return os << "<invalid>";
  return os << id.value();
}

/// Time in picoseconds. All delays/periods in the library use this unit.
using Ps = int64_t;
/// Capacitance in femtofarads.
using Ff = double;
/// Area in square micrometers.
using Um2 = double;

/// splitmix64-based deterministic RNG: reproducible across platforms, good
/// enough for workload generation and property tests.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull) : state_(seed) {}

  uint64_t next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n). n must be > 0.
  uint64_t below(uint64_t n) {
    DESYN_ASSERT(n > 0);
    return next() % n;
  }
  /// Uniform in [lo, hi] inclusive.
  int64_t range(int64_t lo, int64_t hi) {
    DESYN_ASSERT(lo <= hi);
    return lo + static_cast<int64_t>(below(static_cast<uint64_t>(hi - lo + 1)));
  }
  bool flip(double p = 0.5) {
    return static_cast<double>(next() >> 11) * 0x1.0p-53 < p;
  }

 private:
  uint64_t state_;
};

/// True if `s` starts with `prefix` (string_view convenience).
inline bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

/// Split `s` on whitespace into tokens.
std::vector<std::string> split_ws(std::string_view s);

}  // namespace desyn

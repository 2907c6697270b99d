#include "base/common.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "base/cancel.h"
#include "base/parallel.h"
#include "base/rng.h"
#include "base/sha256.h"

namespace desyn {
namespace {

TEST(Cat, ConcatenatesValues) {
  EXPECT_EQ(cat("a", 1, "b", 2.5), "a1b2.5");
  EXPECT_EQ(cat(), "");
}

template <typename... Args>
std::string streamed(const Args&... args) {
  std::ostringstream os;
  (os << ... << args);
  return os.str();
}

enum class Shade { Light, Dark };
std::ostream& operator<<(std::ostream& os, Shade s) {
  return os << (s == Shade::Light ? "light" : "dark");
}

TEST(Cat, FastPathMatchesOstream) {
  const int i = -42;
  const int64_t neg = std::numeric_limits<int64_t>::min();
  const uint64_t big = std::numeric_limits<uint64_t>::max();
  const size_t sz = 1536;
  const uint16_t u16 = 65535;
  const char ch = 'q';
  const char* ptr = "ptr";
  char arr[8] = "arr";
  const std::string str = "str";
  const std::string_view sv = "view";
  EXPECT_EQ(cat(i), streamed(i));
  EXPECT_EQ(cat(neg), streamed(neg));
  EXPECT_EQ(cat(big), streamed(big));
  EXPECT_EQ(cat(sz), streamed(sz));
  EXPECT_EQ(cat(u16), streamed(u16));
  EXPECT_EQ(cat(ch), streamed(ch));
  EXPECT_EQ(cat(ptr), streamed(ptr));
  EXPECT_EQ(cat(arr), streamed(arr));
  EXPECT_EQ(cat("lit"), streamed("lit"));
  EXPECT_EQ(cat(str), streamed(str));
  EXPECT_EQ(cat(sv), streamed(sv));
  EXPECT_EQ(cat("ctl.", str, ".d", 0, "_", sz, ch, neg, sv, u16, ptr),
            streamed("ctl.", str, ".d", 0, "_", sz, ch, neg, sv, u16, ptr));
  EXPECT_EQ(cat(0, -1, 7u, 8l, 9ll, 10ul, 11ull, short{-12}),
            "0-17891011-12");
}

TEST(Cat, StreamPathTypesRenderAsOstream) {
  // bool, the char-sized integers, floating point and user types keep the
  // ostream rendering: "1", characters, the default 6-digit %g and the
  // type's own operator<<, also when mixed with fast-path arguments.
  const uint8_t u8 = 65;
  const int8_t i8 = 66;
  EXPECT_EQ(cat(true, false), streamed(true, false));
  EXPECT_EQ(cat(true), "1");
  EXPECT_EQ(cat(u8, i8), streamed(u8, i8));
  EXPECT_EQ(cat(u8, i8), "AB");
  EXPECT_EQ(cat(2.5, 1.0 / 3, 1e21), streamed(2.5, 1.0 / 3, 1e21));
  EXPECT_EQ(cat(Shade::Dark, "/", Shade::Light), "dark/light");
  EXPECT_EQ(cat("p", 3, Shade::Light, 0.1, true),
            streamed("p", 3, Shade::Light, 0.1, true));
}

TEST(Ids, DefaultInvalid) {
  struct Tag {};
  Id<Tag> id;
  EXPECT_FALSE(id.valid());
  Id<Tag> a(3), b(3), c(4);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_LT(a, c);
  EXPECT_TRUE(a.valid());
}

TEST(Fail, ThrowsError) {
  EXPECT_THROW(fail("boom ", 42), Error);
  try {
    fail("boom ", 42);
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "boom 42");
  }
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, BelowStaysInRange) {
  Rng r(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = r.below(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // all buckets hit over 1000 draws
}

TEST(Rng, RangeInclusive) {
  Rng r(9);
  bool lo_seen = false, hi_seen = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = r.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    lo_seen |= v == -3;
    hi_seen |= v == 3;
  }
  EXPECT_TRUE(lo_seen);
  EXPECT_TRUE(hi_seen);
}

TEST(Rng, FlipProbabilityRoughlyRespected) {
  Rng r(11);
  int heads = 0;
  for (int i = 0; i < 10000; ++i) heads += r.flip(0.25);
  EXPECT_GT(heads, 2000);
  EXPECT_LT(heads, 3000);
}

TEST(CounterRng, DrawsArePureFunctionsOfTheirCoordinates) {
  // Any evaluation order — forward, backward, interleaved across streams —
  // yields the same draw for the same (seed, stream, counter) triple.
  for (uint64_t c = 0; c < 50; ++c) {
    EXPECT_EQ(rng_draw(1, 2, c), rng_draw(1, 2, c));
  }
  std::vector<uint64_t> forward, backward;
  for (uint64_t c = 0; c < 50; ++c) forward.push_back(rng_draw(9, 4, c));
  for (uint64_t c = 50; c-- > 0;) backward.push_back(rng_draw(9, 4, c));
  std::reverse(backward.begin(), backward.end());
  EXPECT_EQ(forward, backward);
}

TEST(CounterRng, FacadeMatchesRawDraws) {
  CounterRng r(77, 5);
  for (uint64_t c = 0; c < 100; ++c) {
    EXPECT_EQ(r.next(), rng_draw(77, 5, c));
  }
}

TEST(CounterRng, StreamsAndSeedsDecorrelate) {
  // Distinct (seed, stream, counter) coordinates should essentially never
  // collide in 64 bits across a few thousand draws.
  std::set<uint64_t> seen;
  size_t n = 0;
  for (uint64_t seed : {1ull, 2ull, 0xdeadbeefull}) {
    for (uint64_t stream = 0; stream < 8; ++stream) {
      for (uint64_t c = 0; c < 64; ++c) {
        seen.insert(rng_draw(seed, stream, c));
        ++n;
      }
    }
  }
  EXPECT_EQ(seen.size(), n);
}

TEST(CounterRng, UnitIsInHalfOpenIntervalAndUniformish) {
  double sum = 0;
  for (uint64_t c = 0; c < 10000; ++c) {
    double u = rng_unit(3, 1, c);
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(SplitWs, SplitsAndSkipsRuns) {
  auto t = split_ws("  a bb\t c\n");
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[0], "a");
  EXPECT_EQ(t[1], "bb");
  EXPECT_EQ(t[2], "c");
  EXPECT_TRUE(split_ws("").empty());
  EXPECT_TRUE(split_ws("   ").empty());
}

TEST(StartsWith, Basics) {
  EXPECT_TRUE(starts_with("foobar", "foo"));
  EXPECT_FALSE(starts_with("fo", "foo"));
  EXPECT_TRUE(starts_with("x", ""));
}

// ---------------------------------------------------------------------------
// SHA-256 — pinned against the FIPS 180-4 test vectors. The implementation
// dispatches to a hardware (SHA-NI) compressor when the CPU has one, so
// these vectors guard both code paths on whatever machine runs them.
// ---------------------------------------------------------------------------

TEST(Sha256, Fips180Vectors) {
  EXPECT_EQ(
      sha256("").hex(),
      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(
      sha256("abc").hex(),
      "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  // Two-block message (56 bytes: the padding spills into a second block).
  EXPECT_EQ(
      sha256("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").hex(),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  // The classic long-message vector; exercises the multi-block bulk path
  // (and the hardware compressor's block loop when present).
  Sha256 h;
  std::string a(1000000, 'a');
  h.update(a);
  EXPECT_EQ(
      h.digest().hex(),
      "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, ChunkedFeedingMatchesOneShot) {
  // Any split of the input across update() calls produces the same digest:
  // buffered partial blocks and the bulk fast path must agree.
  std::string data(10000, '\0');
  Rng rng(99);
  for (char& c : data) c = static_cast<char>(rng.below(256));
  const Hash256 want = sha256(data);
  for (size_t chunk : {1u, 7u, 63u, 64u, 65u, 192u, 4096u}) {
    Sha256 h;
    for (size_t off = 0; off < data.size(); off += chunk) {
      h.update(data.data() + off, std::min(chunk, data.size() - off));
    }
    EXPECT_EQ(h.digest(), want) << "chunk " << chunk;
  }
}

TEST(Sha256, FieldMixersDoNotAlias) {
  // Length-prefixed fields: ("ab","c") and ("a","bc") must differ, as must
  // a field boundary vs. raw concatenation.
  Sha256 a, b, c;
  a.field("ab").field("c");
  b.field("a").field("bc");
  c.field("abc");
  Hash256 ha = a.digest(), hb = b.digest(), hc = c.digest();
  EXPECT_NE(ha, hb);
  EXPECT_NE(ha, hc);
  EXPECT_NE(hb, hc);

  Sha256 u, v;
  u.field_u64(1).field_u64(2);
  v.field_u64(2).field_u64(1);
  EXPECT_NE(u.digest(), v.digest());
}

TEST(Sha256, HexIsLowercase64Chars) {
  std::string hex = sha256("x").hex();
  EXPECT_EQ(hex.size(), 64u);
  for (char c : hex) {
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << c;
  }
}

// ---------------------------------------------------------------------------
// parallel_for: the one executor
// ---------------------------------------------------------------------------

TEST(Parallel, ResultsIdenticalAtAnyJobCount) {
  for (size_t granules : {size_t{0}, size_t{1}, size_t{7}, size_t{64}}) {
    std::vector<uint64_t> serial(granules);
    for (size_t g = 0; g < granules; ++g) serial[g] = rng_draw(5, g, 0);
    for (int jobs : {1, 2, 3, 8}) {
      std::vector<uint64_t> out(granules, 0);
      std::vector<int> calls(granules, 0);
      parallel_for(granules, jobs, [&](size_t g) {
        out[g] = rng_draw(5, g, 0);
        ++calls[g];
      });
      EXPECT_EQ(out, serial) << granules << " granules, jobs " << jobs;
      EXPECT_EQ(calls, std::vector<int>(granules, 1))
          << granules << " granules, jobs " << jobs;
    }
  }
}

/// Waits (up to 2 s) until `n` granules have bumped `started`; true when
/// they all did, i.e. the `n` granules were in flight at once.
bool all_started(std::atomic<size_t>& started, size_t n) {
  started.fetch_add(1);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (started.load() < n && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  return started.load() >= n;
}

/// Four granules at jobs 4, all in flight at once; the ones on the calling
/// thread (`on_caller`) or on the spawned workers (otherwise) throw
/// `thrown`, which must reach the caller as `E` after the join.
template <class E, class Thrown>
void expect_rethrown(const Thrown& thrown, bool on_caller) {
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<size_t> started{0};
  auto granule = [&](size_t) {
    if (all_started(started, 4) &&
        (std::this_thread::get_id() == caller) == on_caller) {
      throw thrown;
    }
  };
  EXPECT_THROW(parallel_for(4, 4, granule), E);
}

TEST(Parallel, ExceptionsReachTheCallerAfterTheJoin) {
  expect_rethrown<Error>(Error("granule failed"), false);
  expect_rethrown<std::runtime_error>(std::runtime_error("boom"), false);
  expect_rethrown<int>(42, false);
  // The caller's thread is a worker too; a throw there is parked the same
  // way while the spawned workers drain.
  expect_rethrown<Error>(Error("caller granule"), true);
}

TEST(Parallel, ThrowStopsTheHandOut) {
  // Granules 0-3 run at once, one per worker. The caller's throws; the
  // spawned workers finish theirs well after it and must then find the
  // hand-out closed, so none of granules 4-63 runs.
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<size_t> started{0};
  std::atomic<bool> thrown{false};
  std::atomic<int> later{0};
  auto granule = [&](size_t g) {
    if (g >= 4) {
      later.fetch_add(1);
      return;
    }
    EXPECT_TRUE(all_started(started, 4));
    if (std::this_thread::get_id() == caller) {
      thrown = true;
      throw Error("stop");
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!thrown && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  };
  EXPECT_THROW(parallel_for(64, 4, granule), Error);
  EXPECT_EQ(later.load(), 0);
}

TEST(Parallel, CallerCancelScopeReachesEveryWorker) {
  CancelToken t;
  t.set_deadline_after_ms(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  CancelScope scope(&t);
  // Every worker, spawned or not, sees the caller's expired token.
  std::atomic<size_t> started{0};
  std::atomic<int> expired{0};
  parallel_for(4, 4, [&](size_t) {
    EXPECT_TRUE(all_started(started, 4));
    try {
      cancel_point();
    } catch (const DeadlineError&) {
      expired.fetch_add(1);
    }
  });
  EXPECT_EQ(expired.load(), 4);
  // Uncaught, the first DeadlineError stops the hand-out and reaches the
  // caller: at most one granule per worker runs.
  std::atomic<int> ran{0};
  auto granule = [&](size_t) {
    ran.fetch_add(1);
    cancel_point();
  };
  EXPECT_THROW(parallel_for(16, 4, granule), DeadlineError);
  EXPECT_LE(ran.load(), 4);
}

/// True when all `inner` granules of every nested call were in flight at
/// once.
bool nested_granules_run_together(size_t outer, size_t inner) {
  std::vector<uint8_t> together(outer * inner, 0);
  parallel_for(outer, 4, [&](size_t o) {
    std::atomic<size_t> started{0};
    parallel_for(inner, 4, [&](size_t i) {
      together[o * inner + i] = all_started(started, inner);
    });
  });
  return std::all_of(together.begin(), together.end(),
                     [](uint8_t t) { return t != 0; });
}

TEST(Parallel, NestedCallsShareOneJobsBudget) {
  // Eight outer granules at jobs 4 take four workers, each with share 1,
  // so every nested call runs inline on the worker that made it.
  std::vector<std::thread::id> outer_id(8), inner_id(8 * 4);
  parallel_for(8, 4, [&](size_t o) {
    outer_id[o] = std::this_thread::get_id();
    parallel_for(4, 4, [&](size_t i) {
      inner_id[o * 4 + i] = std::this_thread::get_id();
    });
  });
  for (size_t o = 0; o < 8; ++o) {
    for (size_t i = 0; i < 4; ++i) {
      EXPECT_EQ(inner_id[o * 4 + i], outer_id[o]) << o << "/" << i;
    }
  }
  // Two outer granules at jobs 4: each worker's share is 2, so the two
  // nested granules of each call run on two threads at once.
  EXPECT_TRUE(nested_granules_run_together(2, 2));
  // One outer granule runs inline with the whole budget.
  EXPECT_TRUE(nested_granules_run_together(1, 4));
}

}  // namespace
}  // namespace desyn

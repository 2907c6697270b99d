// Counter-based (stateless) deterministic random draws.
//
// The sequential Rng in base/common.h walks a splitmix64 stream: draw i
// exists only after draws 0..i-1 were made, so anything that samples in
// parallel must either serialize or invent an ad-hoc per-draw seed (the
// stimulus hash in verif/testbench.cpp grew exactly that). This header is
// the shared primitive instead: rng_draw(seed, stream, counter) is a pure
// function of its arguments, so the i-th draw of any logical stream is
// identical no matter which thread computes it or in what order —
// order-independence by construction. Monte-Carlo delay sampling
// (cell/variation.h) keys every per-gate draw this way, which is what makes
// sample i byte-identical at any --jobs count.
#pragma once

#include <cstdint>

namespace desyn {

/// splitmix64 finalizer: the bijective mixing step of Rng::next(), exposed
/// for key whitening and tie-breaking hashes.
constexpr uint64_t splitmix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// The per-stream half of rng_draw: the whitened key of logical stream
/// `stream`. A caller drawing many counters of one stream prepares it once
/// and draws with rng_draw_prepared.
constexpr uint64_t rng_prepare(uint64_t stream) {
  return splitmix64(stream + 0xbf58476d1ce4e5b9ull);
}

/// The per-counter half of rng_draw, on a key from rng_prepare.
constexpr uint64_t rng_draw_prepared(uint64_t seed, uint64_t prepared,
                                     uint64_t counter) {
  return splitmix64((seed + 0x9e3779b97f4a7c15ull * (counter + 1)) ^
                    prepared);
}

/// The `counter`-th draw of logical stream `stream` under `seed`: a pure
/// function (no state), uniform over uint64_t. The golden-ratio Weyl step
/// on the counter and the pre-whitened stream keep distinct
/// (seed, stream, counter) triples from colliding under the combination.
constexpr uint64_t rng_draw(uint64_t seed, uint64_t stream,
                            uint64_t counter) {
  return rng_draw_prepared(seed, rng_prepare(stream), counter);
}

/// Uniform double in [0, 1) from a counter-based draw (53-bit mantissa,
/// the same construction as Rng::flip).
constexpr double rng_unit(uint64_t seed, uint64_t stream, uint64_t counter) {
  return static_cast<double>(rng_draw(seed, stream, counter) >> 11) *
         0x1.0p-53;
}

/// Sequential facade over counter-based draws for workload generators that
/// want Rng's call style: the only state is the draw counter, so two
/// CounterRng instances on different streams can never interact, and a
/// generator's k-th draw is reproducible from (seed, stream, k) alone.
class CounterRng {
 public:
  explicit constexpr CounterRng(uint64_t seed, uint64_t stream = 0)
      : seed_(seed), stream_(stream) {}

  constexpr uint64_t next() { return rng_draw(seed_, stream_, counter_++); }
  /// Uniform in [0, n). n must be > 0.
  constexpr uint64_t below(uint64_t n) { return next() % n; }
  constexpr bool flip(double p = 0.5) {
    return static_cast<double>(next() >> 11) * 0x1.0p-53 < p;
  }

 private:
  uint64_t seed_;
  uint64_t stream_;
  uint64_t counter_ = 0;
};

}  // namespace desyn

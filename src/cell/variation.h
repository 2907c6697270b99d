// Process-variation delay model for Monte-Carlo timing analysis.
//
// Each sampled element (a gate, a delay-line segment, a controller
// response) gets a multiplicative delay factor. Two regimes share one
// sample index space:
//   * corner samples — sample i < corners.size() applies the global factor
//     corners[i] to every element (classic PVT corners; keeping 1.0 first
//     makes sample 0 the nominal design), and
//   * statistical samples — every later sample draws an independent
//     truncated-Gaussian factor per element.
// Draws are counter-based (base/rng.h): factor(stream, sample) is a pure
// function of (seed, stream, sample), so sample i is byte-identical no
// matter how many --jobs workers compute it or in which order. A draw
// splits into a per-element step (prepare) and a per-sample step
// (factor_prepared); factor() is their composition, and factors() is the
// per-sample step over a block of consecutive samples.
#pragma once

#include <cstdint>
#include <vector>

#include "base/common.h"

namespace desyn::cell {

/// Inverse standard-normal CDF (Acklam's rational approximation,
/// |relative error| < 1.15e-9 — far below sampling noise). p in (0, 1).
double inverse_normal_cdf(double p);

/// std::llround of a non-negative double below 2^52, exactly, in double
/// arithmetic (no libm call, and a loop of them vectorizes): adding and
/// removing 2^52 rounds x to an integer, ties to even, and a tie that went
/// down is bumped up, as llround does. x minus that integer is exact, so
/// the tie test is too.
inline double round_half_up(double x) {
  const double y = (x + 0x1.0p52) - 0x1.0p52;
  return y + (x - y == 0.5 ? 1.0 : 0.0);
}

/// A sampled delay in whole ps: round_half_up of a non-negative product.
inline Ps round_delay(double x) { return static_cast<Ps>(round_half_up(x)); }

struct VariationModel {
  /// Seed of every draw (the --mc-seed of a sweep).
  uint64_t seed = 1;
  /// Relative sigma of the per-element Gaussian, truncated at +/-3 sigma
  /// (a physical delay cannot go negative, and far tails would only model
  /// manufacturing rejects).
  double sigma = 0.05;
  /// Global corner factors applied before statistical sampling starts.
  std::vector<double> corners = {1.0};

  /// Multiplicative delay factor of element `stream` in sample `sample`:
  /// factor_prepared of the element's prepared key.
  double factor(uint64_t stream, size_t sample) const {
    return factor_prepared(prepare(stream), sample);
  }

  /// The per-element half of a draw (base/rng.h rng_prepare): a caller
  /// sampling one element many times prepares its key once.
  static uint64_t prepare(uint64_t stream);
  /// The per-sample half: factor(stream, sample) for key = prepare(stream).
  double factor_prepared(uint64_t key, size_t sample) const;

  /// Most samples factors() draws at once: long enough to keep the
  /// kernel's lanes busy, short enough that a Monte-Carlo worker's chunk
  /// of every bank's draws stays small (its thread heap keeps it).
  static constexpr size_t kDrawBlock = 16;
  /// factor_prepared(key, first + i) into out[i] for every i < count
  /// (count <= kDrawBlock), bit for bit: the central branch of the inverse
  /// CDF runs branch-free over the block, and tail uniforms and corner
  /// samples take the scalar path.
  void factors(uint64_t key, size_t first, size_t count, double* out) const;

  /// Total sample count needed for `statistical` non-corner samples.
  size_t total_samples(size_t statistical) const {
    return corners.size() + statistical;
  }
};

}  // namespace desyn::cell

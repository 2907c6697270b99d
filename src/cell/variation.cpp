#include "cell/variation.h"

#include <algorithm>
#include <cmath>

#include "base/rng.h"

namespace desyn::cell {

namespace {

// Acklam's rational approximation: three regions, central one on the
// quantile directly, tails via sqrt(-2 ln p) with reflected coefficients.
constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                        -2.759285104469687e+02, 1.383577518672690e+02,
                        -3.066479806614716e+01, 2.506628277459239e+00};
constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                        -1.556989798598866e+02, 6.680131188771972e+01,
                        -1.328068155288572e+01};
constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                        -2.400758277161838e+00, -2.549732539343734e+00,
                        4.374664141464968e+00,  2.938163982698783e+00};
constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                        2.445134137142996e+00, 3.754408661907416e+00};
constexpr double kPlow = 0.02425;

bool in_tail(double p) { return p < kPlow || p > 1.0 - kPlow; }

/// The central region [kPlow, 1 - kPlow]: no branch, no libm call.
double central(double p) {
  double q = p - 0.5;
  double r = q * q;
  return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
          a[5]) *
         q /
         (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
}

/// The two tails (in_tail(p)).
double tail(double p) {
  if (p < kPlow) {
    double q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
            c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  double q = std::sqrt(-2.0 * std::log(1.0 - p));
  return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
           c[5]) /
         ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
}

/// The uniform of a draw. The midpoint offset keeps it strictly inside
/// (0, 1), so the inverse CDF is always defined; the shifted draw is below
/// 2^53, so the signed conversion is exact.
double uniform(uint64_t draw) {
  return (static_cast<double>(static_cast<int64_t>(draw >> 11)) + 0.5) *
         0x1.0p-53;
}

/// The delay factor of a standard-normal quantile: truncated at +/-3 sigma,
/// and a delay factor cannot reach zero no matter how large sigma is set.
double scale(double sigma, double z) {
  return std::max(0.01, 1.0 + sigma * std::clamp(z, -3.0, 3.0));
}

}  // namespace

double inverse_normal_cdf(double p) {
  DESYN_ASSERT(p > 0.0 && p < 1.0);
  return in_tail(p) ? tail(p) : central(p);
}

uint64_t VariationModel::prepare(uint64_t stream) {
  return rng_prepare(stream);
}

double VariationModel::factor_prepared(uint64_t key, size_t sample) const {
  if (sample < corners.size()) return corners[sample];
  const double u = uniform(rng_draw_prepared(seed, key, sample));
  return scale(sigma, in_tail(u) ? tail(u) : central(u));
}

void VariationModel::factors(uint64_t key, size_t first, size_t count,
                             double* out) const {
  DESYN_ASSERT(count <= kDrawBlock);
  size_t i = 0;
  for (; i < count && first + i < corners.size(); ++i) {
    out[i] = corners[first + i];
  }
  // Every sample through the central branch first (independent lanes, no
  // branch), then the few tail uniforms (2 * kPlow of them) again.
  double u[kDrawBlock];
  for (size_t j = i; j < count; ++j) {
    u[j] = uniform(rng_draw_prepared(seed, key, first + j));
  }
  for (size_t j = i; j < count; ++j) out[j] = scale(sigma, central(u[j]));
  for (size_t j = i; j < count; ++j) {
    if (in_tail(u[j])) out[j] = scale(sigma, tail(u[j]));
  }
}

}  // namespace desyn::cell

#include "cell/variation.h"

#include <algorithm>
#include <cmath>

#include "base/rng.h"

namespace desyn::cell {

double inverse_normal_cdf(double p) {
  DESYN_ASSERT(p > 0.0 && p < 1.0);
  // Acklam's rational approximation: three regions, central one on the
  // quantile directly, tails via sqrt(-2 ln p) with reflected coefficients.
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double plow = 0.02425;
  if (p < plow) {
    double q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
            c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p > 1.0 - plow) {
    double q = std::sqrt(-2.0 * std::log(1.0 - p));
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
             c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  double q = p - 0.5;
  double r = q * q;
  return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
          a[5]) *
         q /
         (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
}

uint64_t VariationModel::prepare(uint64_t stream) {
  return rng_prepare(stream);
}

double VariationModel::factor_prepared(uint64_t key, size_t sample) const {
  if (sample < corners.size()) return corners[sample];
  // Midpoint offset keeps the uniform strictly inside (0, 1) so the
  // inverse CDF is always defined.
  double u =
      (static_cast<double>(rng_draw_prepared(seed, key, sample) >> 11) +
       0.5) *
      0x1.0p-53;
  double z = std::clamp(inverse_normal_cdf(u), -3.0, 3.0);
  // A delay factor cannot reach zero no matter how large sigma is set.
  return std::max(0.01, 1.0 + sigma * z);
}

}  // namespace desyn::cell

#include "sta/variation.h"

#include <algorithm>

#include "base/rng.h"

namespace desyn::sta {

size_t path_stages(Ps nominal, Ps unit) {
  if (nominal <= 0) return 0;
  return unit > 0 ? static_cast<size_t>((nominal + unit - 1) / unit) : 1;
}

std::vector<uint64_t> path_stage_keys(uint64_t stream, size_t n) {
  std::vector<uint64_t> keys(n);
  for (size_t i = 0; i < n; ++i) {
    // Whiten the stage index into the element stream so stage draws are
    // independent of each other and of other paths.
    keys[i] = cell::VariationModel::prepare(
        splitmix64(stream + 0x9e3779b97f4a7c15ull * (i + 1)));
  }
  return keys;
}

Ps sample_path_delay(Ps nominal, Ps unit, const cell::VariationModel& model,
                     std::span<const uint64_t> stage_keys, size_t sample) {
  const size_t stages = path_stages(nominal, unit);
  if (stages == 0) return nominal;
  DESYN_ASSERT(stage_keys.size() >= stages);
  const double per_stage =
      static_cast<double>(nominal) / static_cast<double>(stages);
  double acc = 0.0;
  for (size_t i = 0; i < stages; ++i) {
    acc += per_stage * model.factor_prepared(stage_keys[i], sample);
  }
  return cell::round_delay(acc);
}

void sample_path_delays(Ps nominal, Ps unit,
                        const cell::VariationModel& model,
                        std::span<const uint64_t> stage_keys, size_t first,
                        size_t count, Ps* out) {
  const size_t stages = path_stages(nominal, unit);
  if (stages == 0) {
    std::fill(out, out + count, nominal);
    return;
  }
  DESYN_ASSERT(stage_keys.size() >= stages &&
               count <= cell::VariationModel::kDrawBlock);
  const double per_stage =
      static_cast<double>(nominal) / static_cast<double>(stages);
  double acc[cell::VariationModel::kDrawBlock] = {};
  double f[cell::VariationModel::kDrawBlock];
  for (size_t i = 0; i < stages; ++i) {
    model.factors(stage_keys[i], first, count, f);
    for (size_t j = 0; j < count; ++j) acc[j] += per_stage * f[j];
  }
  for (size_t j = 0; j < count; ++j) out[j] = cell::round_delay(acc[j]);
}

Ps sample_path_delay(Ps nominal, Ps unit, const cell::VariationModel& model,
                     uint64_t stream, size_t sample) {
  return sample_path_delay(nominal, unit, model,
                           path_stage_keys(stream, path_stages(nominal, unit)),
                           sample);
}

}  // namespace desyn::sta

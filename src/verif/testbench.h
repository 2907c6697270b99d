// Stimulus generation shared by the verification harness and the benches.
#pragma once

#include <functional>

#include "base/common.h"
#include "cell/cells.h"

namespace desyn::verif {

/// Value of primary input `input_index` during round `round`.
using Stimulus = std::function<cell::V(int round, size_t input_index)>;

/// Deterministic pseudo-random vectors.
Stimulus random_stimulus(uint64_t seed);
/// All inputs constant.
Stimulus constant_stimulus(cell::V v);

}  // namespace desyn::verif

#include "verif/testbench.h"

#include "base/rng.h"

namespace desyn::verif {

Stimulus random_stimulus(uint64_t seed) {
  return [seed](int round, size_t input_index) {
    // Counter-based draw (base/rng.h): a pure function of (seed, round,
    // input), so the stimulus is identical across both simulations
    // regardless of query order — and rounds never collide with inputs.
    uint64_t stream =
        (static_cast<uint64_t>(round) << 32) ^ static_cast<uint64_t>(input_index);
    return rng_unit(seed, stream, 0) < 0.5 ? cell::V::V1 : cell::V::V0;
  };
}

Stimulus constant_stimulus(cell::V v) {
  return [v](int, size_t) { return v; };
}

}  // namespace desyn::verif

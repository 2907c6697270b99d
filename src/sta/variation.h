// Sampled path delays on top of cell::VariationModel.
//
// STA reports one worst-case number per combinational path; a Monte-Carlo
// sweep needs a *realization* of that path per sample. A path of nominal
// delay D through a library with delay quantum `unit` is modeled as
// ceil(D / unit) equal gate stages with independent per-stage factors:
// long paths then show the 1/sqrt(depth) relative-variance cancellation
// real logic cones have, where a single path-level draw would overstate
// their variation by exactly that factor.
#pragma once

#include <span>
#include <vector>

#include "cell/variation.h"

namespace desyn::sta {

/// Stage count of a path with nominal delay `nominal`: ceil(nominal /
/// unit) (1 when unit <= 0), 0 when nominal <= 0.
size_t path_stages(Ps nominal, Ps unit);

/// Prepared keys (cell::VariationModel::prepare) of the first `n` stages
/// of path `stream`. Stage i's key does not depend on the path's length,
/// so a longer list serves every shorter path of the same stream.
std::vector<uint64_t> path_stage_keys(uint64_t stream, size_t n);

/// Sampled realization of a path with nominal worst-case delay `nominal`
/// from its prepared stage keys (at least path_stages(nominal, unit) of
/// them). Nominal delays <= 0 pass through unchanged.
Ps sample_path_delay(Ps nominal, Ps unit, const cell::VariationModel& model,
                     std::span<const uint64_t> stage_keys, size_t sample);

/// sample_path_delay for the samples [first, first + count) into out[0 ..
/// count), count <= cell::VariationModel::kDrawBlock: stage-major over the
/// block, each sample summing its stages in the same order.
void sample_path_delays(Ps nominal, Ps unit,
                        const cell::VariationModel& model,
                        std::span<const uint64_t> stage_keys, size_t first,
                        size_t count, Ps* out);

/// The same realization keyed by the path's stream: deterministic in
/// (model.seed, stream, sample).
Ps sample_path_delay(Ps nominal, Ps unit, const cell::VariationModel& model,
                     uint64_t stream, size_t sample);

}  // namespace desyn::sta

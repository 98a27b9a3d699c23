// Condense Unit (paper Fig. 7(b)) — functional model.
//
// The hardware unit filters zero elements out of a delta vector with a
// multi-level mask: the Mask Generation Unit marks non-zero lanes, the
// Address Register keeps their positions so results realign, and the
// Dense Buffer holds the packed non-zero values that feed the DGNN
// Computation Unit. The engines consume the thresholded delta in dense
// form (dropped lanes are zero, so they contribute exact-zero products)
// and are charged for the kept lanes only, which is what the packed
// form would cost.
#pragma once

#include <cstddef>
#include <span>

namespace tagnn {

/// Builds the thresholded delta `cur - applied` into `out`: a lane is
/// kept when |d| > threshold, and dropped lanes, NaN deltas included,
/// become +0.0f. Folds each kept component into `applied` (the engines'
/// applied-state bookkeeping) and returns the kept-lane count. Runs as
/// the kernel registry's "vec" delta_n, so every ISA gives the same
/// bits.
std::size_t dense_delta(std::span<const float> cur, std::span<float> applied,
                        float threshold, std::span<float> out);

}  // namespace tagnn

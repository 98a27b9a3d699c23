// Condense Unit (paper Fig. 7(b)) — functional model.
//
// The hardware unit filters zero elements out of a delta vector with a
// multi-level mask: the Mask Generation Unit marks non-zero lanes, the
// Address Register keeps their positions so results realign, and the
// Dense Buffer holds the packed non-zero values that feed the DGNN
// Computation Unit. This module provides the same pack/unpack
// behaviour, plus the thresholded-delta construction used by the
// engines, so the condensation logic is tested in isolation.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace tagnn {

struct CondensedVector {
  /// Packed non-zero values (the Dense Buffer contents).
  std::vector<float> values;
  /// Lane index of each packed value (the Address Register contents).
  std::vector<std::uint32_t> addresses;
  /// Original vector length.
  std::size_t dim = 0;

  std::size_t nnz() const { return values.size(); }
  double density() const {
    return dim > 0 ? static_cast<double>(nnz()) / static_cast<double>(dim)
                   : 0.0;
  }
};

/// Packs the non-zero lanes of `x` (|x_i| > threshold keeps the lane).
CondensedVector condense(std::span<const float> x, float threshold = 0.0f);

/// Builds and condenses the delta `cur - applied`, folding each kept
/// component into `applied` (the engines' applied-state bookkeeping).
CondensedVector condense_delta(std::span<const float> cur,
                               std::span<float> applied, float threshold);

/// Scratch-reusing variant: clears `out` (keeping its capacity) and
/// fills it in place, so hot loops condense without reallocating.
void condense_delta(std::span<const float> cur, std::span<float> applied,
                    float threshold, CondensedVector& out);

/// Dense sibling of condense_delta for the batched delta path: writes
/// the thresholded delta into `out` (dropped lanes, NaN deltas
/// included, become +0.0f), folds each kept component into `applied`,
/// and returns the kept-lane count. Same keep condition as
/// condense_delta; runs as the kernel registry's "vec" delta_n, so
/// every ISA gives the same bits.
std::size_t dense_delta(std::span<const float> cur, std::span<float> applied,
                        float threshold, std::span<float> out);

/// Scatters the packed values back into a dense vector of length dim
/// (unpacked lanes are zero).
std::vector<float> expand(const CondensedVector& c);

}  // namespace tagnn

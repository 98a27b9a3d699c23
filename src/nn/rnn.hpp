// RNN cells (LSTM and GRU) with full and delta update paths.
//
// The delta path implements the paper's "similarity computation mode":
// when a vertex's GNN output barely changed between snapshots, only the
// non-zero input delta is pushed through the input-to-hidden weights,
// reusing the cached gate pre-activations (the recurrent contribution
// is carried over — valid exactly when the final features are similar,
// which is what the similarity score guarantees).
#pragma once

#include <span>

#include "common/types.hpp"
#include "nn/op_counts.hpp"
#include "nn/weights.hpp"
#include "tensor/matrix.hpp"

namespace tagnn {

/// Empty: the batched updates keep each 4-row tile's gate products in
/// a thread-local buffer instead of n-row staging matrices. Kept so
/// callers that hold one per run need not change.
struct RnnBatchScratch {};

class RnnCell {
 public:
  explicit RnnCell(const DgnnWeights& weights);

  std::size_t hidden() const { return h_; }
  std::size_t input_dim() const { return dz_; }
  RnnKind kind() const { return kind_; }

  /// Per-vertex scratch the engine must persist between snapshots for
  /// the delta path: LSTM caches the combined gate pre-activations
  /// (4H); GRU caches the x-part and h-part separately (3H + 3H).
  std::size_t cache_dim() const;
  /// Cell state width: H for LSTM (the c vector); 0 for GRU.
  std::size_t cell_state_dim() const;

  /// Full update. Inputs: x (input_dim), h_prev (H), c_prev
  /// (cell_state_dim, may be empty for GRU). Outputs: h (H), c
  /// (cell_state_dim), cache (cache_dim).
  void full_update(std::span<const float> x, std::span<const float> h_prev,
                   std::span<const float> c_prev, std::span<float> h_out,
                   std::span<float> c_out, std::span<float> cache,
                   OpCounts& counts) const;

  /// Batched full update over the listed rows (strictly ascending), one
  /// pass over 4-row tiles: each tile's gate products (x * Wx
  /// accumulated onto the bias, h_prev * Wh), cache fold and output
  /// derivation run back to back on one thread. h/c/cache rows of
  /// `z`/`h`/`c`/`cache` are updated in place; unlisted rows are
  /// untouched. Value-identical to calling full_update per row (same
  /// ascending-k accumulation order) — the concurrent engine's hot path.
  void full_update_rows(const Matrix& z, std::span<const VertexId> rows,
                        Matrix& h, Matrix& c, Matrix& cache,
                        RnnBatchScratch& ws, OpCounts& counts) const;

  /// Delta update (DeltaRNN-style): folds the sparse input delta `dx`
  /// and the sparse recurrent delta `dh` (drift of h since the last
  /// update that refreshed the cache) into the cached pre-activations
  /// and re-derives h/c. Both vectors are dense with zeros marking
  /// unchanged components. `cache` is updated in place.
  void delta_update(std::span<const float> dx, std::span<const float> dh,
                    std::span<const float> h_prev,
                    std::span<const float> c_prev, std::span<float> h_out,
                    std::span<float> c_out, std::span<float> cache,
                    OpCounts& counts) const;

  /// Batched delta update over the listed rows (strictly ascending), one
  /// pass over 4-row tiles: the Condense Unit's thresholded deltas of z
  /// vs `z_applied` and of h vs `h_applied` (dense_delta, which folds
  /// the kept lanes into the applied rows), both gate products, the
  /// cache fold and the output derivation. Charged exactly as the
  /// per-vertex path charges its condensed lanes; matches per-row
  /// delta_update up to float reassociation (the lane sum is formed
  /// before touching the cache).
  void delta_update_rows(const Matrix& z, std::span<const VertexId> rows,
                         float delta_eps, Matrix& z_applied,
                         Matrix& h_applied, Matrix& h, Matrix& c,
                         Matrix& cache, OpCounts& counts) const;

  /// MACs of one full update (for cost models).
  double full_update_macs() const {
    return static_cast<double>((dz_ + h_) * gates_ * h_);
  }

 private:
  void full_update_tile(const Matrix& z, std::span<const VertexId> tile,
                        Matrix& h, Matrix& c, Matrix& cache) const;
  std::size_t delta_update_tile(const Matrix& z,
                                std::span<const VertexId> tile,
                                float delta_eps, Matrix& z_applied,
                                Matrix& h_applied, Matrix& h, Matrix& c,
                                Matrix& cache) const;
  void derive_outputs(std::span<const float> h_prev,
                      std::span<const float> c_prev,
                      std::span<const float> cache, std::span<float> h_out,
                      std::span<float> c_out) const;

  const DgnnWeights& w_;
  RnnKind kind_;
  std::size_t dz_;
  std::size_t h_;
  std::size_t gates_;
};

}  // namespace tagnn

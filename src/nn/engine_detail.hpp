// Internal helpers shared by the reference and concurrent engines.
#pragma once

#include <algorithm>
#include <functional>

#include "common/types.hpp"
#include "nn/op_counts.hpp"
#include "nn/rnn.hpp"
#include "tensor/matrix.hpp"

namespace tagnn::detail {

/// Per-vertex RNN state matrices persisted across snapshots.
struct RnnState {
  Matrix h;      // (n x H) final features
  Matrix c;      // (n x cell_state_dim) LSTM cell state (0 cols for GRU)
  Matrix cache;  // (n x cache_dim) gate pre-activation cache

  RnnState(VertexId n, const RnnCell& cell)
      : h(n, cell.hidden()),
        c(n, cell.cell_state_dim()),
        cache(n, cell.cache_dim()) {}
};

/// Runs `fn(v, counts)` for every vertex in parallel, merging the
/// per-chunk OpCounts into `total`.
void parallel_vertices(
    VertexId n,
    const std::function<void(VertexId, OpCounts&)>& fn, OpCounts& total);

/// Row r of `a` equals row r of `b` (element-wise ==).
inline bool rows_equal(const Matrix& a, const Matrix& b, std::size_t r) {
  const std::size_t d = a.cols();
  const float* x = a.data() + r * d;
  return std::equal(x, x + d, b.data() + r * d);
}

/// Number of rows r with rows_equal(a, b, r), counted in parallel from
/// per-chunk integer sums.
std::size_t count_equal_rows(const Matrix& a, const Matrix& b);

}  // namespace tagnn::detail

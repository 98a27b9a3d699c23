#include "tensor/spmm.hpp"

#include <algorithm>

#include "common/thread_pool.hpp"
#include "tensor/kernel_registry.hpp"

namespace tagnn {
namespace {

void check_shapes(std::span<const EdgeId> offsets, const Matrix& x,
                  const std::vector<bool>& present,
                  std::span<const VertexId> rows, const Matrix& out) {
  TAGNN_CHECK(offsets.size() == x.rows() + 1);
  TAGNN_CHECK(present.size() == x.rows());
  TAGNN_CHECK(out.rows() == x.rows() && out.cols() == x.cols());
  for (const VertexId r : rows) TAGNN_DCHECK(r < x.rows());
}

// Aggregates one row via the registry's row primitives; shared by the
// blocked and naive kernels so their floating-point behaviour cannot
// drift apart (the naive kernel pins the scalar table, which every SIMD
// variant is bit-exact with).
inline void aggregate_row(const kernels::SpmmMicroKernels& rk,
                          std::span<const EdgeId> offsets,
                          std::span<const VertexId> neighbors,
                          const std::vector<bool>& present, const Matrix& x,
                          VertexId v, float* o) {
  const std::size_t d = x.cols();
  if (!present[v]) {
    std::fill(o, o + d, 0.0f);
    return;
  }
  const float* self = x.data() + static_cast<std::size_t>(v) * d;
  std::copy(self, self + d, o);
  const EdgeId e0 = offsets[v];
  const EdgeId e1 = offsets[v + 1];
  EdgeId e = e0;
  // Two neighbour rows per pass: the partial sum stays in registers for
  // one extra add without changing the per-element accumulation order.
  for (; e + 2 <= e1; e += 2) {
    const float* ra =
        x.data() + static_cast<std::size_t>(neighbors[e]) * d;
    const float* rb =
        x.data() + static_cast<std::size_t>(neighbors[e + 1]) * d;
    rk.row_add2(ra, rb, d, o);
  }
  if (e < e1) {
    const float* ra =
        x.data() + static_cast<std::size_t>(neighbors[e]) * d;
    rk.row_add(ra, d, o);
  }
  const float inv = 1.0f / static_cast<float>(e1 - e0 + 1);
  rk.row_scale(inv, d, o);
}

}  // namespace

void spmm_mean_csr(std::span<const EdgeId> offsets,
                   std::span<const VertexId> neighbors,
                   const std::vector<bool>& present, const Matrix& x,
                   std::span<const VertexId> rows, Matrix& out) {
  const bool masked = !rows.empty();
  if (!masked && (out.rows() != x.rows() || out.cols() != x.cols())) {
    out = Matrix(x.rows(), x.cols());
  }
  check_shapes(offsets, x, present, rows, out);
  const std::size_t d = x.cols();
  const std::size_t num_rows = masked ? rows.size() : x.rows();
  const kernels::SpmmMicroKernels rk = kernels::registry().spmm();
  // Chunk granularity balances fork/join overhead against tail latency
  // on skewed degree distributions; rows stay whole per thread.
  parallel_for(0, num_rows, [&](std::size_t r0, std::size_t r1) {
    for (std::size_t i = r0; i < r1; ++i) {
      const VertexId v = masked ? rows[i] : static_cast<VertexId>(i);
      aggregate_row(rk, offsets, neighbors, present, x, v,
                    out.data() + static_cast<std::size_t>(v) * d);
    }
  }, /*serial_threshold=*/64);
}

void spmm_mean_row(std::span<const EdgeId> offsets,
                   std::span<const VertexId> neighbors,
                   const std::vector<bool>& present, const Matrix& x,
                   VertexId v, float* o) {
  TAGNN_DCHECK(v < x.rows());
  aggregate_row(kernels::registry().spmm(), offsets, neighbors, present, x,
                v, o);
}

void spmm_mean_naive(std::span<const EdgeId> offsets,
                     std::span<const VertexId> neighbors,
                     const std::vector<bool>& present, const Matrix& x,
                     std::span<const VertexId> rows, Matrix& out) {
  const bool masked = !rows.empty();
  if (!masked && (out.rows() != x.rows() || out.cols() != x.cols())) {
    out = Matrix(x.rows(), x.cols());
  }
  check_shapes(offsets, x, present, rows, out);
  const std::size_t d = x.cols();
  const std::size_t num_rows = masked ? rows.size() : x.rows();
  // The reference path always runs the scalar row primitives.
  const kernels::SpmmMicroKernels rk =
      kernels::registry().spmm(kernels::Isa::kScalar);
  for (std::size_t i = 0; i < num_rows; ++i) {
    const VertexId v = masked ? rows[i] : static_cast<VertexId>(i);
    aggregate_row(rk, offsets, neighbors, present, x, v,
                  out.data() + static_cast<std::size_t>(v) * d);
  }
}

}  // namespace tagnn

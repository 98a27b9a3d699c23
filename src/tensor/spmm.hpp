// CSR-aware sparse-dense aggregation kernels (the Â·X half of a GCN
// layer) operating on raw CSR spans, so the tensor layer stays free of
// graph-container dependencies. Callers (nn/gcn.cpp) pass
// CsrGraph::offsets()/neighbor_array() directly.
//
// Semantics match nn::aggregate_vertex exactly, in the same
// floating-point order: out.row(v) starts from x.row(v), accumulates
// neighbour rows in CSR order, then scales by 1/(deg+1); vertices not
// present in the snapshot aggregate to zero. Rows are never split
// across threads, so results are independent of the thread count.
#pragma once

#include <span>
#include <vector>

#include "common/types.hpp"
#include "tensor/matrix.hpp"

namespace tagnn {

/// Blocked, thread-pool-parallel mean aggregation. When `rows` is
/// non-empty only the listed rows of `out` are written (ascending,
/// in-range); all other rows are left untouched. `out` must already
/// have x.rows() x x.cols() shape when `rows` is non-empty; otherwise
/// it is resized.
void spmm_mean_csr(std::span<const EdgeId> offsets,
                   std::span<const VertexId> neighbors,
                   const std::vector<bool>& present, const Matrix& x,
                   std::span<const VertexId> rows, Matrix& out);

/// One row of spmm_mean_csr on the calling thread, written to `o`
/// (x.cols() floats): the fused GCN layer aggregates tile by tile
/// through it.
void spmm_mean_row(std::span<const EdgeId> offsets,
                   std::span<const VertexId> neighbors,
                   const std::vector<bool>& present, const Matrix& x,
                   VertexId v, float* o);

/// Row-at-a-time reference (the pre-blocking per-vertex path), kept for
/// the equivalence tests. (bench_regress's per-vertex baseline
/// aggregates with aggregate_vertex, not this.)
void spmm_mean_naive(std::span<const EdgeId> offsets,
                     std::span<const VertexId> neighbors,
                     const std::vector<bool>& present, const Matrix& x,
                     std::span<const VertexId> rows, Matrix& out);

}  // namespace tagnn

#include "nn/gcn.hpp"

#include <algorithm>
#include <atomic>
#include <numeric>

#include "common/check.hpp"
#include "common/thread_pool.hpp"
#include "tensor/ops.hpp"
#include "tensor/spmm.hpp"

namespace tagnn {

void aggregate_vertex(const Snapshot& snap, const Matrix& h_in, VertexId v,
                      std::span<float> out) {
  const std::size_t d = h_in.cols();
  TAGNN_CHECK(out.size() == d);
  for (auto& x : out) x = 0.0f;
  if (!snap.present[v]) return;
  const auto nbrs = snap.graph.neighbors(v);
  const auto self = h_in.row(v);
  for (std::size_t j = 0; j < d; ++j) out[j] = self[j];
  for (VertexId u : nbrs) {
    const auto r = h_in.row(u);
    for (std::size_t j = 0; j < d; ++j) out[j] += r[j];
  }
  const float inv = 1.0f / static_cast<float>(nbrs.size() + 1);
  for (auto& x : out) x *= inv;
}

// Aggregation, combination and ReLU run as one pass over 4-row tiles
// of the computed rows: a tile's aggregated rows stay in a thread-local
// buffer and go straight into the register-tile GEMM and the
// activation, so no n x d_in staging matrix is written and re-read.
// Per-row floating-point order is the per-vertex path's, so outputs are
// value-identical to it and independent of the thread count.
void gcn_layer_forward(const Snapshot& snap, const Matrix& h_in,
                       const Matrix& w, const GcnForwardOptions& opts,
                       Matrix& h_out, OpCounts& counts) {
  const VertexId n = snap.num_vertices();
  TAGNN_CHECK(h_in.rows() == n);
  TAGNN_CHECK(h_in.cols() == w.rows());
  TAGNN_CHECK(&h_in != &h_out);
  const std::size_t d_in = w.rows();
  const std::size_t d_out = w.cols();
  if (h_out.rows() != n || h_out.cols() != d_out) {
    h_out = Matrix(n, d_out);
  }

  // Computed-row list: the caller's, or every vertex built into the
  // scratch.
  GcnScratch local;
  GcnScratch& ws = opts.scratch != nullptr ? *opts.scratch : local;
  std::span<const VertexId> row_list;
  if (opts.compute_rows != nullptr) {
    row_list = *opts.compute_rows;
  } else {
    ws.rows.resize(n);
    std::iota(ws.rows.begin(), ws.rows.end(), VertexId{0});
    row_list = ws.rows;
  }

  const std::span<const EdgeId> offsets = snap.graph.offsets();
  const std::span<const VertexId> nbrs = snap.graph.neighbor_array();
  const std::size_t m = row_list.size();
  std::atomic<std::size_t> edges_touched{0};
  parallel_for(0, (m + 3) / 4, [&](std::size_t t0, std::size_t t1) {
    thread_local std::vector<float> agg;
    agg.resize(4 * d_in);
    std::size_t edges = 0;
    for (std::size_t t = t0; t < t1; ++t) {
      const std::size_t len = std::min<std::size_t>(4, m - 4 * t);
      const float* a[4];
      float* c[4];
      for (std::size_t i = 0; i < len; ++i) {
        const VertexId v = row_list[4 * t + i];
        TAGNN_DCHECK(v < n);
        edges += snap.graph.degree(v);
        float* o = agg.data() + i * d_in;
        spmm_mean_row(offsets, nbrs, snap.present, h_in, v, o);
        a[i] = o;
        c[i] = h_out.data() + static_cast<std::size_t>(v) * d_out;
      }
      ops::gemm_tile({a, len}, w, {c, len});
      if (opts.relu_output) {
        for (std::size_t i = 0; i < len; ++i) relu({c[i], d_out});
      }
    }
    edges_touched += edges;
  }, /*serial_threshold=*/16);

  const auto nc = static_cast<double>(m);
  const auto ne = static_cast<double>(edges_touched.load());
  // Every computed row gathers itself and its neighbours.
  const double rows_fetched = opts.count_feature_traffic ? ne + nc : 0.0;
  counts.adds += (ne + nc) * static_cast<double>(d_in);
  counts.macs += nc * static_cast<double>(d_in) * static_cast<double>(d_out);
  counts.activations +=
      opts.relu_output ? nc * static_cast<double>(d_out) : 0.0;
  counts.feature_bytes += rows_fetched * static_cast<double>(d_in) * 4.0;
  counts.weight_bytes +=
      static_cast<double>(d_in) * static_cast<double>(d_out) * 4.0;
  counts.structure_bytes += ne * 4.0 + nc * 8.0;
  counts.output_bytes += nc * static_cast<double>(d_out) * 4.0;
  counts.gnn_vertex_computed += m;
}

}  // namespace tagnn

#include "nn/rnn.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <vector>

#include "common/check.hpp"
#include "common/thread_pool.hpp"
#include "nn/condense.hpp"
#include "tensor/kernel_registry.hpp"
#include "tensor/ops.hpp"

namespace tagnn {
namespace {

// Tile t of a batched update's row list: rows [4t, 4t + 4), clipped.
std::span<const VertexId> row_tile(std::span<const VertexId> rows,
                                   std::size_t t) {
  return rows.subspan(4 * t, std::min<std::size_t>(4, rows.size() - 4 * t));
}

}  // namespace

RnnCell::RnnCell(const DgnnWeights& weights)
    : w_(weights),
      kind_(weights.config.rnn),
      dz_(weights.rnn_wx.rows()),
      h_(weights.config.rnn_hidden),
      gates_(weights.gates()) {
  TAGNN_CHECK(w_.rnn_wx.cols() == gates_ * h_);
  TAGNN_CHECK(w_.rnn_wh.rows() == h_ && w_.rnn_wh.cols() == gates_ * h_);
}

std::size_t RnnCell::cache_dim() const {
  return kind_ == RnnKind::kLstm ? 4 * h_ : 6 * h_;
}

std::size_t RnnCell::cell_state_dim() const {
  return kind_ == RnnKind::kLstm ? h_ : 0;
}

void RnnCell::derive_outputs(std::span<const float> h_prev,
                             std::span<const float> c_prev,
                             std::span<const float> cache,
                             std::span<float> h_out,
                             std::span<float> c_out) const {
  // Gate activations run segment-wise through the batched vec kernels
  // (a per-lane libm call here would dominate the whole engine). The
  // thread-local staging buffer makes the per-row hot paths
  // allocation-free after the first call.
  const kernels::VecKernels vk = kernels::registry().vec();
  thread_local std::vector<float> buf;
  if (kind_ == RnnKind::kLstm) {
    // cache = [i | f | g | o] pre-activations (x-part + h-part + bias).
    buf.resize(5 * h_);
    float* ia = buf.data();
    float* fa = ia + h_;
    float* ga = fa + h_;
    float* oa = ga + h_;
    float* tc = oa + h_;
    vk.sigmoid_n(cache.data(), 2 * h_, ia);  // i and f are contiguous
    vk.tanh_n(cache.data() + 2 * h_, h_, ga);
    vk.sigmoid_n(cache.data() + 3 * h_, h_, oa);
    for (std::size_t j = 0; j < h_; ++j) {
      c_out[j] = fa[j] * c_prev[j] + ia[j] * ga[j];
    }
    vk.tanh_n(c_out.data(), h_, tc);
    for (std::size_t j = 0; j < h_; ++j) h_out[j] = oa[j] * tc[j];
  } else {
    // cache = [x-part(z r n) | h-part(z r n)].
    buf.resize(3 * h_);
    float* za = buf.data();  // z and r pre-activations, then gates
    float* na = za + 2 * h_;
    const float* xp = cache.data();
    const float* hp = cache.data() + 3 * h_;
    for (std::size_t j = 0; j < 2 * h_; ++j) za[j] = xp[j] + hp[j];
    vk.sigmoid_n(za, 2 * h_, za);
    const float* ra = za + h_;
    for (std::size_t j = 0; j < h_; ++j) {
      na[j] = xp[2 * h_ + j] + ra[j] * hp[2 * h_ + j];
    }
    vk.tanh_n(na, h_, na);
    for (std::size_t j = 0; j < h_; ++j) {
      h_out[j] = (1.0f - za[j]) * h_prev[j] + za[j] * na[j];
    }
  }
}

void RnnCell::full_update(std::span<const float> x,
                          std::span<const float> h_prev,
                          std::span<const float> c_prev,
                          std::span<float> h_out, std::span<float> c_out,
                          std::span<float> cache, OpCounts& counts) const {
  TAGNN_CHECK(x.size() == dz_ && h_prev.size() == h_);
  TAGNN_CHECK(cache.size() == cache_dim());
  const std::size_t gh = gates_ * h_;
  std::vector<float> xpart(gh), hpart(gh);
  // x-part: x * Wx + b (accumulating gemv on top of the bias row).
  for (std::size_t j = 0; j < gh; ++j) xpart[j] = w_.rnn_b(0, j);
  ops::gemv(x, w_.rnn_wx, xpart, {.accumulate = true});
  // h-part: h_prev * Wh.
  ops::gemv(h_prev, w_.rnn_wh, hpart);

  if (kind_ == RnnKind::kLstm) {
    for (std::size_t j = 0; j < gh; ++j) cache[j] = xpart[j] + hpart[j];
  } else {
    for (std::size_t j = 0; j < gh; ++j) {
      cache[j] = xpart[j];
      cache[gh + j] = hpart[j];
    }
  }
  derive_outputs(h_prev, c_prev, cache, h_out, c_out);

  counts.macs += full_update_macs();
  counts.activations += static_cast<double>(gh + h_);
  counts.feature_bytes += static_cast<double>(dz_ + h_) * 4.0;
  // Weight traffic is charged once per snapshot by the engine (the gate
  // matrices fit in on-chip/SRAM working sets), not per vertex.
  counts.output_bytes += static_cast<double>(h_ + cell_state_dim()) * 4.0;
  ++counts.rnn_full;
}

// One tile of full_update_rows. The x-part accumulates onto the bias
// in the cache row itself (the GRU's h-part goes straight to the upper
// half), so only the LSTM's h-part needs the tile buffer. Each row's h
// is read by the h-part product before its own outputs overwrite it,
// and rows of other tiles are never touched.
void RnnCell::full_update_tile(const Matrix& z,
                               std::span<const VertexId> tile, Matrix& h,
                               Matrix& c, Matrix& cache) const {
  const std::size_t gh = gates_ * h_;
  thread_local std::vector<float> buf;
  buf.resize(4 * gh);
  const float* bias = w_.rnn_b.data();
  const std::size_t m = tile.size();
  const float* zr[4];
  const float* hr[4];
  float* xp[4];
  float* hp[4];
  for (std::size_t i = 0; i < m; ++i) {
    const auto v = static_cast<std::size_t>(tile[i]);
    zr[i] = z.data() + v * dz_;
    hr[i] = h.data() + v * h_;
    xp[i] = cache.data() + v * cache.cols();
    std::copy(bias, bias + gh, xp[i]);
    hp[i] = kind_ == RnnKind::kLstm ? buf.data() + i * gh : xp[i] + gh;
  }
  ops::gemm_tile({zr, m}, w_.rnn_wx, {xp, m}, /*accumulate=*/true);
  ops::gemm_tile({hr, m}, w_.rnn_wh, {hp, m});
  const kernels::SpmmMicroKernels& sk = kernels::registry().spmm();
  for (std::size_t i = 0; i < m; ++i) {
    const auto v = static_cast<std::size_t>(tile[i]);
    if (kind_ == RnnKind::kLstm) sk.row_add(hp[i], gh, xp[i]);
    derive_outputs(h.row(v), c.row(v), cache.row(v), h.row(v), c.row(v));
  }
}

void RnnCell::full_update_rows(const Matrix& z,
                               std::span<const VertexId> rows, Matrix& h,
                               Matrix& c, Matrix& cache,
                               RnnBatchScratch& /*ws*/,
                               OpCounts& counts) const {
  if (rows.empty()) return;
  const std::size_t gh = gates_ * h_;
  TAGNN_CHECK(z.cols() == dz_ && h.cols() == h_);
  TAGNN_CHECK(cache.cols() == cache_dim());
  parallel_for(0, (rows.size() + 3) / 4, [&](std::size_t t0, std::size_t t1) {
    for (std::size_t t = t0; t < t1; ++t) {
      full_update_tile(z, row_tile(rows, t), h, c, cache);
    }
  }, /*serial_threshold=*/16);

  const auto nv = static_cast<double>(rows.size());
  counts.macs += nv * full_update_macs();
  counts.activations += nv * static_cast<double>(gh + h_);
  counts.feature_bytes += nv * static_cast<double>(dz_ + h_) * 4.0;
  counts.output_bytes +=
      nv * static_cast<double>(h_ + cell_state_dim()) * 4.0;
  counts.rnn_full += rows.size();
}

void RnnCell::delta_update(std::span<const float> dx,
                           std::span<const float> dh,
                           std::span<const float> h_prev,
                           std::span<const float> c_prev,
                           std::span<float> h_out, std::span<float> c_out,
                           std::span<float> cache, OpCounts& counts) const {
  TAGNN_CHECK(dx.size() == dz_ && dh.size() == h_);
  TAGNN_CHECK(cache.size() == cache_dim());
  const std::size_t gh = gates_ * h_;
  const kernels::VecKernels vk = kernels::registry().vec();
  // Condensed non-zero input-delta columns update the x-part in place.
  std::size_t nnz = 0;
  for (std::size_t i = 0; i < dz_; ++i) {
    const float di = dx[i];
    if (di == 0.0f) continue;
    ++nnz;
    vk.axpy(w_.rnn_wx.data() + i * gh, di, gh, cache.data());
  }
  // Condensed recurrent-delta columns refresh the h-part (for the LSTM
  // the x- and h-parts share one combined pre-activation vector; the
  // GRU keeps the h-part in the upper half of the cache).
  float* hpart = kind_ == RnnKind::kLstm ? cache.data() : cache.data() + gh;
  for (std::size_t i = 0; i < h_; ++i) {
    const float di = dh[i];
    if (di == 0.0f) continue;
    ++nnz;
    vk.axpy(w_.rnn_wh.data() + i * gh, di, gh, hpart);
  }
  derive_outputs(h_prev, c_prev, cache, h_out, c_out);

  counts.macs += static_cast<double>(nnz * gh);
  counts.activations += static_cast<double>(gh + h_);
  counts.feature_bytes += static_cast<double>(nnz + h_) * 4.0;
  counts.output_bytes += static_cast<double>(h_ + cell_state_dim()) * 4.0;
  counts.delta_nnz += static_cast<double>(nnz);
  ++counts.rnn_delta;
}

// One tile of delta_update_rows; returns its kept-lane count. Every
// row's deltas are formed before any output of the tile is written, so
// the h delta sees the pre-update state. At the densities the skip
// thresholds produce, delta rows are mostly dense, so the products run
// as register-tile GEMMs (zero lanes contribute exact-zero products)
// instead of per-lane axpy streaming with a weight-row reload per lane.
std::size_t RnnCell::delta_update_tile(const Matrix& z,
                                       std::span<const VertexId> tile,
                                       float delta_eps, Matrix& z_applied,
                                       Matrix& h_applied, Matrix& h,
                                       Matrix& c, Matrix& cache) const {
  const std::size_t gh = gates_ * h_;
  thread_local std::vector<float> buf;
  buf.resize(4 * (dz_ + h_ + 2 * gh));
  const std::size_t m = tile.size();
  const float* dx[4];
  const float* dh[4];
  float* xp[4];
  float* hp[4];
  std::size_t nnz = 0;
  for (std::size_t i = 0; i < m; ++i) {
    const VertexId v = tile[i];
    float* dxi = buf.data() + i * dz_;
    float* dhi = buf.data() + 4 * dz_ + i * h_;
    nnz += dense_delta(z.row(v), z_applied.row(v), delta_eps, {dxi, dz_});
    nnz += dense_delta(h.row(v), h_applied.row(v), delta_eps, {dhi, h_});
    dx[i] = dxi;
    dh[i] = dhi;
    xp[i] = buf.data() + 4 * (dz_ + h_) + i * gh;
    hp[i] = xp[i] + 4 * gh;
  }
  ops::gemm_tile({dx, m}, w_.rnn_wx, {xp, m});
  ops::gemm_tile({dh, m}, w_.rnn_wh, {hp, m});
  const kernels::SpmmMicroKernels& sk = kernels::registry().spmm();
  for (std::size_t i = 0; i < m; ++i) {
    const VertexId v = tile[i];
    const std::span<float> vcache = cache.row(v);
    if (kind_ == RnnKind::kLstm) {
      // x- and h-parts share the combined pre-activation vector.
      sk.row_add2(xp[i], hp[i], gh, vcache.data());
    } else {
      // GRU keeps the h-part in the upper half of the cache.
      sk.row_add(xp[i], gh, vcache.data());
      sk.row_add(hp[i], gh, vcache.data() + gh);
    }
    derive_outputs(h.row(v), c.row(v), vcache, h.row(v), c.row(v));
  }
  return nnz;
}

void RnnCell::delta_update_rows(const Matrix& z,
                                std::span<const VertexId> rows,
                                float delta_eps, Matrix& z_applied,
                                Matrix& h_applied, Matrix& h, Matrix& c,
                                Matrix& cache, OpCounts& counts) const {
  if (rows.empty()) return;
  const std::size_t gh = gates_ * h_;
  TAGNN_CHECK(z.cols() == dz_ && z_applied.cols() == dz_);
  TAGNN_CHECK(h.cols() == h_ && h_applied.cols() == h_);
  TAGNN_CHECK(cache.cols() == cache_dim());
  std::atomic<std::size_t> kept{0};
  parallel_for(0, (rows.size() + 3) / 4, [&](std::size_t t0, std::size_t t1) {
    std::size_t nnz = 0;
    for (std::size_t t = t0; t < t1; ++t) {
      nnz += delta_update_tile(z, row_tile(rows, t), delta_eps, z_applied,
                               h_applied, h, c, cache);
    }
    kept += nnz;
  }, /*serial_threshold=*/16);

  // Charged as the Condense Unit computes it: only the kept lanes cost
  // MACs/fetch traffic, identical to summing the per-vertex charges.
  const auto total_nnz = static_cast<double>(kept.load());
  const auto nv = static_cast<double>(rows.size());
  counts.macs += total_nnz * static_cast<double>(gh);
  counts.activations += nv * static_cast<double>(gh + h_);
  counts.feature_bytes += (total_nnz + nv * static_cast<double>(h_)) * 4.0;
  counts.output_bytes +=
      nv * static_cast<double>(h_ + cell_state_dim()) * 4.0;
  counts.delta_nnz += total_nnz;
  counts.rnn_delta += rows.size();
}

}  // namespace tagnn

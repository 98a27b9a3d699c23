// Scalar micro-kernel variants — the portable fallback and the
// bit-exactness reference every SIMD variant is tested against. This TU
// compiles with -ffp-contract=off (see tensor/CMakeLists.txt) so the
// compiler cannot contract the multiply-add pairs into FMAs: the
// per-element rounding here defines the contract all ISAs must match.
#include <cstddef>

#include "tensor/activation_math.hpp"
#include "tensor/kernel_registry.hpp"
#include "tensor/kernels_registration.hpp"

namespace tagnn::kernels {
namespace {

constexpr std::size_t kTileCols = 16;  // C-tile width held in registers

// Accumulates c[r, j0:j0+ncb) += a[r, p0:p0+kcb) * packed for one row
// (streaming form for multi-panel k and gemm_tile accumulation).
void micro_1row(const float* arow, const float* packed, std::size_t kcb,
                std::size_t ncb, float* crow) {
  for (std::size_t kk = 0; kk < kcb; ++kk) {
    const float aik = arow[kk];
    if (aik == 0.0f) continue;
    const float* bp = packed + kk * ncb;
    for (std::size_t j = 0; j < ncb; ++j) crow[j] += aik * bp[j];
  }
}

// Four independent C rows against one packed panel: one load of bp[j]
// feeds four multiply-adds (streaming form, see micro_1row).
void micro_4row(const float* a0, const float* a1, const float* a2,
                const float* a3, const float* packed, std::size_t kcb,
                std::size_t ncb, float* c0, float* c1, float* c2,
                float* c3) {
  for (std::size_t kk = 0; kk < kcb; ++kk) {
    const float a0k = a0[kk], a1k = a1[kk], a2k = a2[kk], a3k = a3[kk];
    if (a0k == 0.0f && a1k == 0.0f && a2k == 0.0f && a3k == 0.0f) continue;
    const float* bp = packed + kk * ncb;
    for (std::size_t j = 0; j < ncb; ++j) {
      const float bj = bp[j];
      c0[j] += a0k * bj;
      c1[j] += a1k * bj;
      c2[j] += a2k * bj;
      c3[j] += a3k * bj;
    }
  }
}

// One C row over the full k range, kTileCols-wide register tiles.
// `stride` is the packed panel's row pitch; `width` the C columns to
// produce starting at `packed`/`crow` (width <= stride).
void tile_1row(const float* arow, const float* packed, std::size_t kcb,
               std::size_t stride, std::size_t width, float* crow) {
  std::size_t j = 0;
  for (; j + kTileCols <= width; j += kTileCols) {
    float t[kTileCols] = {};
    const float* bp = packed + j;
    for (std::size_t kk = 0; kk < kcb; ++kk) {
      const float x = arow[kk];
      const float* bk = bp + kk * stride;
      for (std::size_t u = 0; u < kTileCols; ++u) t[u] += x * bk[u];
    }
    for (std::size_t u = 0; u < kTileCols; ++u) crow[j + u] = t[u];
  }
  if (j < width) {
    const std::size_t w = width - j;
    float t[kTileCols] = {};
    const float* bp = packed + j;
    for (std::size_t kk = 0; kk < kcb; ++kk) {
      const float x = arow[kk];
      const float* bk = bp + kk * stride;
      for (std::size_t u = 0; u < w; ++u) t[u] += x * bk[u];
    }
    for (std::size_t u = 0; u < w; ++u) crow[j + u] = t[u];
  }
}

// Four C rows over the full k range: a (4 x kTileCols) accumulator tile
// lives in registers across the whole k loop and is stored exactly
// once, so the inner loop is pure broadcast-load-multiply-add with no C
// traffic.
void tile_4row(const float* a0, const float* a1, const float* a2,
               const float* a3, const float* packed, std::size_t kcb,
               std::size_t ncb, float* c0, float* c1, float* c2, float* c3) {
  std::size_t j = 0;
  for (; j + kTileCols <= ncb; j += kTileCols) {
    float t0[kTileCols] = {}, t1[kTileCols] = {};
    float t2[kTileCols] = {}, t3[kTileCols] = {};
    const float* bp = packed + j;
    for (std::size_t kk = 0; kk < kcb; ++kk) {
      const float x0 = a0[kk], x1 = a1[kk], x2 = a2[kk], x3 = a3[kk];
      const float* bk = bp + kk * ncb;
      for (std::size_t u = 0; u < kTileCols; ++u) {
        const float bu = bk[u];
        t0[u] += x0 * bu;
        t1[u] += x1 * bu;
        t2[u] += x2 * bu;
        t3[u] += x3 * bu;
      }
    }
    for (std::size_t u = 0; u < kTileCols; ++u) {
      c0[j + u] = t0[u];
      c1[j + u] = t1[u];
      c2[j + u] = t2[u];
      c3[j + u] = t3[u];
    }
  }
  if (j < ncb) {
    tile_1row(a0, packed + j, kcb, ncb, ncb - j, c0 + j);
    tile_1row(a1, packed + j, kcb, ncb, ncb - j, c1 + j);
    tile_1row(a2, packed + j, kcb, ncb, ncb - j, c2 + j);
    tile_1row(a3, packed + j, kcb, ncb, ncb - j, c3 + j);
  }
}

// ---- spmm row primitives (mean aggregation) ----

void row_add(const float* ra, std::size_t d, float* o) {
  for (std::size_t j = 0; j < d; ++j) o[j] += ra[j];
}

// Two neighbour rows per pass: the partial sum stays in registers for
// one extra add without changing the per-element accumulation order.
void row_add2(const float* ra, const float* rb, std::size_t d, float* o) {
  for (std::size_t j = 0; j < d; ++j) o[j] = (o[j] + ra[j]) + rb[j];
}

void row_scale(float s, std::size_t d, float* o) {
  for (std::size_t j = 0; j < d; ++j) o[j] *= s;
}

// ---- vector kernels ----

void axpy(const float* x, float alpha, std::size_t n, float* y) {
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void relu(float* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) x[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

// Batched activations over the shared polynomial exp (see
// tensor/activation_math.hpp). `out` may alias `x`.
void sigmoid_n(const float* x, std::size_t n, float* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = detail::sigmoid_approx(x[i]);
}

void tanh_n(const float* x, std::size_t n, float* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = detail::tanh_approx(x[i]);
}

// The Condense Unit's thresholded delta (detail::delta_lane, shared
// with the AVX2 remainder lanes).
std::size_t delta_n(const float* cur, float* applied, float eps,
                    std::size_t n, float* out) {
  std::size_t kept = 0;
  for (std::size_t i = 0; i < n; ++i) {
    kept += detail::delta_lane(cur[i], applied[i], eps, out[i]);
  }
  return kept;
}

}  // namespace

// tagnn-accum-order: ascending-k
// Every kernel variant registered here accumulates k terms in ascending
// index order; AVX2 mirrors the same order across 8 lanes, so outputs
// are bit-identical (tagnn_lint checks the tag matches across TUs).
void register_scalar_kernels(KernelRegistry& r) {
  GemmMicroKernels gemm;
  gemm.micro_1row = micro_1row;
  gemm.micro_4row = micro_4row;
  gemm.tile_1row = tile_1row;
  gemm.tile_4row = tile_4row;
  r.register_gemm("scalar", Isa::kScalar, /*priority=*/0, gemm);

  SpmmMicroKernels spmm;
  spmm.row_add = row_add;
  spmm.row_add2 = row_add2;
  spmm.row_scale = row_scale;
  r.register_spmm("scalar", Isa::kScalar, /*priority=*/0, spmm);

  VecKernels vec;
  vec.axpy = axpy;
  vec.relu = relu;
  vec.sigmoid_n = sigmoid_n;
  vec.tanh_n = tanh_n;
  vec.delta_n = delta_n;
  r.register_vec("scalar", Isa::kScalar, /*priority=*/0, vec);
}

}  // namespace tagnn::kernels

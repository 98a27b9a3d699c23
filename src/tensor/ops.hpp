// Dense kernels used by the DGNN models: GEMM/GEMV, element-wise ops,
// activations, and similarity measures.
//
// The matrix-multiply surface lives in the nested ops:: namespace as a
// single registry-backed entry point per op — ops::gemm / ops::gemv
// with an options struct — instead of the historical free-function
// spread (gemm / gemm_blocked / gemv / gemv_add with trailing default
// arguments). The micro-kernels behind them are dispatched at runtime
// through kernels::registry() (AVX2 with a scalar fallback; see
// tensor/kernel_registry.hpp); kernels::registry().active("gemm")
// reports which variant is serving.
//
// Exactness: every variant accumulates each output element in strictly
// ascending k order and the SIMD kernels avoid FMA contraction, so for
// finite inputs ops::gemm, ops::gemv, and gemm_naive produce
// value-identical results at any thread count under any ISA.
#pragma once

#include <span>

#include "tensor/blocking.hpp"
#include "tensor/matrix.hpp"

namespace tagnn {

namespace ops {

struct GemmOpts {
  /// Cache-blocking parameters (kc/nc/mr).
  GemmBlocking blocking{};
};

/// C = A * B. Shapes: (m x k) * (k x n) -> (m x n). Cache-blocked with
/// B-panel packing and a registry-dispatched mr-row micro-kernel.
void gemm(const Matrix& a, const Matrix& b, Matrix& c,
          const GemmOpts& opts = {});

/// Row-tile GEMM on the calling thread: c[i] = a[i] * B, or c[i] +=
/// a[i] * B with `accumulate`, for up to four caller-held rows (a[i]
/// has b.rows() floats, c[i] has b.cols()). The fused per-tile passes
/// of the GCN layer and the RNN step use it to keep a tile's rows in
/// cache from aggregation or delta generation through the activation.
/// Fresh products run the register-tile kernels and accumulation the
/// streaming ones (which skip all-zero A columns), exactly as ops::gemm
/// does, so each row is value-identical to the same row of ops::gemm.
void gemm_tile(std::span<const float* const> a, const Matrix& b,
               std::span<float* const> c, bool accumulate = false);

struct GemvOpts {
  /// out[j] += ... instead of out[j] = ... (gate pre-activations start
  /// from the bias row).
  bool accumulate = false;
};

/// out[j] = sum_i x[i] * w(i, j); out must have w.cols() elements.
/// Row-streaming over the registry axpy kernel; value-identical to
/// ops::gemm on a 1-row matrix.
void gemv(std::span<const float> x, const Matrix& w, std::span<float> out,
          const GemvOpts& opts = {});

}  // namespace ops

/// Pre-blocking i-k-j scalar reference kernel, kept only for the
/// equivalence tests and as the bench_regress baseline. Never
/// dispatches through the registry.
void gemm_naive(const Matrix& a, const Matrix& b, Matrix& c);

/// y += alpha * x (same length). Registry-dispatched.
void axpy(std::span<const float> x, std::span<float> y, float alpha = 1.0f);

/// dst = src (same length).
void copy(std::span<const float> src, std::span<float> dst);

/// Element-wise activations, in place, all registry-dispatched.
/// sigmoid/tanh use the polynomial exp approximation (bit-identical
/// across ISAs, ~2 ulp from libm — tensor/activation_math.hpp).
void relu(std::span<float> x);
void sigmoid(std::span<float> x);
void tanh_act(std::span<float> x);

/// L2 norm of a vector.
float norm2(std::span<const float> x);

/// Dot product (lengths must match).
float dot(std::span<const float> a, std::span<const float> b);

/// Cosine similarity in [-1, 1]; returns 1 when both vectors are ~zero
/// (identical) and 0 when exactly one is ~zero.
float cosine_similarity(std::span<const float> a, std::span<const float> b);

/// Max-absolute-difference between two equal-shaped matrices.
float max_abs_diff(const Matrix& a, const Matrix& b);

}  // namespace tagnn

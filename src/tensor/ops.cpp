#include "tensor/ops.hpp"

#include <cmath>

#include "common/thread_pool.hpp"
#include "tensor/kernel_registry.hpp"

namespace tagnn {

void gemm_naive(const Matrix& a, const Matrix& b, Matrix& c) {
  TAGNN_CHECK_MSG(a.cols() == b.rows(),
                  "gemm shape mismatch: " << a.rows() << 'x' << a.cols()
                                          << " * " << b.rows() << 'x'
                                          << b.cols());
  if (c.rows() != a.rows() || c.cols() != b.cols()) {
    c = Matrix(a.rows(), b.cols());
  } else {
    c.fill(0.0f);
  }
  const std::size_t k_dim = a.cols();
  const std::size_t n = b.cols();
  // i-k-j loop order: the inner loop streams rows of B and C.
  parallel_for(0, a.rows(), [&](std::size_t r0, std::size_t r1) {
    for (std::size_t i = r0; i < r1; ++i) {
      const float* ai = a.data() + i * k_dim;
      float* ci = c.data() + i * n;
      for (std::size_t k = 0; k < k_dim; ++k) {
        const float aik = ai[k];
        if (aik == 0.0f) continue;
        const float* bk = b.data() + k * n;
        for (std::size_t j = 0; j < n; ++j) ci[j] += aik * bk[j];
      }
    }
  }, /*serial_threshold=*/64);
}

namespace ops {

// Streams rows of W through the registry axpy kernel: out starts from
// zero (or its existing contents in accumulate mode) and folds in
// x[i] * W(i, :) in ascending i order, skipping exact-zero x lanes —
// the same order and skip rule as the historical gemv/gemv_add pair,
// so results are value-identical under every ISA.
void gemv(std::span<const float> x, const Matrix& w, std::span<float> out,
          const GemvOpts& opts) {
  TAGNN_CHECK(x.size() == w.rows() && out.size() == w.cols());
  const std::size_t n = w.cols();
  if (!opts.accumulate) {
    for (std::size_t j = 0; j < n; ++j) out[j] = 0.0f;
  }
  const kernels::VecKernels& vec = kernels::registry().vec();
  for (std::size_t i = 0; i < w.rows(); ++i) {
    const float xi = x[i];
    if (xi == 0.0f) continue;
    vec.axpy(w.data() + i * n, xi, n, out.data());
  }
}

}  // namespace ops

void axpy(std::span<const float> x, std::span<float> y, float alpha) {
  TAGNN_CHECK(x.size() == y.size());
  kernels::registry().vec().axpy(x.data(), alpha, x.size(), y.data());
}

void copy(std::span<const float> src, std::span<float> dst) {
  TAGNN_CHECK(src.size() == dst.size());
  for (std::size_t i = 0; i < src.size(); ++i) dst[i] = src[i];
}

void relu(std::span<float> x) {
  kernels::registry().vec().relu(x.data(), x.size());
}

void sigmoid(std::span<float> x) {
  kernels::registry().vec().sigmoid_n(x.data(), x.size(), x.data());
}

void tanh_act(std::span<float> x) {
  kernels::registry().vec().tanh_n(x.data(), x.size(), x.data());
}

float norm2(std::span<const float> x) {
  double s = 0.0;
  for (float v : x) s += static_cast<double>(v) * v;
  return static_cast<float>(std::sqrt(s));
}

float dot(std::span<const float> a, std::span<const float> b) {
  TAGNN_CHECK(a.size() == b.size());
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    s += static_cast<double>(a[i]) * b[i];
  return static_cast<float>(s);
}

float cosine_similarity(std::span<const float> a, std::span<const float> b) {
  const float na = norm2(a);
  const float nb = norm2(b);
  constexpr float kEps = 1e-12f;
  if (na < kEps && nb < kEps) return 1.0f;
  if (na < kEps || nb < kEps) return 0.0f;
  float c = dot(a, b) / (na * nb);
  if (c > 1.0f) c = 1.0f;
  if (c < -1.0f) c = -1.0f;
  return c;
}

float max_abs_diff(const Matrix& a, const Matrix& b) {
  TAGNN_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  float m = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const float d = std::fabs(a.data()[i] - b.data()[i]);
    if (d > m) m = d;
  }
  return m;
}

}  // namespace tagnn

// AVX2 micro-kernel variants, bit-exact with the scalar TU.
//
// Exactness rules (enforced by tests/test_kernels.cpp):
//   * separate _mm256_mul_ps + _mm256_add_ps, never _mm256_fmadd_ps —
//     an FMA rounds once where scalar mul+add rounds twice, so FMA
//     results differ in the last ulp. The TU compiles with
//     -ffp-contract=off so the compiler cannot re-contract the pair
//     (it is built with -mfma only so the *probe* can distinguish
//     hosts; no FMA instruction is ever emitted from these sources).
//   * every output element accumulates its k terms in the same
//     ascending order as the scalar kernel, 8 independent lanes at a
//     time; lane independence keeps per-element order unchanged.
//   * the zero-skip conditions match the scalar kernels exactly
//     (micro_* skip all-zero A columns), so even Inf/NaN propagation is
//     identical.
//
// The whole TU compiles away to an empty registration on non-x86
// targets; dispatch then stays scalar.
#include "tensor/kernel_registry.hpp"
#include "tensor/kernels_registration.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include <cstddef>
#include <cstdint>

#include "tensor/activation_math.hpp"

namespace tagnn::kernels {
namespace {

constexpr std::size_t kTileCols = 16;  // matches the scalar tile width

// o[j] += a * b[j] over one 8-lane chunk, without FMA contraction.
inline __m256 madd(__m256 acc, __m256 a, __m256 b) {
  return _mm256_add_ps(acc, _mm256_mul_ps(a, b));
}

void micro_1row(const float* arow, const float* packed, std::size_t kcb,
                std::size_t ncb, float* crow) {
  std::size_t j = 0;
  for (; j + 8 <= ncb; j += 8) {
    __m256 acc = _mm256_loadu_ps(crow + j);
    for (std::size_t kk = 0; kk < kcb; ++kk) {
      const float aik = arow[kk];
      if (aik == 0.0f) continue;
      acc = madd(acc, _mm256_set1_ps(aik),
                 _mm256_loadu_ps(packed + kk * ncb + j));
    }
    _mm256_storeu_ps(crow + j, acc);
  }
  for (; j < ncb; ++j) {
    float acc = crow[j];
    for (std::size_t kk = 0; kk < kcb; ++kk) {
      const float aik = arow[kk];
      if (aik == 0.0f) continue;
      acc += aik * packed[kk * ncb + j];
    }
    crow[j] = acc;
  }
}

void micro_4row(const float* a0, const float* a1, const float* a2,
                const float* a3, const float* packed, std::size_t kcb,
                std::size_t ncb, float* c0, float* c1, float* c2,
                float* c3) {
  std::size_t j = 0;
  for (; j + 8 <= ncb; j += 8) {
    __m256 s0 = _mm256_loadu_ps(c0 + j);
    __m256 s1 = _mm256_loadu_ps(c1 + j);
    __m256 s2 = _mm256_loadu_ps(c2 + j);
    __m256 s3 = _mm256_loadu_ps(c3 + j);
    for (std::size_t kk = 0; kk < kcb; ++kk) {
      const float x0 = a0[kk], x1 = a1[kk], x2 = a2[kk], x3 = a3[kk];
      if (x0 == 0.0f && x1 == 0.0f && x2 == 0.0f && x3 == 0.0f) continue;
      const __m256 b = _mm256_loadu_ps(packed + kk * ncb + j);
      s0 = madd(s0, _mm256_set1_ps(x0), b);
      s1 = madd(s1, _mm256_set1_ps(x1), b);
      s2 = madd(s2, _mm256_set1_ps(x2), b);
      s3 = madd(s3, _mm256_set1_ps(x3), b);
    }
    _mm256_storeu_ps(c0 + j, s0);
    _mm256_storeu_ps(c1 + j, s1);
    _mm256_storeu_ps(c2 + j, s2);
    _mm256_storeu_ps(c3 + j, s3);
  }
  for (; j < ncb; ++j) {
    float s0 = c0[j], s1 = c1[j], s2 = c2[j], s3 = c3[j];
    for (std::size_t kk = 0; kk < kcb; ++kk) {
      const float x0 = a0[kk], x1 = a1[kk], x2 = a2[kk], x3 = a3[kk];
      if (x0 == 0.0f && x1 == 0.0f && x2 == 0.0f && x3 == 0.0f) continue;
      const float bj = packed[kk * ncb + j];
      s0 += x0 * bj;
      s1 += x1 * bj;
      s2 += x2 * bj;
      s3 += x3 * bj;
    }
    c0[j] = s0;
    c1[j] = s1;
    c2[j] = s2;
    c3[j] = s3;
  }
}

void tile_1row(const float* arow, const float* packed, std::size_t kcb,
               std::size_t stride, std::size_t width, float* crow) {
  std::size_t j = 0;
  for (; j + 8 <= width; j += 8) {
    __m256 t = _mm256_setzero_ps();
    const float* bp = packed + j;
    for (std::size_t kk = 0; kk < kcb; ++kk) {
      t = madd(t, _mm256_set1_ps(arow[kk]),
               _mm256_loadu_ps(bp + kk * stride));
    }
    _mm256_storeu_ps(crow + j, t);
  }
  for (; j < width; ++j) {
    float t = 0.0f;
    const float* bp = packed + j;
    for (std::size_t kk = 0; kk < kcb; ++kk) {
      t += arow[kk] * bp[kk * stride];
    }
    crow[j] = t;
  }
}

void tile_4row(const float* a0, const float* a1, const float* a2,
               const float* a3, const float* packed, std::size_t kcb,
               std::size_t ncb, float* c0, float* c1, float* c2, float* c3) {
  std::size_t j = 0;
  for (; j + kTileCols <= ncb; j += kTileCols) {
    // 4 rows x 16 columns = 8 ymm accumulators held across the k loop.
    __m256 t0a = _mm256_setzero_ps(), t0b = _mm256_setzero_ps();
    __m256 t1a = _mm256_setzero_ps(), t1b = _mm256_setzero_ps();
    __m256 t2a = _mm256_setzero_ps(), t2b = _mm256_setzero_ps();
    __m256 t3a = _mm256_setzero_ps(), t3b = _mm256_setzero_ps();
    const float* bp = packed + j;
    for (std::size_t kk = 0; kk < kcb; ++kk) {
      const float* bk = bp + kk * ncb;
      const __m256 ba = _mm256_loadu_ps(bk);
      const __m256 bb = _mm256_loadu_ps(bk + 8);
      const __m256 x0 = _mm256_set1_ps(a0[kk]);
      const __m256 x1 = _mm256_set1_ps(a1[kk]);
      const __m256 x2 = _mm256_set1_ps(a2[kk]);
      const __m256 x3 = _mm256_set1_ps(a3[kk]);
      t0a = madd(t0a, x0, ba);
      t0b = madd(t0b, x0, bb);
      t1a = madd(t1a, x1, ba);
      t1b = madd(t1b, x1, bb);
      t2a = madd(t2a, x2, ba);
      t2b = madd(t2b, x2, bb);
      t3a = madd(t3a, x3, ba);
      t3b = madd(t3b, x3, bb);
    }
    _mm256_storeu_ps(c0 + j, t0a);
    _mm256_storeu_ps(c0 + j + 8, t0b);
    _mm256_storeu_ps(c1 + j, t1a);
    _mm256_storeu_ps(c1 + j + 8, t1b);
    _mm256_storeu_ps(c2 + j, t2a);
    _mm256_storeu_ps(c2 + j + 8, t2b);
    _mm256_storeu_ps(c3 + j, t3a);
    _mm256_storeu_ps(c3 + j + 8, t3b);
  }
  if (j < ncb) {
    tile_1row(a0, packed + j, kcb, ncb, ncb - j, c0 + j);
    tile_1row(a1, packed + j, kcb, ncb, ncb - j, c1 + j);
    tile_1row(a2, packed + j, kcb, ncb, ncb - j, c2 + j);
    tile_1row(a3, packed + j, kcb, ncb, ncb - j, c3 + j);
  }
}

// ---- spmm row primitives ----

void row_add(const float* ra, std::size_t d, float* o) {
  std::size_t j = 0;
  for (; j + 8 <= d; j += 8) {
    _mm256_storeu_ps(
        o + j, _mm256_add_ps(_mm256_loadu_ps(o + j), _mm256_loadu_ps(ra + j)));
  }
  for (; j < d; ++j) o[j] += ra[j];
}

void row_add2(const float* ra, const float* rb, std::size_t d, float* o) {
  std::size_t j = 0;
  for (; j + 8 <= d; j += 8) {
    const __m256 s =
        _mm256_add_ps(_mm256_loadu_ps(o + j), _mm256_loadu_ps(ra + j));
    _mm256_storeu_ps(o + j, _mm256_add_ps(s, _mm256_loadu_ps(rb + j)));
  }
  for (; j < d; ++j) o[j] = (o[j] + ra[j]) + rb[j];
}

void row_scale(float s, std::size_t d, float* o) {
  const __m256 vs = _mm256_set1_ps(s);
  std::size_t j = 0;
  for (; j + 8 <= d; j += 8) {
    _mm256_storeu_ps(o + j, _mm256_mul_ps(_mm256_loadu_ps(o + j), vs));
  }
  for (; j < d; ++j) o[j] *= s;
}

// ---- vector kernels ----

void axpy(const float* x, float alpha, std::size_t n, float* y) {
  const __m256 va = _mm256_set1_ps(alpha);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i,
                     madd(_mm256_loadu_ps(y + i), va, _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

// max(x, 0) with the (x > 0) ? x : 0 operand order, so NaN and -0.0
// behave exactly as the scalar kernel.
void relu(float* x, std::size_t n) {
  const __m256 zero = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, _mm256_max_ps(_mm256_loadu_ps(x + i), zero));
  }
  for (; i < n; ++i) x[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

// 8-lane mirror of detail::exp_approx: every operation corresponds 1:1
// (min/max clamp, nearest-even round, mul+add polynomial — no FMA), so
// each lane rounds exactly as the scalar function does.
inline __m256 exp8(__m256 x) {
  using namespace detail;
  x = _mm256_min_ps(x, _mm256_set1_ps(kExpHi));
  x = _mm256_max_ps(x, _mm256_set1_ps(kExpLo));
  const __m256 n = _mm256_round_ps(
      _mm256_mul_ps(x, _mm256_set1_ps(kLog2e)),
      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m256 r = _mm256_sub_ps(x, _mm256_mul_ps(n, _mm256_set1_ps(kLn2Hi)));
  r = _mm256_sub_ps(r, _mm256_mul_ps(n, _mm256_set1_ps(kLn2Lo)));
  const __m256 r2 = _mm256_mul_ps(r, r);
  __m256 p = _mm256_set1_ps(kExpP0);
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kExpP1));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kExpP2));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kExpP3));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kExpP4));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kExpP5));
  p = _mm256_mul_ps(p, r2);
  p = _mm256_add_ps(p, r);
  p = _mm256_add_ps(p, _mm256_set1_ps(1.0f));
  const __m256i e = _mm256_slli_epi32(
      _mm256_add_epi32(_mm256_cvtps_epi32(n), _mm256_set1_epi32(127)), 23);
  return _mm256_mul_ps(p, _mm256_castsi256_ps(e));
}

void sigmoid_n(const float* x, std::size_t n, float* out) {
  const __m256 one = _mm256_set1_ps(1.0f);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 e =
        exp8(_mm256_sub_ps(_mm256_setzero_ps(), _mm256_loadu_ps(x + i)));
    _mm256_storeu_ps(out + i, _mm256_div_ps(one, _mm256_add_ps(one, e)));
  }
  for (; i < n; ++i) out[i] = detail::sigmoid_approx(x[i]);
}

void tanh_n(const float* x, std::size_t n, float* out) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 two = _mm256_set1_ps(2.0f);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 e = exp8(_mm256_mul_ps(_mm256_loadu_ps(x + i), two));
    _mm256_storeu_ps(
        out + i,
        _mm256_sub_ps(one, _mm256_div_ps(two, _mm256_add_ps(e, one))));
  }
  for (; i < n; ++i) out[i] = detail::tanh_approx(x[i]);
}

// The Condense Unit's thresholded delta: an 8-lane mirror of
// detail::delta_lane, which also serves the remainder lanes. The
// ordered compares drop NaN deltas like the scalar `||` of `>` and `<`;
// the AND with the all-ones/all-zeros mask writes +0.0f for a dropped
// lane, as `keep ? d : 0.0f` does. Kept lanes are counted by
// subtracting the mask (-1 per kept lane) from per-lane counters.
std::size_t delta_n(const float* cur, float* applied, float eps,
                    std::size_t n, float* out) {
  const __m256 pos = _mm256_set1_ps(eps);
  const __m256 neg = _mm256_set1_ps(-eps);
  __m256i counts = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 c = _mm256_loadu_ps(cur + i);
    const __m256 a = _mm256_loadu_ps(applied + i);
    const __m256 d = _mm256_sub_ps(c, a);
    const __m256 keep = _mm256_or_ps(_mm256_cmp_ps(d, pos, _CMP_GT_OQ),
                                     _mm256_cmp_ps(d, neg, _CMP_LT_OQ));
    _mm256_storeu_ps(out + i, _mm256_and_ps(keep, d));
    _mm256_storeu_ps(applied + i, _mm256_blendv_ps(a, c, keep));
    counts = _mm256_sub_epi32(counts, _mm256_castps_si256(keep));
  }
  alignas(32) std::int32_t lane_counts[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lane_counts), counts);
  std::size_t kept = 0;
  for (const std::int32_t k : lane_counts) kept += static_cast<std::size_t>(k);
  for (; i < n; ++i) {
    kept += detail::delta_lane(cur[i], applied[i], eps, out[i]);
  }
  return kept;
}

}  // namespace

// tagnn-accum-order: ascending-k
// Same per-element accumulation order as the scalar kernels: k terms in
// ascending index order, lanes independent (tagnn_lint cross-checks
// this tag against every other registering TU).
void register_avx2_kernels(KernelRegistry& r) {
  GemmMicroKernels gemm;
  gemm.micro_1row = micro_1row;
  gemm.micro_4row = micro_4row;
  gemm.tile_1row = tile_1row;
  gemm.tile_4row = tile_4row;
  r.register_gemm("avx2", Isa::kAvx2, /*priority=*/10, gemm);

  SpmmMicroKernels spmm;
  spmm.row_add = row_add;
  spmm.row_add2 = row_add2;
  spmm.row_scale = row_scale;
  r.register_spmm("avx2", Isa::kAvx2, /*priority=*/10, spmm);

  VecKernels vec;
  vec.axpy = axpy;
  vec.relu = relu;
  vec.sigmoid_n = sigmoid_n;
  vec.tanh_n = tanh_n;
  vec.delta_n = delta_n;
  r.register_vec("avx2", Isa::kAvx2, /*priority=*/10, vec);
}

}  // namespace tagnn::kernels

#else  // !defined(__AVX2__)

namespace tagnn::kernels {

void register_avx2_kernels(KernelRegistry&) {}

}  // namespace tagnn::kernels

#endif

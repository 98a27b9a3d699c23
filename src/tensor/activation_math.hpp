// Shared scalar definitions of the polynomial exp/sigmoid/tanh used by
// the activation kernels ("vec" op, sigmoid_n/tanh_n), and of the
// Condense Unit's thresholded delta lane behind delta_n.
//
// Why not libm: expf/tanhf are opaque scalar calls, so the RNN gate
// derivation (3 transcendentals per hidden lane per update) cannot be
// vectorised and ends up dominating the engine wall-time. This header
// defines the one approximation every ISA variant must reproduce
// bit-for-bit: a Cephes-style exp2-based expf (~2 ulp) evaluated with
// separate multiply and add in a fixed order. The scalar kernel TU uses
// these functions directly; the AVX2 TU mirrors each operation with
// non-FMA intrinsics (identical per-lane rounding) and uses them for
// remainder lanes. Include only from TUs compiled with
// -ffp-contract=off, or the compiler may fuse the mul/add pairs and
// break cross-ISA bit-exactness.
//
// The kernel TUs include this header under different -m flags (the
// AVX2 TU with -mavx2 -mfma), so every function here is `static`: each
// TU keeps its own copy built with its own flags. With external
// linkage, a copy the compiler did not inline would become one COMDAT
// definition per TU, the linker would keep just one of them, and the
// scalar kernels could end up running AVX code on hosts without AVX.
//
// Deviations from libm: results differ from expf/tanhf in the last few
// ulp, and NaN inputs are clamped like any out-of-range value instead
// of propagating. Both are fine for gate activations (bounded inputs,
// tolerance-checked tests); code needing IEEE semantics should call
// libm directly.
#pragma once

#include <bit>
// tagnn-lint: allow(hotpath-libm) -- std::nearbyintf is the scalar rounding primitive the AVX2 kernel mirrors with _mm256_round_ps; no transcendental libm entry points are used
#include <cmath>
#include <cstdint>

namespace tagnn::kernels::detail {

// Cephes expf constants: range-reduce x = n*ln2 + r with a split ln2
// (hi + lo) so r is exact, then a degree-5 polynomial for e^r.
inline constexpr float kExpHi = 88.3762626647949f;
inline constexpr float kExpLo = -87.3365478515625f;
inline constexpr float kLog2e = 1.44269504088896341f;
inline constexpr float kLn2Hi = 0.693359375f;
inline constexpr float kLn2Lo = -2.12194440e-4f;
inline constexpr float kExpP0 = 1.9875691500e-4f;
inline constexpr float kExpP1 = 1.3981999507e-3f;
inline constexpr float kExpP2 = 8.3334519073e-3f;
inline constexpr float kExpP3 = 4.1665795894e-2f;
inline constexpr float kExpP4 = 1.6666665459e-1f;
inline constexpr float kExpP5 = 5.0000001201e-1f;

// The clamp comparisons are written exactly as _mm256_min_ps /
// _mm256_max_ps evaluate them (second operand wins on NaN); the
// rounding uses the default nearest-even mode, matching
// _mm256_round_ps(_MM_FROUND_TO_NEAREST_INT).
static inline float exp_approx(float x) {
  x = x < kExpHi ? x : kExpHi;
  x = x > kExpLo ? x : kExpLo;
  const float n = std::nearbyintf(x * kLog2e);
  float r = x - n * kLn2Hi;
  r = r - n * kLn2Lo;
  const float r2 = r * r;
  float p = kExpP0;
  p = p * r + kExpP1;
  p = p * r + kExpP2;
  p = p * r + kExpP3;
  p = p * r + kExpP4;
  p = p * r + kExpP5;
  p = p * r2;
  p = p + r;
  p = p + 1.0f;
  // 2^n via exponent-field construction; n is in [-126, 127] thanks to
  // the clamp, so the field never overflows into Inf.
  const std::int32_t e = (static_cast<std::int32_t>(n) + 127) << 23;
  return p * std::bit_cast<float>(e);
}

static inline float sigmoid_approx(float x) {
  return 1.0f / (1.0f + exp_approx(-x));
}

// tanh(x) = 1 - 2/(e^{2x} + 1): one exp evaluation, saturates cleanly
// for large |x| via the exp clamp.
static inline float tanh_approx(float x) {
  return 1.0f - 2.0f / (exp_approx(x * 2.0f) + 1.0f);
}

// The Condense Unit's thresholded delta of one lane: writes the kept
// delta (+0.0f when dropped) to `out`, folds a kept lane into
// `applied`, and returns whether it was kept. The compares are ordered,
// so a NaN delta is dropped. The scalar delta_n runs it over the whole
// vector, the AVX2 one over its remainder lanes.
static inline bool delta_lane(float cur, float& applied, float eps,
                              float& out) {
  const float d = cur - applied;
  const bool keep = d > eps || d < -eps;
  out = keep ? d : 0.0f;
  applied = keep ? cur : applied;
  return keep;
}

}  // namespace tagnn::kernels::detail

// Kernel registry: named micro-kernel variants per op, selected once at
// startup by probing the host CPU (sling/myelin style).
//
// Three ops are registered today:
//   "gemm" — the blocked-GEMM micro-kernels (register-tile and
//            streaming-accumulate forms) behind ops::gemm and
//            ops::gemm_tile;
//   "spmm" — the row copy/accumulate/scale primitives behind
//            spmm_mean_csr and the GCN aggregation;
//   "vec"  — axpy, relu, batched sigmoid/tanh, and the Condense Unit's
//            thresholded delta (delta_n), behind ops::gemv / axpy /
//            relu / sigmoid / tanh_act, the RNN gate paths and
//            dense_delta.
//
// Every variant of an op is *value-identical* to the scalar one: the
// SIMD kernels use separate multiply and add (no FMA contraction, the
// TUs compile with -ffp-contract=off) and accumulate each output
// element in the same ascending-k order as the scalar code, so forcing
// a different ISA can never change a result (tested bit-for-bit in
// tests/test_kernels.cpp).
//
// Selection: the best variant whose ISA the host supports wins, unless
// capped by the TAGNN_KERNEL_ISA environment variable (read once at
// first use) or KernelRegistry::force_isa() (the --kernel-isa CLI
// flag). "scalar", "avx2" name the caps; "", "auto" and "native" mean
// no cap. An unknown or unsupported cap fails loudly so a forced-scalar
// CI leg can never silently test the wrong code.
//
// Registration happens via explicit register_*_kernels() calls from the
// per-ISA translation units (static-initializer registrars would be
// dead-stripped from static archives), guarded by std::call_once; the
// active table pointer is an atomic so tests may re-force the ISA
// between multi-threaded runs without racing (TSan-clean).
#pragma once

#include <atomic>
#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tagnn::kernels {

enum class Isa : int {
  kScalar = 0,
  kAvx2 = 1,  // AVX2 without FMA contraction (bit-exact vs scalar)
};
inline constexpr int kNumIsa = 2;

const char* isa_name(Isa isa);
/// Parses "scalar"/"avx2" into `out`; false on anything else.
bool parse_isa(std::string_view name, Isa& out);

/// Host CPU features, probed once via __builtin_cpu_supports.
struct CpuFeatures {
  bool avx2 = false;
  bool fma = false;
  static const CpuFeatures& host();
  bool supports(Isa isa) const { return isa == Isa::kScalar || avx2; }
};

/// Micro-kernels of the blocked GEMM (see tensor/gemm_blocked.cpp for
/// the loop structure that drives them). tile_* hold a register tile
/// over the full k range and store once; micro_* stream accumulate into
/// C (multi-panel GEMM and gemm_tile accumulation).
struct GemmMicroKernels {
  void (*micro_1row)(const float* arow, const float* packed, std::size_t kcb,
                     std::size_t ncb, float* crow) = nullptr;
  void (*micro_4row)(const float* a0, const float* a1, const float* a2,
                     const float* a3, const float* packed, std::size_t kcb,
                     std::size_t ncb, float* c0, float* c1, float* c2,
                     float* c3) = nullptr;
  void (*tile_1row)(const float* arow, const float* packed, std::size_t kcb,
                    std::size_t stride, std::size_t width,
                    float* crow) = nullptr;
  void (*tile_4row)(const float* a0, const float* a1, const float* a2,
                    const float* a3, const float* packed, std::size_t kcb,
                    std::size_t ncb, float* c0, float* c1, float* c2,
                    float* c3) = nullptr;
};

/// Row primitives of the mean-aggregation SpMM: o += ra, the paired
/// o = (o + ra) + rb used for two neighbours per pass, and o *= s.
struct SpmmMicroKernels {
  void (*row_add)(const float* ra, std::size_t d, float* o) = nullptr;
  void (*row_add2)(const float* ra, const float* rb, std::size_t d,
                   float* o) = nullptr;
  void (*row_scale)(float s, std::size_t d, float* o) = nullptr;
};

/// Vector kernels: y += alpha * x, in-place relu, the batched
/// sigmoid/tanh behind the RNN gate derivation (polynomial exp
/// approximation — see tensor/activation_math.hpp; every ISA variant
/// reproduces the scalar results bit-for-bit, but they are not libm's),
/// and the Condense Unit's thresholded delta behind dense_delta:
///   delta_n — out = |cur - applied| > eps ? cur - applied : +0.0f
///             (NaN lanes dropped), kept lanes copied from cur into
///             applied; returns the kept-lane count.
struct VecKernels {
  void (*axpy)(const float* x, float alpha, std::size_t n,
               float* y) = nullptr;
  void (*relu)(float* x, std::size_t n) = nullptr;
  void (*sigmoid_n)(const float* x, std::size_t n, float* out) = nullptr;
  void (*tanh_n)(const float* x, std::size_t n, float* out) = nullptr;
  std::size_t (*delta_n)(const float* cur, float* applied, float eps,
                         std::size_t n, float* out) = nullptr;
};

class KernelRegistry {
 public:
  /// The process-wide registry, initialised (probe + registration +
  /// TAGNN_KERNEL_ISA) on first call.
  static KernelRegistry& instance();

  // ---- Registration (kernels_scalar.cpp / kernels_avx2.cpp). ----
  void register_gemm(std::string name, Isa isa, int priority,
                     const GemmMicroKernels& k);
  void register_spmm(std::string name, Isa isa, int priority,
                     const SpmmMicroKernels& k);
  void register_vec(std::string name, Isa isa, int priority,
                    const VecKernels& k);

  // ---- Hot-path accessors: tables resolved for the active ISA. ----
  const GemmMicroKernels& gemm() const { return table(active_isa()).gemm; }
  const SpmmMicroKernels& spmm() const { return table(active_isa()).spmm; }
  const VecKernels& vec() const { return table(active_isa()).vec; }
  /// Fixed-cap lookup for tests and frozen scalar reference paths.
  const GemmMicroKernels& gemm(Isa cap) const { return table(cap).gemm; }
  const SpmmMicroKernels& spmm(Isa cap) const { return table(cap).spmm; }
  const VecKernels& vec(Isa cap) const { return table(cap).vec; }

  // ---- Introspection. ----
  /// Name of the variant currently serving `op` ("gemm"/"spmm"/"vec"),
  /// e.g. "avx2"; empty for unknown ops.
  std::string active(std::string_view op) const;
  /// The active ISA cap (after env/CLI overrides).
  Isa active_isa() const;
  /// All (op, active-variant) pairs, op-name sorted — the report JSON's
  /// "kernels" object.
  std::vector<std::pair<std::string, std::string>> active_variants() const;
  /// Registered variant names for one op, best first.
  std::vector<std::string> variants(std::string_view op) const;

  // ---- Overrides. ----
  /// Caps dispatch at `isa_or_auto` ("scalar", "avx2", "auto"/""/
  /// "native" = uncap). False + *error on unknown names or ISAs the
  /// host cannot run. Also refreshes the tagnn.kernels.* gauges.
  bool force_isa(std::string_view isa_or_auto, std::string* error = nullptr);

 private:
  struct OpTables {
    GemmMicroKernels gemm;
    SpmmMicroKernels spmm;
    VecKernels vec;
    // Variant name serving each op at this cap.
    std::string gemm_name, spmm_name, vec_name;
  };

  KernelRegistry();
  void resolve();
  void record_metrics() const;
  const OpTables& table(Isa cap) const {
    return tables_[static_cast<int>(cap)];
  }

  struct Variant {
    std::string name;
    Isa isa = Isa::kScalar;
    int priority = 0;
  };
  std::vector<Variant> gemm_variants_, spmm_variants_, vec_variants_;
  std::vector<GemmMicroKernels> gemm_tables_;
  std::vector<SpmmMicroKernels> spmm_tables_;
  std::vector<VecKernels> vec_tables_;
  OpTables tables_[kNumIsa];
  // Written under a mutex in force_isa; relaxed loads on hot paths (the
  // tables themselves are immutable once resolved).
  std::atomic<int> active_{0};
};

/// Shorthand: kernels::registry().active("gemm").
KernelRegistry& registry();

}  // namespace tagnn::kernels

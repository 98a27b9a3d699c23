// tagnn_lint hot-path purity scope covers this TU, with two documented
// exceptions (docs/STATIC_ANALYSIS.md): everything that allocates or
// locks here runs once at startup (registration, resolve) or on an
// explicit config change (force_isa, variant queries); the dispatch
// path itself only reads the pre-resolved tables through one relaxed
// atomic load.
// tagnn-lint: allow-file(hotpath-alloc) -- registration and variant queries run once at startup or on explicit config change, never on the dispatch path
// tagnn-lint: allow-file(hotpath-lock) -- force_mutex serialises rare force_isa calls; dispatch reads are lock-free
#include "tensor/kernel_registry.hpp"

#include <cstdlib>
#include <mutex>

#include "common/check.hpp"
#include "common/metrics_sink.hpp"
#include "tensor/kernels_registration.hpp"

namespace tagnn::kernels {
namespace {

std::mutex& force_mutex() {
  static std::mutex m;
  return m;
}

}  // namespace

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kAvx2:
      return "avx2";
  }
  return "unknown";
}

bool parse_isa(std::string_view name, Isa& out) {
  if (name == "scalar") {
    out = Isa::kScalar;
    return true;
  }
  if (name == "avx2") {
    out = Isa::kAvx2;
    return true;
  }
  return false;
}

const CpuFeatures& CpuFeatures::host() {
  static const CpuFeatures f = [] {
    CpuFeatures probed;
#if defined(__x86_64__) || defined(__i386__)
    probed.avx2 = __builtin_cpu_supports("avx2") != 0;
    probed.fma = __builtin_cpu_supports("fma") != 0;
#endif
    return probed;
  }();
  return f;
}

KernelRegistry::KernelRegistry() = default;

KernelRegistry& KernelRegistry::instance() {
  static KernelRegistry* reg = [] {
    auto* r = new KernelRegistry();
    register_scalar_kernels(*r);
    register_avx2_kernels(*r);
    r->resolve();
    if (const char* env = std::getenv("TAGNN_KERNEL_ISA");
        env != nullptr && env[0] != '\0') {
      std::string error;
      TAGNN_CHECK_MSG(r->force_isa(env, &error),
                      "TAGNN_KERNEL_ISA: " << error);
    }
    r->record_metrics();
    return r;
  }();
  return *reg;
}

KernelRegistry& registry() { return KernelRegistry::instance(); }

void KernelRegistry::register_gemm(std::string name, Isa isa, int priority,
                                   const GemmMicroKernels& k) {
  gemm_variants_.push_back({std::move(name), isa, priority});
  gemm_tables_.push_back(k);
}

void KernelRegistry::register_spmm(std::string name, Isa isa, int priority,
                                   const SpmmMicroKernels& k) {
  spmm_variants_.push_back({std::move(name), isa, priority});
  spmm_tables_.push_back(k);
}

void KernelRegistry::register_vec(std::string name, Isa isa, int priority,
                                  const VecKernels& k) {
  vec_variants_.push_back({std::move(name), isa, priority});
  vec_tables_.push_back(k);
}

// For every cap level, each op resolves to its highest-priority variant
// whose ISA is host-supported and does not exceed the cap. A scalar
// variant of every op is mandatory, so every cap level is total.
void KernelRegistry::resolve() {
  const CpuFeatures& cpu = CpuFeatures::host();
  auto pick = [&](const std::vector<Variant>& variants, Isa cap) {
    int best = -1;
    for (std::size_t i = 0; i < variants.size(); ++i) {
      const Variant& v = variants[i];
      if (static_cast<int>(v.isa) > static_cast<int>(cap)) continue;
      if (!cpu.supports(v.isa)) continue;
      if (best < 0 || v.priority > variants[best].priority) {
        best = static_cast<int>(i);
      }
    }
    TAGNN_CHECK_MSG(best >= 0, "kernel registry: no eligible variant "
                                   << "(missing scalar registration?)");
    return static_cast<std::size_t>(best);
  };
  for (int c = 0; c < kNumIsa; ++c) {
    const Isa cap = static_cast<Isa>(c);
    OpTables& t = tables_[c];
    const std::size_t g = pick(gemm_variants_, cap);
    t.gemm = gemm_tables_[g];
    t.gemm_name = gemm_variants_[g].name;
    const std::size_t s = pick(spmm_variants_, cap);
    t.spmm = spmm_tables_[s];
    t.spmm_name = spmm_variants_[s].name;
    const std::size_t v = pick(vec_variants_, cap);
    t.vec = vec_tables_[v];
    t.vec_name = vec_variants_[v].name;
  }
  // Default cap: the best ISA the host supports.
  int best = 0;
  for (int c = 0; c < kNumIsa; ++c) {
    if (cpu.supports(static_cast<Isa>(c))) best = c;
  }
  active_.store(best, std::memory_order_release);
}

Isa KernelRegistry::active_isa() const {
  return static_cast<Isa>(active_.load(std::memory_order_relaxed));
}

std::string KernelRegistry::active(std::string_view op) const {
  const OpTables& t = table(active_isa());
  if (op == "gemm") return t.gemm_name;
  if (op == "spmm") return t.spmm_name;
  if (op == "vec") return t.vec_name;
  return {};
}

std::vector<std::pair<std::string, std::string>>
KernelRegistry::active_variants() const {
  const OpTables& t = table(active_isa());
  return {{"gemm", t.gemm_name}, {"spmm", t.spmm_name}, {"vec", t.vec_name}};
}

bool KernelRegistry::force_isa(std::string_view isa_or_auto,
                               std::string* error) {
  int cap;
  if (isa_or_auto.empty() || isa_or_auto == "auto" ||
      isa_or_auto == "native") {
    const CpuFeatures& cpu = CpuFeatures::host();
    cap = 0;
    for (int c = 0; c < kNumIsa; ++c) {
      if (cpu.supports(static_cast<Isa>(c))) cap = c;
    }
  } else {
    Isa parsed;
    if (!parse_isa(isa_or_auto, parsed)) {
      if (error != nullptr) {
        *error = "unknown kernel ISA '" + std::string(isa_or_auto) +
                 "' (expected scalar, avx2, or auto)";
      }
      return false;
    }
    if (!CpuFeatures::host().supports(parsed)) {
      if (error != nullptr) {
        *error = "kernel ISA '" + std::string(isa_or_auto) +
                 "' is not supported by this CPU";
      }
      return false;
    }
    cap = static_cast<int>(parsed);
  }
  {
    const std::lock_guard<std::mutex> lock(force_mutex());
    active_.store(cap, std::memory_order_release);
  }
  record_metrics();
  return true;
}

// Numeric ISA codes per op (the metrics registry holds numbers only;
// the variant *names* go into the report JSON's "kernels" object).
// Published through the MetricsSink indirection: tensor/ sits below
// obs/ in the layer stack (tools/layering.toml) and must not include
// it; the sink is null when no telemetry layer is linked.
void KernelRegistry::record_metrics() const {
  MetricsSink* sink = metrics_sink();
  if (sink == nullptr) return;
  sink->gauge_set("tagnn.kernels.isa",
                  static_cast<double>(static_cast<int>(active_isa())));
  const OpTables& t = table(active_isa());
  auto code = [](const std::string& name) {
    Isa isa;
    return parse_isa(name, isa) ? static_cast<double>(static_cast<int>(isa))
                                : -1.0;
  };
  sink->gauge_set("tagnn.kernels.gemm.isa", code(t.gemm_name));
  sink->gauge_set("tagnn.kernels.spmm.isa", code(t.spmm_name));
  sink->gauge_set("tagnn.kernels.vec.isa", code(t.vec_name));
}

}  // namespace tagnn::kernels

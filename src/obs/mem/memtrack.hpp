// Tracked-allocation layer: per-subsystem byte accounting for the
// memory-hungry structures in the repo (PMA, O-CSR, CSR, deltas,
// feature matrices, tenants).
//
// Three pieces cooperate:
//
//   * `MemRegistry` — a fixed array of cacheline-aligned relaxed-atomic
//     counters, one per `Subsystem`, plus a small table of dynamically
//     named *domains* (e.g. "tenant:t0") for ownership attribution.
//     Hot-path updates are lock-free and TSan-clean; `snapshot()` reads
//     a coherent-enough view for telemetry.
//   * `MemScope` — a thread-local RAII tag. While a scope is alive on
//     the current thread, allocations made through tracked allocators
//     are attributed to the scope's subsystem/domain (subject to the
//     allocator's own tag policy below).
//   * `TrackedAllocator<T>` — a drop-in std allocator that over-
//     allocates a small header recording where the bytes were charged,
//     so the matching free is attributed exactly even after the buffer
//     has been moved/swapped across containers or threads. All
//     instances compare equal, so container moves stay O(1).
//
// Attribution policy at allocate() time:
//   * a *fixed-tag* allocator (tag != kUntagged, prefer_scope=false)
//     always charges its tag — right for structure members like
//     `Pma::keys_`, which should count as PMA bytes no matter which
//     higher-level operation triggered the growth;
//   * a *scope-preferred* allocator charges the innermost live
//     `MemScope`'s subsystem when one is active, falling back to its
//     own tag — right for `Matrix`, whose bytes belong to kFeatures
//     when built as snapshot features and to kTensor otherwise.
//   The domain always comes from the current scope.
//
// Tracking is always on — it is accounting, not sampling — so leak
// invariants (`live == 0` after teardown) are deterministic regardless
// of the telemetry gates. Only *publishing* (gauges, /memory.json)
// goes through the gated telemetry plane.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <new>
#include <string>
#include <string_view>
#include <vector>

namespace tagnn::obs::mem {

/// Where bytes are charged. Keep in sync with `subsystem_name()` and
/// the taxonomy table in docs/OBSERVABILITY.md.
enum class Subsystem : std::uint8_t {
  kUntagged = 0,  // tracked but unattributed (no tag, no scope)
  kCsr,           // CsrGraph offset/neighbor arrays
  kPma,           // packed-memory-array key/value/segment storage
  kOcsr,          // O-CSR feature-row membership table
  kDelta,         // SnapshotDelta edge/feature change lists
  kFeatures,      // per-snapshot vertex feature matrices
  kTensor,        // Matrix buffers outside feature storage (weights,
                  // activations, engine scratch)
  kServe,         // serving-layer tenant state (weights, streams,
                  // request plumbing)
  kBallast,       // CI negative self-test ballast, never used by
                  // product code
  kCount,
};

inline constexpr std::size_t kNumSubsystems =
    static_cast<std::size_t>(Subsystem::kCount);

/// Stable short name ("csr", "pma", ...) used in metric names and JSON.
const char* subsystem_name(Subsystem s) noexcept;

/// Domain 0 is the anonymous/global domain.
using DomainId = std::uint16_t;
inline constexpr DomainId kNoDomain = 0;
inline constexpr std::size_t kMaxDomains = 64;

struct ScopeState {
  Subsystem sub = Subsystem::kUntagged;
  DomainId dom = kNoDomain;
};

/// The innermost live MemScope on this thread (kUntagged/kNoDomain when
/// none). Free function so the allocator template can reach the
/// thread-local without exposing it.
ScopeState current_scope() noexcept;

/// RAII attribution tag, strictly LIFO per thread. Not suitable as a
/// long-lived class member: the tag binds to the *constructing* thread
/// and must unwind in reverse order. For member construction, wrap the
/// initializer in an immediately-invoked lambda holding the scope.
class MemScope {
 public:
  /// Tags the subsystem; the current domain is left in place.
  explicit MemScope(Subsystem sub) noexcept;
  /// Tags both subsystem and domain.
  MemScope(Subsystem sub, DomainId dom) noexcept;
  ~MemScope();

  MemScope(const MemScope&) = delete;
  MemScope& operator=(const MemScope&) = delete;

 private:
  ScopeState prev_;
};

/// Point-in-time per-subsystem stats. `live_bytes` is exact (header-
/// attributed frees); `high_water_bytes` is a CAS-max over live.
struct SubsystemStats {
  std::uint64_t live_bytes = 0;
  std::uint64_t high_water_bytes = 0;
  std::uint64_t allocs = 0;
  std::uint64_t frees = 0;
  std::uint64_t alloc_bytes = 0;  // cumulative: churn = alloc_bytes over time
  std::uint64_t freed_bytes = 0;
};

struct DomainStats {
  std::string name;
  std::uint64_t live_bytes = 0;
  std::uint64_t high_water_bytes = 0;
};

struct MemSnapshot {
  std::array<SubsystemStats, kNumSubsystems> subsystems{};
  std::vector<DomainStats> domains;  // index = DomainId, [0] anonymous

  std::uint64_t total_live_bytes() const noexcept;
  std::uint64_t total_high_water_bytes() const noexcept;
  std::uint64_t total_alloc_bytes() const noexcept;
  std::uint64_t total_allocs() const noexcept;
  std::uint64_t total_frees() const noexcept;
};

class MemRegistry {
 public:
  /// Process-wide registry. Leak-constructed: allocations may be freed
  /// during static destruction, after locals with tracked storage die.
  static MemRegistry& global() noexcept;

  MemRegistry() = default;
  MemRegistry(const MemRegistry&) = delete;
  MemRegistry& operator=(const MemRegistry&) = delete;

  /// Hot-path hooks (relaxed atomics only; TSan-clean, signal-unsafe
  /// only in that they are not called from signal handlers).
  void on_alloc(Subsystem s, DomainId d, std::uint64_t bytes) noexcept;
  void on_free(Subsystem s, DomainId d, std::uint64_t bytes) noexcept;

  /// Find-or-create a named domain slot. Takes a mutex; call at setup
  /// time (e.g. tenant construction), not on hot paths. Returns
  /// kNoDomain when the table is full.
  DomainId domain(std::string_view name);

  MemSnapshot snapshot() const;
  SubsystemStats subsystem_stats(Subsystem s) const noexcept;

  /// Re-arm every high-water mark at the current live value, so the
  /// next reading reports the peak *since this call* (bench_regress
  /// calls this between benches).
  void reset_high_water() noexcept;

  /// Zero all counters and forget named domains. Only valid while no
  /// tracked allocation is live; tests use it for isolation.
  void reset_for_test() noexcept;

 private:
  struct alignas(64) Counter {
    std::atomic<std::uint64_t> live{0};
    std::atomic<std::uint64_t> high_water{0};
    std::atomic<std::uint64_t> allocs{0};
    std::atomic<std::uint64_t> frees{0};
    std::atomic<std::uint64_t> alloc_bytes{0};
    std::atomic<std::uint64_t> freed_bytes{0};
  };
  struct alignas(64) DomainCounter {
    std::atomic<std::uint64_t> live{0};
    std::atomic<std::uint64_t> high_water{0};
  };

  static void raise_high_water(std::atomic<std::uint64_t>& hw,
                               std::uint64_t live) noexcept;

  std::array<Counter, kNumSubsystems> by_subsystem_{};
  std::array<DomainCounter, kMaxDomains> by_domain_{};
  // Domain names are written once under a mutex (memtrack.cpp) and read
  // by snapshot() under the same mutex; count_ publishes the slots.
  std::atomic<std::uint32_t> domain_count_{1};  // slot 0 = anonymous
};

namespace detail {
// Allocation header, written immediately before the returned block so
// the free side knows where the bytes were charged. Padded to
// max_align_t so the caller's alignment is preserved.
struct AllocHeader {
  std::uint64_t bytes;
  std::uint16_t dom;
  std::uint8_t sub;
  std::uint8_t magic;  // sanity check against foreign/double frees
};
inline constexpr std::uint8_t kHeaderMagic = 0xA7;
inline constexpr std::size_t kHeaderSize =
    (sizeof(AllocHeader) + alignof(std::max_align_t) - 1) /
    alignof(std::max_align_t) * alignof(std::max_align_t);

// Non-template slow-ish path shared by every TrackedAllocator<T>
// instantiation; does the over-allocate + header write + registry hook.
void* tracked_allocate(std::size_t bytes, Subsystem tag, bool prefer_scope);
void tracked_deallocate(void* p, std::size_t bytes) noexcept;
}  // namespace detail

/// Drop-in std allocator charging bytes to a subsystem/domain. All
/// instances compare equal (attribution rides in the per-block header),
/// so propagation on move/swap is irrelevant and container moves never
/// reallocate.
template <class T>
class TrackedAllocator {
  static_assert(alignof(T) <= alignof(std::max_align_t),
                "TrackedAllocator does not support over-aligned types");

 public:
  using value_type = T;
  using is_always_equal = std::true_type;

  /// Scope-preferred with no fallback tag: charges the innermost
  /// MemScope, else kUntagged.
  TrackedAllocator() noexcept = default;
  /// Fixed tag: always charges `tag` (domain still from scope).
  explicit TrackedAllocator(Subsystem tag) noexcept
      : tag_(tag), prefer_scope_(false) {}
  /// Scope-preferred with fallback: charges the innermost MemScope when
  /// one is live, else `fallback`.
  TrackedAllocator(Subsystem fallback, bool prefer_scope) noexcept
      : tag_(fallback), prefer_scope_(prefer_scope) {}
  template <class U>
  TrackedAllocator(const TrackedAllocator<U>& o) noexcept
      : tag_(o.tag()), prefer_scope_(o.prefer_scope()) {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(
        detail::tracked_allocate(n * sizeof(T), tag_, prefer_scope_));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    detail::tracked_deallocate(p, n * sizeof(T));
  }

  Subsystem tag() const noexcept { return tag_; }
  bool prefer_scope() const noexcept { return prefer_scope_; }

 private:
  Subsystem tag_ = Subsystem::kUntagged;
  bool prefer_scope_ = true;
};

template <class T, class U>
bool operator==(const TrackedAllocator<T>&, const TrackedAllocator<U>&) {
  return true;
}
template <class T, class U>
bool operator!=(const TrackedAllocator<T>&, const TrackedAllocator<U>&) {
  return false;
}

/// The tracked vector the graph structures use for their storage.
template <class T>
using vec = std::vector<T, TrackedAllocator<T>>;

/// Empty tracked vector with a fixed subsystem tag, for default member
/// initializers: `obs::mem::vec<EdgeId> e = obs::mem::tagged<EdgeId>(...)`.
template <class T>
vec<T> tagged(Subsystem s) {
  return vec<T>(TrackedAllocator<T>(s));
}

/// Process-level truth, read on demand (NOT async-signal-safe: the
/// sampler reads it and pushes the integers into flight-recorder
/// atomics for the crash path).
struct ProcessMemStats {
  bool ok = false;
  std::uint64_t rss_bytes = 0;     // /proc/self/statm resident pages
  std::uint64_t vsize_bytes = 0;   // /proc/self/statm total pages
  std::uint64_t maxrss_bytes = 0;  // getrusage ru_maxrss
};

ProcessMemStats read_process_mem() noexcept;

/// Serialise a `tagnn.mem.v1` document (the /memory.json body).
void write_memory_json(std::ostream& os, const MemSnapshot& snap,
                       const ProcessMemStats& proc);

}  // namespace tagnn::obs::mem

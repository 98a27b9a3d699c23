// Lightweight runtime checking.
//
//  * TAGNN_CHECK / TAGNN_CHECK_MSG — always on. These are API-contract
//    checks, not asserts; failures throw std::logic_error so tests can
//    observe them.
//  * TAGNN_DCHECK / TAGNN_DCHECK_MSG — debug checks, compiled out unless
//    TAGNN_ENABLE_DCHECK is defined (Debug and sanitizer builds; see the
//    TAGNN_DCHECK cache option in the top-level CMakeLists).
//  * TAGNN_CHECK_INVARIANTS(obj) — runs obj.validate() when the runtime
//    invariant level permits. Mutating operations on the dynamic graph
//    structures (CSR, PMA, delta) call this so that debug/sanitizer
//    builds audit every structure after every mutation, while release
//    builds pay nothing.
//
// Invariant levels:
//   0 — all audits off (release default);
//   1 — audits at amortised-cheap points: snapshot deltas, CSR
//       construction, PMA rebalances (dcheck-build default);
//   2 — additionally audits after *every* PMA insert/erase — O(n) per
//       update, for property tests and `tagnn_sim --self-check`.
#pragma once

#include <atomic>
#include <sstream>
#include <stdexcept>
#include <string>

namespace tagnn {
namespace detail {

[[noreturn]] inline void check_failed(const char* expr, const char* file,
                                      int line, const std::string& msg) {
  std::ostringstream os;
  os << "TAGNN_CHECK failed: " << expr << " at " << file << ':' << line;
  if (!msg.empty()) os << " — " << msg;
  throw std::logic_error(os.str());
}

#if defined(TAGNN_ENABLE_DCHECK)
inline constexpr int kDefaultInvariantLevel = 1;
#else
inline constexpr int kDefaultInvariantLevel = 0;
#endif

inline std::atomic<int>& invariant_level_ref() {
  static std::atomic<int> level{kDefaultInvariantLevel};
  return level;
}

}  // namespace detail

/// Current invariant-audit level (0 = off, 1 = per-operation, 2 = deep).
inline int invariant_check_level() {
  return detail::invariant_level_ref().load(std::memory_order_relaxed);
}

/// Sets the invariant-audit level process-wide (thread-safe); returns the
/// previous level. `tagnn_sim --self-check` raises this to 2 at startup.
inline int set_invariant_check_level(int level) {
  return detail::invariant_level_ref().exchange(level,
                                                std::memory_order_relaxed);
}

/// RAII override of the invariant level, for tests.
class ScopedInvariantLevel {
 public:
  explicit ScopedInvariantLevel(int level)
      : prev_(set_invariant_check_level(level)) {}
  ~ScopedInvariantLevel() { set_invariant_check_level(prev_); }
  ScopedInvariantLevel(const ScopedInvariantLevel&) = delete;
  ScopedInvariantLevel& operator=(const ScopedInvariantLevel&) = delete;

 private:
  int prev_;
};

}  // namespace tagnn

#define TAGNN_CHECK(expr)                                                 \
  do {                                                                    \
    if (!(expr))                                                          \
      ::tagnn::detail::check_failed(#expr, __FILE__, __LINE__, {});       \
  } while (0)

#define TAGNN_CHECK_MSG(expr, msg)                                        \
  do {                                                                    \
    if (!(expr)) {                                                        \
      std::ostringstream os_;                                             \
      os_ << msg;                                                         \
      ::tagnn::detail::check_failed(#expr, __FILE__, __LINE__, os_.str());\
    }                                                                     \
  } while (0)

#if defined(TAGNN_ENABLE_DCHECK)
#define TAGNN_DCHECK(expr) TAGNN_CHECK(expr)
#define TAGNN_DCHECK_MSG(expr, msg) TAGNN_CHECK_MSG(expr, msg)
#else
// Compiled out, but kept syntactically alive so the expression stays
// type-checked and variables used only in dchecks don't warn.
#define TAGNN_DCHECK(expr)                    \
  do {                                        \
    if (false) static_cast<void>(expr);       \
  } while (0)
#define TAGNN_DCHECK_MSG(expr, msg)           \
  do {                                        \
    if (false) static_cast<void>(expr);       \
  } while (0)
#endif

/// Audits `obj` (calls .validate()) when the invariant level is >= 1.
#define TAGNN_CHECK_INVARIANTS(obj)                 \
  do {                                              \
    if (::tagnn::invariant_check_level() >= 1) {    \
      (obj).validate();                             \
    }                                               \
  } while (0)

/// Audits `obj` only at the given (deeper) level.
#define TAGNN_CHECK_INVARIANTS_AT(level, obj)           \
  do {                                                  \
    if (::tagnn::invariant_check_level() >= (level)) {  \
      (obj).validate();                                 \
    }                                                   \
  } while (0)

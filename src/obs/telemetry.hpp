// Telemetry master switch: a process-wide atomic toggled by
// set_telemetry_enabled() (and `tagnn_sim --no-telemetry`). Each
// instrumentation site pays one relaxed atomic load per event.
#pragma once

#include <atomic>

namespace tagnn::obs {

namespace detail {

inline std::atomic<bool>& telemetry_flag() {
  static std::atomic<bool> enabled{true};
  return enabled;
}

}  // namespace detail

/// True unless telemetry is switched off.
inline bool telemetry_enabled() {
  return detail::telemetry_flag().load(std::memory_order_relaxed);
}

/// Flips the switch; returns the previous value.
inline bool set_telemetry_enabled(bool on) {
  return detail::telemetry_flag().exchange(on, std::memory_order_relaxed);
}

/// RAII override of the runtime switch, for tests and benchmarks.
class ScopedTelemetryEnabled {
 public:
  explicit ScopedTelemetryEnabled(bool on) : prev_(set_telemetry_enabled(on)) {}
  ~ScopedTelemetryEnabled() { set_telemetry_enabled(prev_); }

  ScopedTelemetryEnabled(const ScopedTelemetryEnabled&) = delete;
  ScopedTelemetryEnabled& operator=(const ScopedTelemetryEnabled&) = delete;

 private:
  bool prev_;
};

}  // namespace tagnn::obs

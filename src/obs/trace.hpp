// Chrome trace_event-format timeline collection.
//
// Two time domains share one trace so a run can be inspected in
// chrome://tracing or https://ui.perfetto.dev as a single file:
//  * host spans — wall-clock, microseconds since collector creation,
//    one track per OS thread under the "host" process (pid 1);
//  * simulated spans — accelerator cycles converted to microseconds at
//    the configured clock, one named track per hardware unit under the
//    "sim" process (pid 2).
//
// All mutation is mutex-guarded (tracing is not a per-MAC hot path; the
// instrumented sites emit per-phase / per-window spans). Instrumentation
// goes through the process-wide active collector: when none is
// installed, ScopedTrace and the emit helpers cost one relaxed atomic
// load.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace tagnn::obs {

/// One argument attached to a trace event. `value` is raw JSON (the
/// caller formats numbers; strings must arrive pre-quoted/escaped —
/// see TraceCollector::quote).
struct TraceArg {
  std::string key;
  std::string value;
};

struct TraceEvent {
  std::string name;
  std::string category;
  double ts_us = 0;
  double dur_us = 0;
  int pid = 0;
  int tid = 0;
  std::vector<TraceArg> args;
};

class TraceCollector {
 public:
  static constexpr int kHostPid = 1;
  static constexpr int kSimPid = 2;

  /// `sim_clock_mhz` converts simulated cycles to timeline microseconds
  /// (1 cycle at 225 MHz ≈ 0.00444 us).
  explicit TraceCollector(double sim_clock_mhz = 225.0);

  /// Wall-clock microseconds since collector creation (steady clock).
  double now_us() const;

  /// Complete ('X') host-time span on the calling thread's track.
  void host_span(std::string name, std::string category, double start_us,
                 double dur_us, std::vector<TraceArg> args = {});

  /// Get-or-create a named simulated-hardware track; returns its tid.
  int sim_track(const std::string& name);

  /// Complete ('X') span on a simulated track, in cycles.
  void sim_span(int track_tid, std::string name, std::string category,
                Cycle start_cycle, Cycle dur_cycles,
                std::vector<TraceArg> args = {});

  double sim_clock_mhz() const { return sim_clock_mhz_; }

  /// JSON object form: {"displayTimeUnit": "ms", "traceEvents": [...]}
  /// with process_name / thread_name metadata so Perfetto names tracks.
  void write_json(std::ostream& os) const;

  /// Quotes + escapes a string for use as a TraceArg value.
  static std::string quote(const std::string& s);

  /// Process-wide collector used by ScopedTrace and the instrumented
  /// subsystems; nullptr (the default) disables collection.
  static TraceCollector* active();
  /// Installs `tc` (nullptr to clear); returns the previous collector.
  static TraceCollector* set_active(TraceCollector* tc);

 private:
  int host_tid_locked(std::thread::id id);

  const double sim_clock_mhz_;
  const std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
  std::unordered_map<std::thread::id, int> host_tids_;
  std::vector<std::pair<std::string, int>> sim_tracks_;  // name -> tid
};

/// RAII wall-clock span against the active collector; no-op when none
/// is installed.
class ScopedTrace {
 public:
  ScopedTrace(const char* name, const char* category);
  ~ScopedTrace();

  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;

 private:
  TraceCollector* tc_;
  const char* name_;
  const char* category_;
  double start_us_ = 0;
};

}  // namespace tagnn::obs

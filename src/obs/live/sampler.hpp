// Background sampler: snapshots the global MetricsRegistry at a fixed
// interval, computing reset-tolerant per-second rates for every counter
// against the previous tick (obs::rate()), and keeps the newest tick in
// one mutex-guarded slot that the HTTP handlers read through latest().
// That slot is the control plane, not a hot path: the engine's hot-path
// writes go to MetricsRegistry's lock-free shards and never touch it.
//
// Each tick is also pre-rendered as one compact tagnn.live.v1 JSON
// line and handed to the crash-time FlightRecorder (when installed),
// which keeps the recent history in its own slots, so a signal handler
// never has to format anything.
//
// The sampler is part of the telemetry plane and sits behind the same
// gate as the rest of it: start() is a no-op when telemetry is switched
// off, so a --no-telemetry run carries zero sampler overhead.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace tagnn::obs::live {

/// One sampler tick: a full registry snapshot plus the per-interval
/// rates derived from the previous tick (reset-clamped, see
/// obs::rate()). `json` is the compact single-line tagnn.live.v1
/// document — pre-rendered so the crash-time flight recorder can dump
/// it from a signal handler without formatting anything.
struct LiveSample {
  std::uint64_t seq = 0;        // 1-based tick number
  std::uint64_t wall_unix_ms = 0;
  double uptime_s = 0;          // monotonic seconds since sampler start
  double interval_s = 0;        // measured gap to the previous tick
  MetricsSnapshot snapshot;
  /// Per-second rates for every counter (by metric name) and every
  /// histogram's event count (name + ".count"); insertion order is the
  /// snapshot's name order.
  std::vector<std::pair<std::string, double>> rates;
  std::string json;             // compact tagnn.live.v1 line (no '\n')
};

class LiveSampler {
 public:
  explicit LiveSampler(int interval_ms = 500);
  ~LiveSampler();

  LiveSampler(const LiveSampler&) = delete;
  LiveSampler& operator=(const LiveSampler&) = delete;

  /// Takes an immediate first sample, then one per interval on a
  /// background thread. No-op (running() stays false) when telemetry is
  /// disabled. Safe to call once.
  void start();

  /// Stops and joins the sampler thread; idempotent.
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Copies the newest tick into *out; false before the first tick.
  bool latest(LiveSample* out) const;
  std::uint64_t ticks() const { return ticks_.load(std::memory_order_relaxed); }
  int interval_ms() const { return interval_ms_; }

  /// Takes one sample synchronously on the caller's thread (used by the
  /// background loop; exposed so tests can drive the sampler without
  /// timing dependence). Updates rate state, replaces the newest tick,
  /// and records the line with the flight recorder.
  void sample_once();

 private:
  void run();
  LiveSample make_sample();

  const int interval_ms_;
  mutable std::mutex latest_mu_;
  LiveSample latest_;      // guarded by latest_mu_; seq 0 = no tick yet
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> ticks_{0};

  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stop_requested_ = false;
  std::thread thread_;

  // Rate state: previous tick's counter totals (and histogram event
  // counts) by name, plus the previous tick's monotonic time. Only the
  // sampler thread (or a test calling sample_once()) touches these.
  std::mutex sample_mu_;  // serialises concurrent sample_once() callers
  std::unordered_map<std::string, std::uint64_t> prev_counts_;
  bool have_prev_ = false;
  double prev_mono_s_ = 0;
  double start_mono_s_ = 0;
  std::uint64_t seq_ = 0;
};

}  // namespace tagnn::obs::live

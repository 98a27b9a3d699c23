// Low-overhead metrics registry: counters, gauges, and log-bucketed
// histograms.
//
// Hot-path updates touch only pre-allocated relaxed atomics in a
// thread-local shard (counters, histograms) or a registry-level atomic
// cell (gauges); no locks are taken. Structural changes — creating a
// metric, registering a new thread's shard, taking a snapshot — go
// through one registry mutex, so the design is clean under
// ThreadSanitizer. snapshot() merges all shards into a stable,
// name-sorted view that can be serialised as JSON or CSV.
//
// Metric naming convention (see docs/OBSERVABILITY.md):
//   tagnn.<subsystem>.<what>[_<unit>]
// e.g. tagnn.pool.tasks_executed, tagnn.accel.mac_occupancy,
//      tagnn.engine.gnn_seconds.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "obs/telemetry.hpp"

namespace tagnn::obs {

enum class MetricKind { kCounter, kGauge, kHistogram };

const char* to_string(MetricKind k);

/// Opaque handle, cheap to copy; resolve once (e.g. in a function-local
/// static) and reuse on hot paths.
struct MetricId {
  std::uint32_t index = 0;
  MetricKind kind = MetricKind::kCounter;
};

/// Histogram buckets are geometric with two sub-buckets per octave
/// (relative width sqrt(2)), covering roughly 6e-8 .. 1e12 — wide enough
/// for seconds, bytes, and cycles alike. Values <= 0 land in bucket 0.
inline constexpr std::size_t kHistogramBuckets = 128;
inline constexpr int kHistogramExpOffset = 24;  // lowest octave is 2^-24

/// Bucket index for a sample (clamped into range).
std::size_t histogram_bucket(double v);
/// Inclusive lower bound of a bucket.
double histogram_bucket_lower(std::size_t idx);

struct HistogramStats {
  std::uint64_t count = 0;
  double sum = 0;
  double min = 0;
  double max = 0;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};

  double mean() const { return count ? sum / static_cast<double>(count) : 0; }
  /// Estimated q-quantile (q in [0, 1]) by linear interpolation inside
  /// the containing bucket; exact min/max at the extremes.
  double quantile(double q) const;
  /// Named percentile accessors (the drift detector and the snapshot
  /// serialisers read exactly these three).
  double p50() const { return quantile(0.50); }
  double p90() const { return quantile(0.90); }
  double p99() const { return quantile(0.99); }
};

struct MetricValue {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  double value = 0;         // counter total or last gauge value
  std::uint64_t u64 = 0;    // exact counter total
  HistogramStats hist;      // kHistogram only
};

struct MetricsSnapshot {
  std::vector<MetricValue> metrics;  // sorted by name

  const MetricValue* find(std::string_view name) const;

  /// Full JSON document: {"schema": "tagnn.metrics.v1", "metrics": {...}}.
  /// Non-finite values are serialised as null (and counted by
  /// obs::json_nonfinite_warnings()), never as bare NaN/Inf tokens.
  void write_json(std::ostream& os) const;
  /// Just the {"name": {...}, ...} metrics object (for embedding).
  void write_metrics_object(std::ostream& os, int indent = 2) const;
  /// Same object with no newlines — for JSONL lines (live snapshots,
  /// flight-recorder slots) where one document must stay on one line.
  void write_metrics_object_compact(std::ostream& os) const;
  /// A "# schema: tagnn.metrics_csv.v2" comment line, then a
  /// name,kind,value,count,sum,min,max,p50,p90,p99 header and rows.
  void write_csv(std::ostream& os) const;
};

class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Get-or-create by name. A name keeps its first kind; asking for the
  /// same name with a different kind throws.
  MetricId counter(std::string_view name);
  MetricId gauge(std::string_view name);
  MetricId histogram(std::string_view name);

  // Hot-path mutators: no-ops when telemetry is disabled.
  void add(MetricId id, std::uint64_t delta = 1);
  void set(MetricId id, double v);
  void set_max(MetricId id, double v);  // monotone high-water gauge
  void record(MetricId id, double v);

  // Name-based one-shot variants (pay a map lookup; fine off hot paths).
  void add(std::string_view name, std::uint64_t delta = 1);
  void set(std::string_view name, double v);
  void set_max(std::string_view name, double v);
  void record(std::string_view name, double v);

  /// Merged view across all shards; safe to call while other threads
  /// keep updating (their in-flight deltas may or may not be included).
  MetricsSnapshot snapshot() const;

  /// Zeroes every metric (names and handles stay valid).
  void reset();

  /// Process-wide registry. Intentionally leaked so worker threads may
  /// touch it during shutdown.
  static MetricsRegistry& global();

 private:
  struct Shard;
  struct GaugeCell;

  Shard& local_shard() const;
  MetricId get_or_create(std::string_view name, MetricKind kind);

  mutable std::mutex mu_;
  std::uint64_t registry_uid_;  // never reused across instances
  std::unordered_map<std::string, MetricId> by_name_;
  std::vector<std::string> counter_names_;
  std::vector<std::string> gauge_names_;
  std::vector<std::string> histogram_names_;
  mutable std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<GaugeCell[]> gauges_;
};

/// Reset-tolerant monotonic-counter delta between two observations of
/// the same counter. A registry reset() makes `cur` jump below `prev`;
/// the delta clamps to 0 instead of wrapping to a huge unsigned value.
inline std::uint64_t counter_delta(std::uint64_t prev, std::uint64_t cur) {
  return cur >= prev ? cur - prev : 0;
}

/// Per-second rate of a reset-tolerant counter delta over `dt_seconds`.
/// Returns 0 when the interval is not positive (first sample, clock
/// glitch) — never negative, never infinite.
inline double rate(std::uint64_t prev, std::uint64_t cur,
                   double dt_seconds) {
  if (!(dt_seconds > 0.0)) return 0.0;
  return static_cast<double>(counter_delta(prev, cur)) / dt_seconds;
}

// Convenience helpers against the global registry. Prefer caching a
// MetricId in a function-local static on hot paths.
inline void count(std::string_view name, std::uint64_t delta = 1) {
  if (telemetry_enabled()) MetricsRegistry::global().add(name, delta);
}
inline void gauge_set(std::string_view name, double v) {
  if (telemetry_enabled()) MetricsRegistry::global().set(name, v);
}
inline void gauge_max(std::string_view name, double v) {
  if (telemetry_enabled()) MetricsRegistry::global().set_max(name, v);
}
inline void record(std::string_view name, double v) {
  if (telemetry_enabled()) MetricsRegistry::global().record(name, v);
}

}  // namespace tagnn::obs

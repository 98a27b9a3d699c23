// Metrics sink: the one-way valve between common/ and the telemetry
// layer.
//
// common/ sits at the bottom of the layer stack (tools/layering.toml)
// and must not include obs/, yet the thread pool and the kernel
// registry want to publish counters and histograms. This interface
// inverts that dependency: common records through an abstract sink that
// starts out null (every event is a cheap no-op), and obs/metrics.cpp
// installs a registry-backed implementation from a static initializer
// whenever the telemetry library is linked into the binary.
//
// Hot-path contract: call sites gate on `sink && sink->enabled()` (two
// relaxed/acquire atomic loads), resolve handles once in a
// function-local static, and then pay one virtual call per event — the
// same cost profile the direct obs::MetricId path had.
#pragma once

#include <cstdint>

namespace tagnn {

class MetricsSink {
 public:
  virtual ~MetricsSink() = default;

  /// False when telemetry is switched off; callers should skip
  /// resolve/record work entirely in that case.
  virtual bool enabled() const = 0;

  // Handle resolution (get-or-create by name; stable for the process
  // lifetime). Resolve once and cache — these take a registry lock.
  virtual std::uint64_t resolve_counter(const char* name) = 0;
  virtual std::uint64_t resolve_gauge(const char* name) = 0;
  virtual std::uint64_t resolve_histogram(const char* name) = 0;

  // Hot-path mutators on resolved handles.
  virtual void add(std::uint64_t handle, std::uint64_t delta) = 0;
  virtual void set(std::uint64_t handle, double v) = 0;
  virtual void set_max(std::uint64_t handle, double v) = 0;
  virtual void record(std::uint64_t handle, double v) = 0;

  /// Name-based gauge write for cold paths (pays a map lookup).
  virtual void gauge_set(const char* name, double v) = 0;
};

/// The installed sink, or nullptr when no telemetry layer is linked.
MetricsSink* metrics_sink() noexcept;

/// Installs (or clears, with nullptr) the process-wide sink. Called by
/// obs/metrics.cpp during static initialization, before any worker
/// thread exists; later calls are allowed but must be externally
/// serialised against in-flight recording.
void install_metrics_sink(MetricsSink* sink) noexcept;

}  // namespace tagnn

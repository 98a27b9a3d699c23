// Shared helpers for the paper-reproduction bench binaries.
//
// Every binary regenerates one table/figure of the paper's evaluation
// and prints the same rows/series. Dataset scale and snapshot count can
// be overridden via TAGNN_SCALE / TAGNN_SNAPSHOTS (see README).
// A metrics snapshot of the run can be written to the path in
// TAGNN_BENCH_METRICS_OUT (schema tagnn.bench.v1, JSON).
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/json_escape.hpp"
#include "common/table.hpp"
#include "graph/datasets.hpp"
#include "nn/engine.hpp"
#include "nn/weights.hpp"
#include "obs/metrics.hpp"
#include "obs/timer.hpp"
#include "tagnn/report.hpp"

namespace tagnn::bench {

inline double scale() {
  if (const char* s = std::getenv("TAGNN_SCALE")) return std::atof(s);
  return 0.3;
}

inline std::size_t snapshots() {
  if (const char* s = std::getenv("TAGNN_SNAPSHOTS")) {
    return static_cast<std::size_t>(std::atoi(s));
  }
  return 8;
}

inline std::vector<std::string> all_datasets() { return datasets::names(); }

inline std::vector<std::string> all_models() {
  return {"CD-GCN", "GC-LSTM", "T-GCN"};
}

struct Workload {
  std::string model;
  std::string dataset;
  DynamicGraph g;
  DgnnWeights w;
};

inline Workload load(const std::string& model, const std::string& dataset) {
  Workload wl;
  wl.model = model;
  wl.dataset = dataset;
  wl.g = datasets::load(dataset, scale(), snapshots());
  wl.w = DgnnWeights::init(ModelConfig::preset(model), wl.g.feature_dim(),
                           /*seed=*/99);
  return wl;
}

/// Writes a metrics snapshot for the bench run to
/// $TAGNN_BENCH_METRICS_OUT (no-op when the variable is unset). Stable
/// envelope: {"schema": "tagnn.bench.v1", "bench": ..., "scale": ...,
/// "snapshots": ..., "metrics": {...}}.
inline void emit_bench_metrics(const std::string& bench_title) {
  const char* path = std::getenv("TAGNN_BENCH_METRICS_OUT");
  if (path == nullptr || *path == '\0') return;
  std::ofstream f(path);
  if (!f) {
    std::cerr << "warning: cannot open TAGNN_BENCH_METRICS_OUT path "
              << path << "\n";
    return;
  }
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
  f << "{\n  \"schema\": \"tagnn.bench.v1\",\n  \"bench\": \""
    << json_escape(bench_title) << "\",\n  \"scale\": " << scale()
    << ",\n  \"snapshots\": " << snapshots() << ",\n  \"metrics\": ";
  snap.write_metrics_object(f, 2);
  f << "\n}\n";
}

/// Registers an atexit hook that snapshots the global registry when the
/// bench terminates; call once from main() after the header.
inline void emit_bench_metrics_at_exit(const std::string& bench_title) {
  static std::string title;  // atexit handlers take no arguments
  title = bench_title;
  std::atexit([] { emit_bench_metrics(title); });
}

inline void print_header(const std::string& title,
                         const std::string& paper_ref) {
  std::cout << "\n==== " << title << " ====\n"
            << "reproduces: " << paper_ref << "\n"
            << "dataset scale: " << scale() << "x of the scaled presets, "
            << snapshots() << " snapshots (see DESIGN.md)\n\n";
  emit_bench_metrics_at_exit(title);
}

/// Geometric mean, for "average speedup" rows like the paper reports.
inline double geomean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : xs) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(xs.size()));
}

/// Seed used for every bench RNG so the measured workloads are
/// reproducible run to run; TAGNN_BENCH_SEED overrides.
inline std::uint64_t rng_seed() {
  if (const char* s = std::getenv("TAGNN_BENCH_SEED")) {
    return static_cast<std::uint64_t>(std::atoll(s));
  }
  return 99;
}

/// Robust wall-time summary of repeated runs: the median filters
/// scheduler noise, the MAD-to-median ratio reports dispersion so a
/// regression gate can tell a noisy measurement from a slow one.
struct TimingStats {
  double median_sec = 0;
  double mad_frac = 0;  // median absolute deviation / median
  int iters = 0;
};

inline double median_of(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

/// Runs `fn` `warmup` times unmeasured (touches code + data caches,
/// spins up the thread pool), then `iters` measured times. `setup` runs
/// untimed before every call, e.g. to restore the state `fn` mutates.
template <typename F, typename S>
TimingStats time_median(F&& fn, int iters, int warmup, S&& setup) {
  for (int i = 0; i < warmup; ++i) {
    setup();
    fn();
  }
  std::vector<double> secs;
  secs.reserve(static_cast<std::size_t>(iters));
  for (int i = 0; i < iters; ++i) {
    setup();
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    secs.push_back(std::chrono::duration<double>(t1 - t0).count());
  }
  TimingStats st;
  st.iters = iters;
  st.median_sec = median_of(secs);
  if (st.median_sec > 0) {
    std::vector<double> dev;
    dev.reserve(secs.size());
    for (double s : secs) dev.push_back(std::fabs(s - st.median_sec));
    st.mad_frac = median_of(dev) / st.median_sec;
  }
  return st;
}

template <typename F>
TimingStats time_median(F&& fn, int iters, int warmup = 1) {
  return time_median(fn, iters, warmup, [] {});
}

}  // namespace tagnn::bench

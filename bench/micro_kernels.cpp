// Google-benchmark microbenchmarks of the hot kernels and storage
// formats: per-snapshot neighbour traversal under CSR and PMA, GCN
// layer forward, RNN cell updates, PMA updates, window classification
// and telemetry counters. The O-CSR is a size model with no arrays to
// walk (graph/ocsr.hpp). These complement the figure benches with real
// wall-clock numbers for the library itself.
#include <benchmark/benchmark.h>

#include "graph/datasets.hpp"
#include "graph/formats.hpp"
#include "nn/gcn.hpp"
#include "nn/rnn.hpp"
#include "obs/metrics.hpp"

namespace tagnn {
namespace {

struct FormatFixtures {
  DynamicGraph g = datasets::load("GT", 0.3, 4);
  Window w{0, 4};
  PmaWindowStore pma{g, w};
};

FormatFixtures& fixtures() {
  static FormatFixtures f;
  return f;
}

void BM_TraverseCsrWindow(benchmark::State& state) {
  auto& f = fixtures();
  for (auto _ : state) {
    std::uint64_t sum = 0;
    for (SnapshotId t = f.w.start; t < f.w.end(); ++t) {
      const CsrGraph& s = f.g.snapshot(t).graph;
      for (VertexId v = 0; v < f.g.num_vertices(); ++v) {
        for (VertexId u : s.neighbors(v)) sum += u;
      }
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_TraverseCsrWindow);

void BM_TraversePmaWindow(benchmark::State& state) {
  auto& f = fixtures();
  for (auto _ : state) {
    std::uint64_t sum = 0;
    for (SnapshotId t = f.w.start; t < f.w.end(); ++t) {
      for (VertexId v = 0; v < f.g.num_vertices(); ++v) {
        f.pma.for_each_neighbor(v, t, [&](VertexId u) { sum += u; });
      }
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_TraversePmaWindow);

void BM_GcnLayerForward(benchmark::State& state) {
  auto& f = fixtures();
  Rng rng(1);
  const Matrix w = Matrix::random(f.g.feature_dim(), 32, rng);
  Matrix out;
  for (auto _ : state) {
    OpCounts counts;
    gcn_layer_forward(f.g.snapshot(0), f.g.snapshot(0).features, w, {}, out,
                      counts);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_GcnLayerForward);

void BM_RnnFullUpdate(benchmark::State& state) {
  ModelConfig cfg = ModelConfig::preset("T-GCN");
  const DgnnWeights w = DgnnWeights::init(cfg, cfg.gnn_hidden, 3);
  const RnnCell cell(w);
  std::vector<float> x(cell.input_dim(), 0.5f), h(cell.hidden()),
      c(cell.cell_state_dim()), cache(cell.cache_dim());
  OpCounts counts;
  for (auto _ : state) {
    cell.full_update(x, h, c, h, c, cache, counts);
    benchmark::DoNotOptimize(h.data());
  }
}
BENCHMARK(BM_RnnFullUpdate);

void BM_RnnDeltaUpdate(benchmark::State& state) {
  ModelConfig cfg = ModelConfig::preset("T-GCN");
  const DgnnWeights w = DgnnWeights::init(cfg, cfg.gnn_hidden, 3);
  const RnnCell cell(w);
  std::vector<float> dx(cell.input_dim(), 0.0f), dh(cell.hidden(), 0.0f),
      h(cell.hidden()), c(cell.cell_state_dim()), cache(cell.cache_dim());
  dx[0] = dx[7] = 0.1f;  // sparse delta
  OpCounts counts;
  for (auto _ : state) {
    cell.delta_update(dx, dh, h, c, h, c, cache, counts);
    benchmark::DoNotOptimize(h.data());
  }
}
BENCHMARK(BM_RnnDeltaUpdate);

void BM_PmaInsert(benchmark::State& state) {
  Rng rng(5);
  for (auto _ : state) {
    state.PauseTiming();
    Pma p(64);
    state.ResumeTiming();
    for (int i = 0; i < 10000; ++i) {
      p.insert_or_merge(rng.next_u64() >> 16, 1);
    }
    benchmark::DoNotOptimize(p.size());
  }
}
BENCHMARK(BM_PmaInsert);

void BM_ClassifyWindow(benchmark::State& state) {
  auto& f = fixtures();
  for (auto _ : state) {
    auto cls = classify_window(f.g, f.w);
    benchmark::DoNotOptimize(cls.clazz.data());
  }
}
BENCHMARK(BM_ClassifyWindow);

// Telemetry overhead: one counter increment and one histogram sample
// per iteration, with the runtime switch on vs. off. The "off" variant
// must measure as a bare branch (nanoseconds), demonstrating that
// instrumented hot paths cost nothing when telemetry is disabled.
void BM_TelemetryCounterEnabled(benchmark::State& state) {
  auto& reg = obs::MetricsRegistry::global();
  const obs::MetricId c = reg.counter("bench.telemetry.counter");
  const obs::MetricId h = reg.histogram("bench.telemetry.hist");
  obs::ScopedTelemetryEnabled on(true);
  for (auto _ : state) {
    reg.add(c);
    reg.record(h, 42.0);
  }
}
BENCHMARK(BM_TelemetryCounterEnabled);

void BM_TelemetryCounterDisabled(benchmark::State& state) {
  auto& reg = obs::MetricsRegistry::global();
  const obs::MetricId c = reg.counter("bench.telemetry.counter");
  const obs::MetricId h = reg.histogram("bench.telemetry.hist");
  obs::ScopedTelemetryEnabled off(false);
  for (auto _ : state) {
    reg.add(c);
    reg.record(h, 42.0);
  }
}
BENCHMARK(BM_TelemetryCounterDisabled);

}  // namespace
}  // namespace tagnn

BENCHMARK_MAIN();

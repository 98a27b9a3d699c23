// Property-based sweeps over datasets, window lengths, and seeds:
// invariants that must hold for any input, exercised via parameterized
// gtest suites.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>

#include "graph/affected_subgraph.hpp"
#include "graph/datasets.hpp"
#include "graph/formats.hpp"
#include "graph/ocsr.hpp"
#include "nn/engine.hpp"
#include "tagnn/dispatcher.hpp"
#include "tensor/ops.hpp"

namespace tagnn {
namespace {

// ---------- classification + subgraph + O-CSR invariants ----------

class WindowSweep
    : public ::testing::TestWithParam<std::tuple<const char*, int>> {};

TEST_P(WindowSweep, ClassificationPartitionsVertices) {
  const auto [ds, k] = GetParam();
  const DynamicGraph g = datasets::load(ds, 0.1, 6);
  const Window w{0, static_cast<SnapshotId>(k)};
  const auto cls = classify_window(g, w);
  EXPECT_EQ(cls.count(VertexClass::kUnaffected) +
                cls.count(VertexClass::kStable) +
                cls.count(VertexClass::kAffected),
            g.num_vertices());
}

TEST_P(WindowSweep, UnaffectedNeighborhoodsAreFeatureStable) {
  const auto [ds, k] = GetParam();
  const DynamicGraph g = datasets::load(ds, 0.1, 6);
  const Window w{0, static_cast<SnapshotId>(k)};
  const auto cls = classify_window(g, w);
  const CsrGraph& s0 = g.snapshot(w.start).graph;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (!cls.is_unaffected(v)) continue;
    EXPECT_TRUE(cls.feature_stable[v]);
    EXPECT_TRUE(cls.topo_stable[v]);
    for (VertexId u : s0.neighbors(v)) {
      EXPECT_TRUE(cls.feature_stable[u]) << "v" << v << " u" << u;
    }
  }
}

TEST_P(WindowSweep, SubgraphIsComplementOfUnaffected) {
  const auto [ds, k] = GetParam();
  const DynamicGraph g = datasets::load(ds, 0.1, 6);
  const Window w{0, static_cast<SnapshotId>(k)};
  const auto cls = classify_window(g, w);
  const auto sub = extract_affected_subgraph(g, w, cls);
  EXPECT_EQ(sub.size(),
            g.num_vertices() - cls.count(VertexClass::kUnaffected));
}

TEST_P(WindowSweep, OcsrRoundTripsEveryEdgeOfEverySubgraphVertex) {
  const auto [ds, k] = GetParam();
  const DynamicGraph g = datasets::load(ds, 0.1, 6);
  const Window w{0, static_cast<SnapshotId>(k)};
  const auto cls = classify_window(g, w);
  const auto sub = extract_affected_subgraph(g, w, cls);
  const OCsr o = OCsr::build(g, w, cls, sub);
  std::size_t expected_edges = 0;
  for (VertexId v : sub.vertices) {
    for (SnapshotId t = w.start; t < w.end(); ++t) {
      expected_edges += g.snapshot(t).graph.degree(v);
    }
  }
  EXPECT_EQ(o.total_edges(), expected_edges);
}

TEST_P(WindowSweep, OcsrNeverLargerThanCsrWindow) {
  const auto [ds, k] = GetParam();
  const DynamicGraph g = datasets::load(ds, 0.1, 6);
  const Window w{0, static_cast<SnapshotId>(k)};
  const auto cls = classify_window(g, w);
  const auto sub = extract_affected_subgraph(g, w, cls);
  const OCsr o = OCsr::build(g, w, cls, sub);
  EXPECT_LE(ocsr_stats(o).feature_bytes,
            csr_window_stats(g, w).feature_bytes);
}

INSTANTIATE_TEST_SUITE_P(
    DatasetsAndWindows, WindowSweep,
    ::testing::Combine(::testing::Values("HP", "GT", "ML", "EP"),
                       ::testing::Values(2, 3, 4)));

// ---------- engine exactness across window sizes ----------

class ExactnessWindowSweep : public ::testing::TestWithParam<int> {};

TEST_P(ExactnessWindowSweep, GnnReuseIsLosslessForAnyWindow) {
  const DynamicGraph g = datasets::load("GT", 0.12, 7);
  const DgnnWeights w =
      DgnnWeights::init(ModelConfig::preset("T-GCN"), g.feature_dim(), 3);
  const EngineResult ref = ReferenceEngine().run(g, w);
  EngineOptions opts;
  opts.cell_skip = false;
  opts.window_size = static_cast<SnapshotId>(GetParam());
  const EngineResult con = ConcurrentEngine(opts).run(g, w);
  for (std::size_t t = 0; t < ref.outputs.size(); ++t) {
    ASSERT_EQ(max_abs_diff(ref.outputs[t], con.outputs[t]), 0.0f)
        << "window " << GetParam() << " snapshot " << t;
  }
}

INSTANTIATE_TEST_SUITE_P(Windows, ExactnessWindowSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 9));

// ---------- dispatcher properties ----------

class DispatcherSeeds : public ::testing::TestWithParam<std::uint64_t> {};

// Comparison-sort LPT: the makespan the dispatcher's counting sort must
// reproduce exactly.
Cycle sorted_lpt_makespan(std::vector<DispatchTask> tasks,
                          std::size_t dcus) {
  std::sort(tasks.begin(), tasks.end(),
            [](const DispatchTask& a, const DispatchTask& b) {
              return a.cycles > b.cycles;
            });
  std::vector<Cycle> load(dcus, 0);
  for (const DispatchTask& t : tasks) {
    *std::min_element(load.begin(), load.end()) += t.cycles;
  }
  return *std::max_element(load.begin(), load.end());
}

TEST_P(DispatcherSeeds, MakespanBounds) {
  Rng rng(GetParam());
  // Unit scale exercises the counting sort; the wide scale pushes task
  // cycles past its range and onto the comparison-sort fallback.
  for (const Cycle scale : {Cycle{1}, Cycle{1} << 24}) {
    std::vector<DispatchTask> tasks;
    Cycle total = 0, longest = 0;
    const std::size_t n = 200 + rng.next_below(300);
    for (std::size_t i = 0; i < n; ++i) {
      const Cycle c = (1 + rng.next_below(100)) * scale;
      tasks.push_back({static_cast<VertexId>(i), c});
      total += c;
      longest = std::max(longest, c);
    }
    for (const std::size_t dcus : {1u, 4u, 16u}) {
      for (const bool balanced : {true, false}) {
        const DispatchResult r = dispatch_tasks(tasks, dcus, balanced);
        // Lower bounds: the longest task, and perfect division.
        EXPECT_GE(r.makespan, longest);
        EXPECT_GE(r.makespan, (total + dcus - 1) / dcus);
        EXPECT_LE(r.makespan, total);
        EXPECT_EQ(r.total_work, total);
        if (balanced) {
          EXPECT_EQ(r.makespan, sorted_lpt_makespan(tasks, dcus))
              << dcus << " DCUs, scale " << scale;
          // LPT guarantee: within 4/3 of the optimum (≥ ceil(total/m)).
          const double lower = std::max<double>(
              static_cast<double>(longest),
              static_cast<double>(total) / static_cast<double>(dcus));
          EXPECT_LE(static_cast<double>(r.makespan),
                    4.0 / 3.0 * lower + static_cast<double>(scale));
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DispatcherSeeds,
                         ::testing::Values(1, 2, 3, 4, 5));

// ---------- similarity-policy monotonicity on the real engine ----------

TEST(Properties, MoreAggressiveSkippingNeverDoesMoreRnnWork) {
  const DynamicGraph g = datasets::load("GT", 0.12, 6);
  const DgnnWeights w =
      DgnnWeights::init(ModelConfig::preset("T-GCN"), g.feature_dim(), 3);
  std::size_t prev_full = SIZE_MAX;
  for (const float te : {0.999f, 0.9f, 0.5f, 0.0f}) {
    EngineOptions opts;
    opts.thresholds = {-0.5f, te};
    opts.store_outputs = false;
    const EngineResult r = ConcurrentEngine(opts).run(g, w);
    const std::size_t nonskip = r.rnn_counts.rnn_full + r.rnn_counts.rnn_delta;
    EXPECT_LE(nonskip, prev_full);
    prev_full = nonskip;
  }
}

TEST(Properties, WindowOneHasNoGnnReuse) {
  const DynamicGraph g = datasets::load("GT", 0.12, 5);
  const DgnnWeights w =
      DgnnWeights::init(ModelConfig::preset("T-GCN"), g.feature_dim(), 3);
  EngineOptions opts;
  opts.window_size = 1;
  opts.store_outputs = false;
  const EngineResult r = ConcurrentEngine(opts).run(g, w);
  EXPECT_EQ(r.gnn_counts.gnn_vertex_reused, 0u);
}

TEST(Properties, ReusePlusComputeCoversExactlyAllVertexSnapshots) {
  // Reuse is not monotone in the window size (unaffected-across-K
  // shrinks with K while the reuse span grows), but reuse + compute
  // must always partition the (vertex, snapshot, layer) work space.
  const DynamicGraph g = datasets::load("HP", 0.12, 8);
  const DgnnWeights w =
      DgnnWeights::init(ModelConfig::preset("T-GCN"), g.feature_dim(), 3);
  for (const SnapshotId k : {1u, 2u, 4u}) {
    EngineOptions opts;
    opts.window_size = k;
    opts.store_outputs = false;
    opts.cell_skip = false;
    const EngineResult r = ConcurrentEngine(opts).run(g, w);
    const std::size_t total_vertex_snapshots =
        g.num_vertices() * g.num_snapshots() * w.config.gnn_layers;
    EXPECT_EQ(r.gnn_counts.gnn_vertex_reused +
                  r.gnn_counts.gnn_vertex_computed,
              total_vertex_snapshots)
        << "window " << k;
    if (k > 1) {
      EXPECT_GT(r.gnn_counts.gnn_vertex_reused, 0u);
    }
  }
}

// ---------- generator statistics across seeds ----------

class GeneratorSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GeneratorSeeds, EdgeCountStaysNearTarget) {
  GeneratorConfig cfg;
  cfg.num_vertices = 800;
  cfg.target_edges = 8000;
  cfg.num_snapshots = 6;
  cfg.seed = GetParam();
  const DynamicGraph g = generate_dynamic_graph(cfg);
  for (SnapshotId t = 0; t < g.num_snapshots(); ++t) {
    const double e = static_cast<double>(g.snapshot(t).graph.num_edges());
    EXPECT_GT(e, 0.5 * cfg.target_edges) << "t=" << t;
    EXPECT_LT(e, 1.6 * cfg.target_edges) << "t=" << t;
  }
}

TEST_P(GeneratorSeeds, PresenceConsistentWithEdges) {
  GeneratorConfig cfg;
  cfg.num_vertices = 400;
  cfg.target_edges = 3000;
  cfg.num_snapshots = 6;
  cfg.vertex_churn = 0.02;  // force presence churn
  cfg.seed = GetParam();
  const DynamicGraph g = generate_dynamic_graph(cfg);
  EXPECT_NO_THROW(g.validate());
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorSeeds,
                         ::testing::Values(1, 7, 42, 1234));

}  // namespace
}  // namespace tagnn

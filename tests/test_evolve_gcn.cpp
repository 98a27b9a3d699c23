// Tests for the EvolveGCN-O weight-evolving model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "graph/datasets.hpp"
#include "graph/classify.hpp"
#include "nn/evolve_gcn.hpp"
#include "tensor/ops.hpp"

namespace tagnn {
namespace {

TEST(EvolveGcn, InitShapes) {
  const EvolveGcnWeights w = EvolveGcnWeights::init(2, 24, 16, 1);
  ASSERT_EQ(w.gnn0.size(), 2u);
  EXPECT_EQ(w.gnn0[0].rows(), 24u);
  EXPECT_EQ(w.gnn0[0].cols(), 16u);
  EXPECT_EQ(w.gnn0[1].rows(), 16u);
  ASSERT_EQ(w.gru.size(), 2u);
  EXPECT_EQ(w.gru[0].uz.rows(), 24u);
  EXPECT_EQ(w.gru[1].uz.rows(), 16u);
}

TEST(EvolveGcn, WeightsActuallyEvolve) {
  const EvolveGcnWeights w = EvolveGcnWeights::init(1, 12, 8, 2);
  OpCounts c;
  const Matrix w1 = evolve_weights(w.gnn0[0], w.gru[0], c);
  EXPECT_GT(max_abs_diff(w.gnn0[0], w1), 0.0f);
  EXPECT_GT(c.macs, 0.0);
  // Bounded evolution: the GRU gate keeps W' between W and tanh-bounded
  // candidates.
  for (std::size_t i = 0; i < w1.size(); ++i) {
    EXPECT_LT(std::fabs(w1.data()[i]), 2.0f);
  }
}

TEST(EvolveGcn, EvolutionIsDeterministic) {
  const EvolveGcnWeights w = EvolveGcnWeights::init(1, 12, 8, 2);
  OpCounts c;
  const Matrix a = evolve_weights(w.gnn0[0], w.gru[0], c);
  const Matrix b = evolve_weights(w.gnn0[0], w.gru[0], c);
  EXPECT_EQ(max_abs_diff(a, b), 0.0f);
}

TEST(EvolveGcn, RepeatedEvolutionStaysBounded) {
  const EvolveGcnWeights w = EvolveGcnWeights::init(1, 12, 8, 3);
  OpCounts c;
  Matrix cur = w.gnn0[0];
  for (int i = 0; i < 50; ++i) cur = evolve_weights(cur, w.gru[0], c);
  for (std::size_t i = 0; i < cur.size(); ++i) {
    ASSERT_TRUE(std::isfinite(cur.data()[i]));
    ASSERT_LT(std::fabs(cur.data()[i]), 3.0f);
  }
}

TEST(EvolveGcn, RunProducesPerSnapshotOutputs) {
  const DynamicGraph g = datasets::load("GT", 0.1, 5);
  const EvolveGcnWeights w =
      EvolveGcnWeights::init(2, g.feature_dim(), 16, 4);
  const EngineResult r = run_evolve_gcn(g, w);
  ASSERT_EQ(r.outputs.size(), 5u);
  EXPECT_EQ(r.outputs[0].cols(), 16u);
  EXPECT_GT(r.gnn_counts.macs, 0.0);
  EXPECT_GT(r.rnn_counts.macs, 0.0);  // weight-evolution cost
}

TEST(EvolveGcn, OutputsDifferAcrossSnapshotsEvenForUnaffectedVertices) {
  // The temporal component lives in the weights, so even a vertex whose
  // features and neighbourhood never change gets new outputs — the
  // reason cross-snapshot output reuse does not apply to this model.
  const DynamicGraph g = datasets::load("GT", 0.1, 4);
  const auto cls = classify_window(g, {0, 4});
  const EvolveGcnWeights w =
      EvolveGcnWeights::init(2, g.feature_dim(), 16, 4);
  const EngineResult r = run_evolve_gcn(g, w);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (!cls.is_unaffected(v)) continue;
    const auto a = r.outputs[0].row(v);
    const auto b = r.outputs[1].row(v);
    EXPECT_FALSE(std::equal(a.begin(), a.end(), b.begin(),
                            [](float x, float y) {
                              return std::fabs(x - y) <= 1e-7f;
                            }));
    break;  // one witness suffices
  }
}

TEST(EvolveGcn, FeatureReuseCutsTrafficNotResults) {
  const DynamicGraph g = datasets::load("HP", 0.1, 5);
  const EvolveGcnWeights w =
      EvolveGcnWeights::init(2, g.feature_dim(), 16, 4);
  const EngineResult with = run_evolve_gcn(g, w, true);
  const EngineResult without = run_evolve_gcn(g, w, false);
  EXPECT_LT(with.gnn_counts.feature_bytes,
            without.gnn_counts.feature_bytes);
  for (std::size_t t = 0; t < with.outputs.size(); ++t) {
    EXPECT_EQ(max_abs_diff(with.outputs[t], without.outputs[t]), 0.0f);
  }
}

TEST(EvolveGcn, DimensionMismatchThrows) {
  const DynamicGraph g = datasets::load("GT", 0.1, 3);
  const EvolveGcnWeights w =
      EvolveGcnWeights::init(2, g.feature_dim() + 1, 16, 4);
  EXPECT_THROW(run_evolve_gcn(g, w), std::logic_error);
}

}  // namespace
}  // namespace tagnn

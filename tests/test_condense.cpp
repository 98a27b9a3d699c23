// Tests for the Condense Unit's thresholded delta (dense_delta) and the
// RNN delta path it feeds.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "nn/condense.hpp"
#include "nn/rnn.hpp"

namespace tagnn {
namespace {

TEST(Condense, KeepsOnlyNonZeroLanes) {
  const std::vector<float> x{0.0f, 1.5f, 0.0f, -2.0f, 0.0f};
  std::vector<float> applied(x.size(), 0.0f), out(x.size(), 9.0f);
  EXPECT_EQ(dense_delta(x, applied, 0.0f, out), 2u);
  EXPECT_EQ(out, x);      // zero lanes are written as zeros, not skipped
  EXPECT_EQ(applied, x);  // kept lanes folded in, zero lanes already equal
}

TEST(Condense, ThresholdDropsSmallLanes) {
  // A lane is kept only when |d| is strictly above the threshold.
  const std::vector<float> x{0.05f, 0.5f, -0.01f, 0.25f, -0.25f};
  std::vector<float> applied(x.size(), 0.0f), out(x.size());
  EXPECT_EQ(dense_delta(x, applied, 0.25f, out), 1u);
  EXPECT_EQ(out, (std::vector<float>{0.0f, 0.5f, 0.0f, 0.0f, 0.0f}));
  EXPECT_EQ(applied, (std::vector<float>{0.0f, 0.5f, 0.0f, 0.0f, 0.0f}));
}

TEST(Condense, DeltaFoldsIntoApplied) {
  const std::vector<float> cur{1.0f, 2.0f, 3.0f};
  std::vector<float> applied{1.0f, 1.5f, 3.001f};
  std::vector<float> out(cur.size());
  ASSERT_EQ(dense_delta(cur, applied, 0.01f, out), 1u);  // only lane 1 moved
  EXPECT_FLOAT_EQ(out[1], 0.5f);
  EXPECT_FLOAT_EQ(applied[1], 2.0f);    // folded
  EXPECT_FLOAT_EQ(applied[2], 3.001f);  // below threshold: untouched
  // Nothing is left to send until cur drifts past the threshold again.
  EXPECT_EQ(dense_delta(cur, applied, 0.01f, out), 0u);
  EXPECT_EQ(out, (std::vector<float>{0.0f, 0.0f, 0.0f}));
}

TEST(Condense, EmptyVector) {
  std::vector<float> none;
  EXPECT_EQ(dense_delta(none, none, 0.0f, none), 0u);
}

TEST(Condense, NanAndNegativeZeroDeltasDropAsPositiveZero) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<float> cur{nan, -0.0f, 1.0f};
  std::vector<float> applied{0.0f, 0.0f, 0.0f}, out(cur.size(), 7.0f);
  EXPECT_EQ(dense_delta(cur, applied, 0.0f, out), 1u);
  EXPECT_EQ(out[0], 0.0f);
  EXPECT_FALSE(std::signbit(out[0]));
  EXPECT_EQ(applied[0], 0.0f);  // a NaN never reaches the applied state
  EXPECT_EQ(out[1], 0.0f);
  EXPECT_FALSE(std::signbit(out[1]));
  EXPECT_EQ(out[2], 1.0f);
}

TEST(Condense, MismatchedSpansThrow) {
  const std::vector<float> cur(4, 1.0f);
  std::vector<float> applied(4, 0.0f), short_out(3), short_applied(3);
  EXPECT_THROW(dense_delta(cur, applied, 0.0f, short_out), std::logic_error);
  EXPECT_THROW(dense_delta(cur, short_applied, 0.0f, applied),
               std::logic_error);
}

// The delta path folds dx * Wx + dh * Wh into the cached gate
// pre-activations, which are linear in (x, h). So from a full update at
// (x0, h0), the Condense Unit's deltas to (x1, h1) must land on the cache
// and outputs a full update at (x1, h1) computes, and charge MACs for
// the kept lanes only.
class CondensedDeltaUpdate : public ::testing::TestWithParam<RnnKind> {};

TEST_P(CondensedDeltaUpdate, MatchesFullRecomputeAndChargesKeptLanes) {
  ModelConfig cfg;
  cfg.name = "test";
  cfg.gnn_hidden = 10;
  cfg.rnn = GetParam();
  cfg.rnn_hidden = 7;
  const DgnnWeights w = DgnnWeights::init(cfg, 10, 3);
  const RnnCell cell(w);

  Rng rng(4);
  std::vector<float> x0(cell.input_dim()), h0(cell.hidden()),
      c0(cell.cell_state_dim());
  for (auto& e : x0) e = rng.normal();
  for (auto& e : h0) e = 0.5f * rng.normal();
  for (auto& e : c0) e = 0.5f * rng.normal();
  // Every other input lane and two hidden lanes move; the rest must be
  // dropped.
  std::vector<float> x1 = x0, h1 = h0;
  std::size_t moved = 0;
  for (std::size_t i = 0; i < x1.size(); i += 2, ++moved) {
    x1[i] += (i % 4 == 0 ? 0.25f : -0.5f);
  }
  h1[1] += 0.125f;
  h1[5] -= 0.25f;
  moved += 2;

  std::vector<float> h_delta(cell.hidden()), c_delta(cell.cell_state_dim()),
      cache_delta(cell.cache_dim());
  OpCounts full_counts;
  cell.full_update(x0, h0, c0, h_delta, c_delta, cache_delta, full_counts);

  std::vector<float> x_applied = x0, h_applied = h0;
  std::vector<float> dx(cell.input_dim()), dh(cell.hidden());
  const std::size_t kept = dense_delta(x1, x_applied, 0.0f, dx) +
                           dense_delta(h1, h_applied, 0.0f, dh);
  EXPECT_EQ(kept, moved);
  EXPECT_EQ(x_applied, x1);
  EXPECT_EQ(h_applied, h1);

  OpCounts delta_counts;
  cell.delta_update(dx, dh, h1, c0, h_delta, c_delta, cache_delta,
                    delta_counts);

  std::vector<float> h_full(cell.hidden()), c_full(cell.cell_state_dim()),
      cache_full(cell.cache_dim());
  cell.full_update(x1, h1, c0, h_full, c_full, cache_full, full_counts);
  for (std::size_t j = 0; j < cache_full.size(); ++j) {
    EXPECT_NEAR(cache_delta[j], cache_full[j], 1e-4f) << "cache j=" << j;
  }
  for (std::size_t j = 0; j < h_full.size(); ++j) {
    EXPECT_NEAR(h_delta[j], h_full[j], 1e-4f) << "h j=" << j;
  }
  for (std::size_t j = 0; j < c_full.size(); ++j) {
    EXPECT_NEAR(c_delta[j], c_full[j], 1e-4f) << "c j=" << j;
  }
  const auto gate_width = static_cast<double>(w.gates() * cell.hidden());
  EXPECT_DOUBLE_EQ(delta_counts.delta_nnz, static_cast<double>(kept));
  EXPECT_DOUBLE_EQ(delta_counts.macs, static_cast<double>(kept) * gate_width);
  EXPECT_EQ(delta_counts.rnn_delta, 1u);
}

INSTANTIATE_TEST_SUITE_P(Kinds, CondensedDeltaUpdate,
                         ::testing::Values(RnnKind::kLstm, RnnKind::kGru));

}  // namespace
}  // namespace tagnn

// Tests for the simulator substrate: pipeline model, HBM model and energy
// model.
#include <gtest/gtest.h>

#include <stdexcept>

#include "sim/energy.hpp"
#include "sim/memory.hpp"
#include "sim/pipeline.hpp"

namespace tagnn {
namespace {

TEST(Pipeline, SingleItemLatencyIsSumOfStages) {
  PipelineSim p({"a", "b", "c"});
  p.feed({2, 3, 4});
  EXPECT_EQ(p.total_cycles(), 9u);
  EXPECT_EQ(p.items_fed(), 1u);
}

TEST(Pipeline, SteadyStateThroughputBoundedByBottleneck) {
  PipelineSim p({"a", "b", "c"});
  const int n = 100;
  for (int i = 0; i < n; ++i) p.feed({1, 5, 1});
  // Warmup (1+5+1) + (n-1) * bottleneck(5).
  EXPECT_EQ(p.total_cycles(), 7u + (n - 1) * 5u);
  EXPECT_GT(static_cast<double>(p.stage_busy(1)) / p.total_cycles(), 0.95);
}

TEST(Pipeline, UniformStagesFullyOverlap) {
  PipelineSim p({"a", "b"});
  for (int i = 0; i < 50; ++i) p.feed({1, 1});
  EXPECT_EQ(p.total_cycles(), 2u + 49u);
}

TEST(Pipeline, ZeroLatencyClampedToOne) {
  PipelineSim p({"a"});
  p.feed({0});
  EXPECT_EQ(p.total_cycles(), 1u);
}

TEST(Pipeline, VariableLatenciesAccumulate) {
  PipelineSim p({"a", "b"});
  p.feed({1, 10});
  p.feed({1, 1});   // short item waits behind the long one in stage b
  EXPECT_EQ(p.total_cycles(), 12u);
}

TEST(Pipeline, ArityMismatchThrows) {
  PipelineSim p({"a", "b"});
  EXPECT_THROW(p.feed({1}), std::logic_error);
}

TEST(Pipeline, StageBusyTracked) {
  PipelineSim p({"a", "b"});
  p.feed({2, 3});
  p.feed({2, 3});
  EXPECT_EQ(p.stage_busy(0), 4u);
  EXPECT_EQ(p.stage_busy(1), 6u);
  EXPECT_EQ(p.stage_name(1), "b");
}

TEST(Hbm, SequentialFasterThanRandom) {
  HbmModel m;
  const Cycle seq = m.transfer(1e6, 1.0);
  HbmModel m2;
  const Cycle rnd = m2.transfer(1e6, 0.0);
  EXPECT_LT(seq, rnd);
  // Random efficiency 0.5 => about twice the cycles (latency aside).
  EXPECT_NEAR(static_cast<double>(rnd) / static_cast<double>(seq), 2.0,
              0.1);
}

TEST(Hbm, BandwidthMatchesConfig) {
  HbmConfig cfg;
  cfg.bandwidth_gbps = 256.0;
  cfg.clock_mhz = 225.0;
  HbmModel m(cfg);
  // 256e9 / 225e6 = ~1137.8 bytes per cycle at full sequential rate.
  EXPECT_NEAR(m.bytes_per_cycle(1.0), 1137.8, 1.0);
}

TEST(Hbm, AccumulatesTotals) {
  HbmModel m;
  m.transfer(1000.0, 1.0);
  m.transfer(2000.0, 0.5);
  EXPECT_DOUBLE_EQ(m.total_bytes(), 3000.0);
  EXPECT_GT(m.total_cycles(), 0u);
}

TEST(Hbm, ZeroBytesIsFree) {
  HbmModel m;
  EXPECT_EQ(m.transfer(0.0, 1.0), 0u);
}

TEST(Hbm, TransactionsCountOnlyNonEmptyTransfers) {
  HbmModel m;
  const Cycle a = m.transfer(1000.0, 1.0);
  EXPECT_EQ(m.transfer(0.0, 1.0), 0u);
  EXPECT_EQ(m.transfer(-64.0, 0.0), 0u);
  const Cycle b = m.transfer(2000.0, 0.5);
  EXPECT_EQ(m.transactions(), 2u);
  EXPECT_DOUBLE_EQ(m.total_bytes(), 3000.0);
  EXPECT_EQ(m.total_cycles(), a + b);
}

TEST(Hbm, LatencyChargedOncePerBurstTrain) {
  // Every transfer is striped over the whole stack, so splitting one
  // transfer in two costs the same streaming time plus one more latency.
  const HbmConfig cfg;
  const double latency_cycles = cfg.latency_ns * 1e-9 * cfg.clock_mhz * 1e6;
  const double bytes = 1 << 20;
  HbmModel one(cfg), two(cfg);
  const Cycle whole = one.transfer(2 * bytes, 1.0);
  const Cycle split = two.transfer(bytes, 1.0) + two.transfer(bytes, 1.0);
  EXPECT_NEAR(static_cast<double>(whole),
              2 * bytes / one.peak_bytes_per_cycle() + latency_cycles, 1.0);
  EXPECT_NEAR(static_cast<double>(split - whole), latency_cycles, 2.0);
  EXPECT_EQ(two.transactions(), 2u);
}

TEST(Hbm, SequentialFractionOutsideUnitRangeThrows) {
  HbmModel m;
  EXPECT_THROW(m.bytes_per_cycle(-0.1), std::logic_error);
  EXPECT_THROW(m.bytes_per_cycle(1.5), std::logic_error);
  EXPECT_THROW(m.transfer(100.0, 2.0), std::logic_error);
  // A rejected transfer is not accounted.
  EXPECT_EQ(m.transactions(), 0u);
  EXPECT_DOUBLE_EQ(m.total_bytes(), 0.0);
  EXPECT_EQ(m.total_cycles(), 0u);
}

TEST(Energy, ComponentsScaleWithCounts) {
  EnergyModel em;
  OpCounts c;
  c.macs = 1e9;
  c.feature_bytes = 1e8;
  const EnergyBreakdown e1 = em.energy(c, 0.1);
  c.macs = 2e9;
  const EnergyBreakdown e2 = em.energy(c, 0.1);
  EXPECT_NEAR(e2.compute_j, 2.0 * e1.compute_j, 1e-9);
  EXPECT_DOUBLE_EQ(e1.dram_j, e2.dram_j);
  EXPECT_GT(e1.static_j, 0.0);
  EXPECT_GT(e1.total(), e1.compute_j);
}

TEST(Energy, DramDominatesComputePerByte) {
  // Sanity on constants: moving a byte costs much more than a MAC.
  EnergyConfig cfg;
  EXPECT_GT(cfg.pj_per_dram_byte, 10 * cfg.pj_per_mac);
}

}  // namespace
}  // namespace tagnn

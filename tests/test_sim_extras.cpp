// Tests for the ping-pong buffer model and the text trace format.
#include <gtest/gtest.h>

#include <sstream>

#include "graph/datasets.hpp"
#include "graph/trace_io.hpp"
#include "sim/buffer.hpp"

namespace tagnn {
namespace {

TEST(PingPong, ProduceSwapConsumeFlow) {
  PingPongBuffer b(100);
  EXPECT_EQ(b.produce(60), 60u);
  EXPECT_EQ(b.fill_level(), 60u);
  EXPECT_EQ(b.consume(10), 0u);  // nothing drained yet
  EXPECT_EQ(b.consumer_stalls(), 1u);
  b.swap();
  EXPECT_EQ(b.drain_level(), 60u);
  EXPECT_EQ(b.fill_level(), 0u);
  EXPECT_EQ(b.consume(40), 40u);
  EXPECT_EQ(b.consume(40), 20u);  // only 20 left
  EXPECT_EQ(b.consumer_stalls(), 2u);
}

TEST(PingPong, ProducerStallsWhenBankFull) {
  PingPongBuffer b(50);
  EXPECT_EQ(b.produce(50), 50u);
  EXPECT_EQ(b.produce(10), 0u);
  EXPECT_EQ(b.producer_stalls(), 1u);
}

TEST(PingPong, OverrunCountedOnEarlySwap) {
  PingPongBuffer b(50);
  b.produce(30);
  b.swap();
  b.produce(20);
  b.swap();  // drain bank still held 30 unconsumed bytes
  EXPECT_EQ(b.overruns(), 1u);
  EXPECT_EQ(b.swaps(), 2u);
}

TEST(PingPong, AccountingTotals) {
  PingPongBuffer b(100);
  b.produce(70);
  b.swap();
  b.consume(70);
  EXPECT_EQ(b.total_produced(), 70u);
  EXPECT_EQ(b.total_consumed(), 70u);
}

TEST(TextTrace, RoundTripPreservesGraph) {
  const DynamicGraph g = datasets::load("GT", 0.08, 3);
  std::stringstream ss;
  write_text_trace(g, ss);
  const DynamicGraph h = read_text_trace(ss, "roundtrip");
  ASSERT_EQ(h.num_vertices(), g.num_vertices());
  ASSERT_EQ(h.num_snapshots(), g.num_snapshots());
  ASSERT_EQ(h.feature_dim(), g.feature_dim());
  for (SnapshotId t = 0; t < g.num_snapshots(); ++t) {
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      ASSERT_TRUE(g.snapshot(t).graph.same_neighbors(v, h.snapshot(t).graph));
      EXPECT_EQ(g.snapshot(t).present[v], h.snapshot(t).present[v]);
      // Text floats round-trip through decimal: compare loosely.
      const auto a = g.snapshot(t).features.row(v);
      const auto b = h.snapshot(t).features.row(v);
      for (std::size_t j = 0; j < a.size(); ++j) {
        ASSERT_NEAR(a[j], b[j], 1e-4f);
      }
    }
  }
}

TEST(TextTrace, HandWrittenInputParses) {
  const char* text = R"(# tiny example
3 2 2
snapshot 0
edges 2
0 1
1 0
absent 0
features
1.0 2.0
3.0 4.0
5.0 6.0
snapshot 1
edges 2
0 1
1 0
absent 1 2
features
1.0 2.0
3.0 4.0
0.0 0.0
)";
  std::stringstream ss(text);
  const DynamicGraph g = read_text_trace(ss, "tiny");
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_TRUE(g.snapshot(0).present[2]);
  EXPECT_FALSE(g.snapshot(1).present[2]);
  EXPECT_FLOAT_EQ(g.snapshot(0).features(1, 1), 4.0f);
}

TEST(TextTrace, MalformedInputsRejected) {
  auto parse = [](const std::string& text) {
    std::stringstream ss(text);
    return read_text_trace(ss, "bad");
  };
  EXPECT_THROW(parse(""), std::runtime_error);
  EXPECT_THROW(parse("3 2 1\nsnapshot 1\n"), std::runtime_error);
  EXPECT_THROW(parse("3 2 1\nsnapshot 0\nedges 1\n0 9\n"),
               std::runtime_error);
  EXPECT_THROW(parse("3 2 1\nwrongkeyword 0\n"), std::runtime_error);
  // Edge to an absent vertex -> inconsistent.
  EXPECT_THROW(parse("2 1 1\nsnapshot 0\nedges 2\n0 1\n1 0\nabsent 1 1\n"
                     "features\n1\n0\n"),
               std::runtime_error);
}

}  // namespace
}  // namespace tagnn

// Unit tests for src/common: RNG determinism/statistics, thread pool,
// table printer, check macros.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <sstream>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "common/types.hpp"

namespace tagnn {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowIsInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.next_below(17), 17u);
  }
  EXPECT_EQ(r.next_below(1), 0u);
}

TEST(Rng, NextBelowCoversAllResidues) {
  Rng r(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(r.next_below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(3);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double x = r.next_double();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, NormalHasUnitVarianceRoughly) {
  Rng r(5);
  double s = 0.0, s2 = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal();
    s += x;
    s2 += x * x;
  }
  EXPECT_NEAR(s / n, 0.0, 0.03);
  EXPECT_NEAR(s2 / n, 1.0, 0.05);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  std::vector<std::atomic<int>> hits(10000);
  parallel_for(
      0, hits.size(),
      [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) hits[i]++;
      },
      /*serial_threshold=*/0);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  bool called = false;
  parallel_for(5, 5, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ExceptionPropagates) {
  EXPECT_THROW(
      ThreadPool::global().parallel_for(
          0, 1000,
          [&](std::size_t b, std::size_t) {
            if (b == 0) throw std::runtime_error("boom");
          }),
      std::runtime_error);
}

TEST(ThreadPool, ReusableAfterException) {
  try {
    ThreadPool::global().parallel_for(
        0, 100, [&](std::size_t, std::size_t) { throw 42; });
  } catch (...) {
  }
  std::atomic<int> n{0};
  ThreadPool::global().parallel_for(
      0, 100, [&](std::size_t b, std::size_t e) {
        n += static_cast<int>(e - b);
      });
  EXPECT_EQ(n.load(), 100);
}

TEST(Check, ThrowsLogicError) {
  EXPECT_THROW(TAGNN_CHECK(1 == 2), std::logic_error);
  EXPECT_NO_THROW(TAGNN_CHECK(1 == 1));
  EXPECT_THROW(TAGNN_CHECK_MSG(false, "context " << 42), std::logic_error);
}

TEST(Table, PrintsAlignedRows) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22.5"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("22.5"), std::string::npos);
  EXPECT_NE(s.find("|---"), std::string::npos);
}

TEST(Table, RejectsWrongArity) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::logic_error);
}

TEST(Types, VertexClassNames) {
  EXPECT_STREQ(to_string(VertexClass::kUnaffected), "unaffected");
  EXPECT_STREQ(to_string(VertexClass::kStable), "stable");
  EXPECT_STREQ(to_string(VertexClass::kAffected), "affected");
}

}  // namespace
}  // namespace tagnn

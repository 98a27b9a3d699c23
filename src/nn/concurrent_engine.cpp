// Topology-aware concurrent DGNN inference (TaGNN-S, paper section 3).
//
// Per window of K snapshots:
//   1. classify vertices, derive per-layer unchanged sets, extract the
//      affected subgraph and build the O-CSR  (overhead phase);
//   2. charge each stored feature row once, weights once per window
//      (load phase);
//   3. run the GCN stack over all K snapshots, computing unchanged
//      vertices only at the window's first snapshot and copying their
//      rows elsewhere, and charge its feature traffic in closed form
//      from the plan's set sizes (gnn phase);
//   4. run the RNN with similarity-aware cell skipping (rnn phase).
//
// With opts_.pipeline_windows the overhead phase of window i+1 runs on
// a helper thread while window i's GNN/RNN compute proceeds — the
// software analogue of the accelerator's MSDL prefetch. Every overhead
// artefact is a pure function of the immutable snapshots, so the
// pipelined schedule is byte-identical to the serial one. The caller's
// plan hook runs right after each plan is built, on the same thread.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <future>
#include <vector>

#include "common/thread_pool.hpp"
#include "nn/engine.hpp"
#include "nn/engine_detail.hpp"
#include "nn/gcn.hpp"
#include "nn/similarity.hpp"
#include "obs/metrics.hpp"
#include "obs/timer.hpp"
#include "tensor/ops.hpp"

namespace tagnn {
namespace {

// One window's plan and the seconds spent building it (the overhead
// phase; the hook's own time is not charged).
struct TimedPlan {
  WindowPlan plan;
  double seconds = 0;
};

TimedPlan plan_window(const DynamicGraph& g, Window w, bool gnn_reuse,
                      std::size_t layers, const PlanHook& on_plan) {
  TimedPlan tp;
  {
    // Accumulates into the window-local tp.seconds (not the shared
    // result struct): in pipelined mode this runs on a helper thread.
    obs::ScopedTimer timer(&tp.seconds, "concurrent.overhead", "engine",
                           "tagnn.engine.overhead_seconds");
    tp.plan = build_window_plan(g, w, gnn_reuse, layers);
  }
  if (on_plan) on_plan(tp.plan);
  return tp;
}

// Charges the feature traffic of one GCN layer over one snapshot under
// the O-CSR streaming model (paper section 3.1): a row whose layer input
// is window-stable is fetched once per window, any other row once per
// snapshot; repeated gathers hit the on-chip buffer. So the window's
// first snapshot fetches all n rows, and a later one fetches exactly the
// `unstable` rows: the affected vertices at layer 0, the previous layer's
// changed rows deeper. Both sets lie inside the rows the layer recomputes
// (an affected vertex is never unaffected, and unchanged sets shrink with
// depth), so each is gathered; the stable rows it gathers are already on
// chip. A fetch of a row equal to the previous snapshot's (`prev_in`,
// null unless counting redundancy past the first snapshot) is the
// residual redundancy TaGNN-S still pays (Fig. 8(b)); counting it is the
// only pass that visits rows.
void charge_concurrent_traffic(bool first_snapshot,
                               const std::vector<VertexId>& unstable,
                               const Matrix& in, const Matrix* prev_in,
                               OpCounts& counts) {
  const std::size_t fetched = first_snapshot ? in.rows() : unstable.size();
  std::atomic<std::size_t> redundant{0};
  if (prev_in != nullptr) {
    parallel_for(0, unstable.size(), [&](std::size_t i0, std::size_t i1) {
      std::size_t same = 0;
      for (std::size_t i = i0; i < i1; ++i) {
        same += detail::rows_equal(in, *prev_in, unstable[i]);
      }
      redundant += same;
    }, /*serial_threshold=*/1024);
  }
  const auto d_in = static_cast<double>(in.cols());
  counts.feature_bytes += static_cast<double>(fetched) * d_in * 4.0;
  counts.redundant_bytes += static_cast<double>(redundant.load()) * d_in * 4.0;
}

}  // namespace

EngineResult ConcurrentEngine::run(const DynamicGraph& g,
                                   const DgnnWeights& weights,
                                   StreamCarry* carry,
                                   const PlanHook& on_plan) const {
  const VertexId n = g.num_vertices();
  TAGNN_CHECK(g.feature_dim() == weights.gnn.front().rows());
  TAGNN_CHECK(opts_.window_size >= 1);
  const std::size_t layers = weights.config.gnn_layers;
  const RnnCell cell(weights);
  detail::RnnState st(n, cell);

  EngineResult res;
  // Last input / hidden state actually folded into each vertex's gate
  // cache: skips leave them untouched, so a later delta update applies
  // the *total* drift since the last applied values, not just the last
  // step's.
  Matrix z_applied(n, weights.config.gnn_hidden);
  Matrix h_applied(n, cell.hidden());
  SnapshotId global_offset = 0;
  if (carry != nullptr && carry->h.rows() == n) {
    st.h = carry->h;
    st.c = carry->c;
    st.cache = carry->cache;
    z_applied = carry->z_applied;
    h_applied = carry->h_applied;
    global_offset = carry->global_offset;
  }

  const auto total = static_cast<SnapshotId>(g.num_snapshots());
  GcnScratch scratch;
  RnnBatchScratch rnn_ws;
  // Scratch reused across windows so the steady-state loop allocates
  // nothing per (layer, snapshot): layer activations, the affected rows,
  // and the RNN mode/partition buffers.
  std::vector<Matrix> cur(opts_.window_size), nxt(opts_.window_size);
  std::vector<VertexId> affected;
  constexpr std::uint8_t kAbsent = 255;
  std::vector<std::uint8_t> mode(n);
  std::vector<VertexId> full_rows, delta_rows;
  std::future<TimedPlan> prefetched;
  for (SnapshotId start = 0; start < total; start += opts_.window_size) {
    const Window w{start,
                   std::min<SnapshotId>(opts_.window_size, total - start)};
    const std::size_t k = w.length;

    // ---- Overhead phase: the window plan. ----
    // Window 0 (and every window in serial mode) is planned inline; the
    // pipelined schedule finds its plan already prefetched and
    // immediately kicks off the next window's on a helper thread. That
    // launch follows get(), so hook calls never overlap.
    const TimedPlan tp =
        prefetched.valid()
            ? prefetched.get()
            : plan_window(g, w, opts_.gnn_reuse, layers, on_plan);
    res.seconds.overhead += tp.seconds;
    if (opts_.pipeline_windows && start + opts_.window_size < total) {
      const SnapshotId ns = start + opts_.window_size;
      const Window nw{ns, std::min<SnapshotId>(opts_.window_size, total - ns)};
      prefetched = std::async(std::launch::async,
                              [&g, nw, reuse = opts_.gnn_reuse, layers,
                               &on_plan] {
                                return plan_window(g, nw, reuse, layers,
                                                   on_plan);
                              });
    }
    const WindowPlan& plan = tp.plan;
    const WindowClassification& cls = plan.cls;
    const OCsr& ocsr = plan.ocsr;

    // ---- Load phase: stored rows once, weights once per window. ----
    obs::ScopedTimer t_load(&res.seconds.load, "concurrent.load", "engine",
                            "tagnn.engine.load_seconds");
    res.load_counts.structure_bytes += ocsr.structure_bytes();
    res.load_counts.feature_bytes += ocsr.feature_bytes();
    // Unaffected vertices outside the O-CSR still stream in once.
    res.load_counts.feature_bytes +=
        static_cast<double>(plan.outside_rows) * g.feature_dim() * 4.0;
    res.load_counts.weight_bytes +=
        static_cast<double>(weights.gnn_param_count() +
                            weights.rnn_param_count()) *
        4.0;
    t_load.stop();

    // ---- GNN phase over all K snapshots, layer by layer. ----
    obs::ScopedTimer t_gnn(&res.seconds.gnn, "concurrent.gnn", "engine",
                           "tagnn.engine.gnn_seconds");
    // Layer 0's unstable rows (see charge_concurrent_traffic).
    affected.clear();
    if (opts_.gnn_reuse) {
      for (const VertexId v : plan.changed_rows[0]) {
        if (!cls.feature_stable[v]) affected.push_back(v);
      }
    }
    for (std::size_t l = 0; l < layers; ++l) {
      for (std::size_t tk = 0; tk < k; ++tk) {
        const SnapshotId t = w.start + static_cast<SnapshotId>(tk);
        const Snapshot& snap = g.snapshot(t);
        const Matrix& in = (l == 0) ? snap.features : cur[tk];
        GcnForwardOptions fwd;
        fwd.scratch = &scratch;
        fwd.relu_output = l + 1 < layers;
        // With reuse on, traffic is charged by the O-CSR streaming
        // model below instead of per-gather inside the layer.
        fwd.count_feature_traffic = !opts_.gnn_reuse;
        if (opts_.gnn_reuse && tk > 0) fwd.compute_rows = &plan.changed_rows[l];
        gcn_layer_forward(snap, in, weights.gnn[l], fwd, nxt[tk],
                          res.gnn_counts);
        if (!opts_.gnn_reuse) continue;
        if (tk > 0) {
          // Copy window-unchanged rows from the first snapshot.
          const std::vector<VertexId>& keep = plan.unchanged_rows[l];
          parallel_for(0, keep.size(), [&](std::size_t r0, std::size_t r1) {
            for (std::size_t i = r0; i < r1; ++i) {
              copy(nxt[0].row(keep[i]), nxt[tk].row(keep[i]));
            }
          }, /*serial_threshold=*/512);
          res.gnn_counts.gnn_vertex_reused += keep.size();
        }
        const Matrix* prev_in = nullptr;
        if (opts_.count_redundancy && tk > 0) {
          prev_in = (l == 0) ? &g.snapshot(t - 1).features : &cur[tk - 1];
        }
        charge_concurrent_traffic(
            tk == 0, l == 0 ? affected : plan.changed_rows[l - 1], in,
            prev_in, res.gnn_counts);
      }
      std::swap(cur, nxt);
    }
    t_gnn.stop();

    // ---- RNN phase with similarity-aware cell skipping. ----
    obs::ScopedTimer t_rnn(&res.seconds.rnn, "concurrent.rnn", "engine",
                           "tagnn.engine.rnn_seconds");
    for (std::size_t tk = 0; tk < k; ++tk) {
      const SnapshotId t = w.start + static_cast<SnapshotId>(tk);
      const Snapshot& snap = g.snapshot(t);
      const Matrix& z = cur[tk];
      const SnapshotId gt = global_offset + t;  // stream-global time
      const Snapshot* prev_snap = t > 0 ? &g.snapshot(t - 1) : nullptr;
      if (prev_snap == nullptr && carry != nullptr &&
          carry->prev_snapshot.has_value()) {
        prev_snap = &*carry->prev_snapshot;
      }
      TAGNN_CHECK_MSG(gt == 0 || prev_snap != nullptr,
                      "stream carry missing the previous snapshot");

      // Pass 1 — decide each vertex's mode in parallel. The decision
      // only reads the vertex's own rows (z_applied/z), and h is not
      // written until the update passes below. A full update folds the
      // whole input and the pre-update h, so a full row's applied
      // values are set right after its decision, by the same thread.
      detail::parallel_vertices(
          n,
          [&](VertexId v, OpCounts& counts) {
            if (!snap.present[v]) {
              mode[v] = kAbsent;
              return;
            }
            CellMode m = CellMode::kFull;
            if (opts_.cell_skip && gt >= opts_.skip_warmup_snapshots &&
                gt > 0) {
              if (tk > 0 && cls.is_unaffected(v)) {
                // Identical inputs and stable neighbourhood: θ = 1.
                m = CellMode::kSkip;
              } else {
                // Feature similarity is measured against the last input
                // actually folded into the cell (z_applied), not merely
                // the previous snapshot: otherwise a slow sequence of
                // below-threshold changes could be skipped forever and
                // the drift would never be corrected. The topological
                // term still compares consecutive snapshots per the
                // paper's formula.
                const float theta = similarity_score(
                    z_applied.row(v), z.row(v),
                    prev_snap->graph.neighbors(v), snap.graph.neighbors(v),
                    cls.clazz, &counts);
                m = decide_cell_mode(theta, opts_.thresholds);
              }
            }
            if (m == CellMode::kFull) {
              copy(st.h.row(v), h_applied.row(v));
              copy(z.row(v), z_applied.row(v));
            }
            mode[v] = static_cast<std::uint8_t>(m);
          },
          res.rnn_counts);

      // Pass 2 — partition into the delta and full row lists.
      full_rows.clear();
      delta_rows.clear();
      std::size_t skips = 0;
      for (VertexId v = 0; v < n; ++v) {
        if (mode[v] == kAbsent) continue;
        switch (static_cast<CellMode>(mode[v])) {
          case CellMode::kSkip:
            ++skips;
            break;
          case CellMode::kDelta:
            delta_rows.push_back(v);
            break;
          case CellMode::kFull:
            full_rows.push_back(v);
            break;
        }
      }
      res.rnn_counts.rnn_skip += skips;

      // Pass 3 — delta updates, one pass over 4-row tiles: the Condense
      // Unit thresholds the input and recurrent drift vs the last
      // applied values, and the tile's gate products, cache fold and
      // outputs follow while its rows are in cache.
      cell.delta_update_rows(z, delta_rows, kDeltaEps, z_applied,
                             h_applied, st.h, st.c, st.cache,
                             res.rnn_counts);

      // Pass 4 — full updates, the same tiled pass without the deltas.
      cell.full_update_rows(z, full_rows, st.h, st.c, st.cache, rnn_ws,
                            res.rnn_counts);

      if (opts_.store_outputs) res.outputs.push_back(st.h);
      ++res.snapshots_processed;
    }
    t_rnn.stop();
  }
  res.final_hidden = st.h;
  if (carry != nullptr) {
    carry->h = st.h;
    carry->c = st.c;
    carry->cache = st.cache;
    carry->z_applied = z_applied;
    carry->h_applied = h_applied;
    carry->global_offset =
        global_offset + static_cast<SnapshotId>(g.num_snapshots());
    carry->prev_snapshot =
        g.snapshot(static_cast<SnapshotId>(g.num_snapshots()) - 1);
  }
  // Roofline numerator/denominator for post-hoc placement of the
  // software engine (obs/analyze/roofline.hpp).
  const OpCounts totals = res.total_counts();
  obs::gauge_set("tagnn.engine.roofline.macs", totals.macs);
  obs::gauge_set("tagnn.engine.roofline.bytes", totals.total_bytes());
  return res;
}

}  // namespace tagnn

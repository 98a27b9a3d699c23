// Topology-aware concurrent DGNN inference (TaGNN-S, paper section 3).
//
// Per window of K snapshots:
//   1. classify vertices, derive per-layer unchanged sets, extract the
//      affected subgraph and build the O-CSR  (overhead phase);
//   2. charge each stored feature row once, weights once per window
//      (load phase);
//   3. run the GCN stack over all K snapshots, computing unchanged
//      vertices only at the window's first snapshot and copying their
//      rows elsewhere (gnn phase);
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
#include <bit>
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
// the O-CSR streaming model: rows whose content is window-stable at
// this layer are fetched once per window (window_seen), other rows once
// per snapshot; repeated gathers hit the on-chip buffer. A per-snapshot
// charge of a row equal to the previous snapshot's (`prev_in`) is the
// residual redundancy TaGNN-S still pays (Fig. 8(b)).
//
// The touched set — the gathering rows (all rows when `compute_rows` is
// null) and their neighbours — is marked in one bitmap per slice of the
// row list, so no two threads write the same word. A second pass over
// vertex words ORs the slices and counts with per-chunk integer sums;
// each window_seen byte is written only by the chunk that owns its
// word. The counts are set sizes, so they do not depend on the slicing
// or the thread count.
struct TrafficScratch {
  std::vector<std::uint8_t> window_seen;  // per layer, one byte per row
  std::vector<std::uint64_t> slices;      // kMaxSlices bitmaps of n bits
};

constexpr std::size_t kMaxSlices = 8;
constexpr std::size_t kRowsPerSlice = 256;

void charge_concurrent_traffic(const Snapshot& snap,
                               const std::vector<VertexId>* compute_rows,
                               const std::vector<bool>& stable_row,
                               const Matrix& in, const Matrix* prev_in,
                               TrafficScratch& ts, OpCounts& counts) {
  const VertexId n = snap.num_vertices();
  const std::size_t words = (static_cast<std::size_t>(n) + 63) / 64;
  std::size_t slices = 0;
  if (compute_rows != nullptr) {
    const std::vector<VertexId>& rows = *compute_rows;
    slices = std::clamp<std::size_t>(rows.size() / kRowsPerSlice, 1,
                                     kMaxSlices);
    ts.slices.resize(kMaxSlices * words);
    parallel_for(0, slices, [&](std::size_t s0, std::size_t s1) {
      for (std::size_t s = s0; s < s1; ++s) {
        std::uint64_t* bits = ts.slices.data() + s * words;
        std::fill(bits, bits + words, 0);
        auto mark = [bits](VertexId u) { bits[u / 64] |= 1ull << (u % 64); };
        const std::size_t i1 = rows.size() * (s + 1) / slices;
        for (std::size_t i = rows.size() * s / slices; i < i1; ++i) {
          mark(rows[i]);
          for (const VertexId u : snap.graph.neighbors(rows[i])) mark(u);
        }
      }
    }, /*serial_threshold=*/1);
  }
  std::atomic<std::size_t> fetched{0}, redundant{0};
  parallel_for(0, words, [&](std::size_t w0, std::size_t w1) {
    std::size_t rows = 0, same = 0;
    for (std::size_t w = w0; w < w1; ++w) {
      std::uint64_t touched = compute_rows == nullptr ? ~0ull : 0;
      for (std::size_t s = 0; s < slices; ++s) {
        touched |= ts.slices[s * words + w];
      }
      if (w + 1 == words && n % 64 != 0) touched &= (1ull << (n % 64)) - 1;
      for (; touched != 0; touched &= touched - 1) {
        const auto u =
            static_cast<VertexId>(w * 64 + std::countr_zero(touched));
        if (stable_row[u]) {
          if (ts.window_seen[u] == 0) {
            ts.window_seen[u] = 1;
            ++rows;
          }
        } else {
          ++rows;
          if (prev_in != nullptr && detail::rows_equal(in, *prev_in, u)) {
            ++same;
          }
        }
      }
    }
    fetched += rows;
    redundant += same;
  }, /*serial_threshold=*/16);
  const auto d_in = static_cast<double>(in.cols());
  counts.feature_bytes += static_cast<double>(fetched.load()) * d_in * 4.0;
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
  // nothing per (layer, snapshot): layer activations, traffic bitmaps,
  // and the RNN mode/partition buffers.
  std::vector<Matrix> cur(opts_.window_size), nxt(opts_.window_size);
  TrafficScratch traffic;
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
    for (std::size_t l = 0; l < layers; ++l) {
      traffic.window_seen.assign(n, 0);
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
        const std::vector<VertexId>* compute_rows = nullptr;
        if (opts_.gnn_reuse && tk > 0) {
          compute_rows = &plan.changed_rows[l];
          fwd.compute_rows = compute_rows;
        }
        gcn_layer_forward(snap, in, weights.gnn[l], fwd, nxt[tk],
                          res.gnn_counts);
        if (opts_.gnn_reuse && tk > 0) {
          // Copy window-unchanged rows from the first snapshot.
          const std::vector<VertexId>& keep = plan.unchanged_rows[l];
          parallel_for(0, keep.size(), [&](std::size_t r0, std::size_t r1) {
            for (std::size_t i = r0; i < r1; ++i) {
              copy(nxt[0].row(keep[i]), nxt[tk].row(keep[i]));
            }
          }, /*serial_threshold=*/512);
          res.gnn_counts.gnn_vertex_reused += keep.size();
        }
        if (opts_.gnn_reuse) {
          const std::vector<bool>& stable_row =
              (l == 0) ? cls.feature_stable : plan.unchanged[l - 1];
          const Matrix* prev_in = nullptr;
          if (opts_.count_redundancy && tk > 0) {
            prev_in = (l == 0) ? &g.snapshot(t - 1).features : &cur[tk - 1];
          }
          charge_concurrent_traffic(snap, compute_rows, stable_row, in,
                                    prev_in, traffic, res.gnn_counts);
        }
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

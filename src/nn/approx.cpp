#include "nn/approx.hpp"

#include <cmath>
#include <vector>

#include "common/check.hpp"
#include "obs/timer.hpp"
#include "nn/engine_detail.hpp"
#include "nn/gcn.hpp"
#include "tensor/ops.hpp"

namespace tagnn {
namespace {

// TaGNN-AM: fixed-point fractional bits (values snapped to 2^-bits).
constexpr int kAlstmBits = 2;
// TaGNN-AS: relative error magnitude of the approximate multipliers.
constexpr float kAtlasError = 0.08f;

float quantize(float x, float step) { return std::round(x / step) * step; }

// Shared skeleton: exact GNN stack per snapshot, then a per-vertex RNN
// update hook.
template <typename UpdateFn>
EngineResult run_skeleton(const DynamicGraph& g, const DgnnWeights& weights,
                          const RnnCell& cell, UpdateFn&& update) {
  const VertexId n = g.num_vertices();
  TAGNN_CHECK(g.feature_dim() == weights.gnn.front().rows());
  const std::size_t layers = weights.config.gnn_layers;
  detail::RnnState st(n, cell);

  EngineResult res;
  Matrix a, b;
  for (SnapshotId t = 0; t < g.num_snapshots(); ++t) {
    const Snapshot& snap = g.snapshot(t);
    obs::ScopedTimer t_gnn(&res.seconds.gnn);
    const Matrix* in = &snap.features;
    for (std::size_t l = 0; l < layers; ++l) {
      Matrix& out = (l % 2 == 0) ? a : b;
      GcnForwardOptions opts;
      opts.relu_output = l + 1 < layers;
      gcn_layer_forward(snap, *in, weights.gnn[l], opts, out,
                        res.gnn_counts);
      in = &out;
    }
    const Matrix& z = *in;
    t_gnn.stop();

    obs::ScopedTimer t_rnn(&res.seconds.rnn);
    detail::parallel_vertices(
        n,
        [&](VertexId v, OpCounts& counts) {
          if (!snap.present[v]) return;
          update(t, v, z, st, counts);
        },
        res.rnn_counts);
    t_rnn.stop();

    res.outputs.push_back(st.h);
    ++res.snapshots_processed;
  }
  res.final_hidden = st.h;
  return res;
}

}  // namespace

const char* to_string(ApproxMethod m) {
  switch (m) {
    case ApproxMethod::kBaseline:
      return "Baseline";
    case ApproxMethod::kTagnn:
      return "TaGNN";
    case ApproxMethod::kDeltaRnn:
      return "TaGNN-DR";
    case ApproxMethod::kAlstm:
      return "TaGNN-AM";
    case ApproxMethod::kAtlas:
      return "TaGNN-AS";
  }
  return "?";
}

EngineResult run_with_approximation(const DynamicGraph& g,
                                    const DgnnWeights& weights,
                                    ApproxMethod method,
                                    const ApproxOptions& opts) {
  switch (method) {
    case ApproxMethod::kBaseline: {
      return ReferenceEngine().run(g, weights);
    }
    case ApproxMethod::kTagnn: {
      // The paper's window of 4 and default thresholds.
      return ConcurrentEngine(EngineOptions{}).run(g, weights);
    }
    case ApproxMethod::kDeltaRnn: {
      // DeltaRNN state: last input / hidden values actually applied.
      const RnnCell cell(weights);
      Matrix x_used(g.num_vertices(), weights.config.gnn_hidden);
      Matrix h_used(g.num_vertices(), weights.config.rnn_hidden);
      auto update = [&, th = opts.delta_threshold](
                        SnapshotId t, VertexId v, const Matrix& z,
                        detail::RnnState& st, OpCounts& counts) {
        if (t == 0) {
          copy(st.h.row(v), h_used.row(v));
          cell.full_update(z.row(v), st.h.row(v), st.c.row(v), st.h.row(v),
                           st.c.row(v), st.cache.row(v), counts);
          copy(z.row(v), x_used.row(v));
          return;
        }
        // Per-element thresholded delta vs the last applied input.
        std::vector<float> dx(z.cols());
        auto xu = x_used.row(v);
        const auto zc = z.row(v);
        std::size_t nnz = 0;
        for (std::size_t j = 0; j < dx.size(); ++j) {
          const float d = zc[j] - xu[j];
          if (d > th || d < -th) {
            dx[j] = d;
            xu[j] += d;  // DeltaRNN folds the applied delta into state
            ++nnz;
          } else {
            dx[j] = 0.0f;
          }
        }
        // Recurrent delta, same threshold (the published DeltaRNN
        // thresholds both the input and the state).
        std::vector<float> dh(cell.hidden());
        auto hu = h_used.row(v);
        const auto hc = st.h.row(v);
        std::size_t hnnz = 0;
        for (std::size_t j = 0; j < dh.size(); ++j) {
          const float d = hc[j] - hu[j];
          if (d > th || d < -th) {
            dh[j] = d;
            hu[j] += d;
            ++hnnz;
          } else {
            dh[j] = 0.0f;
          }
        }
        if (nnz + hnnz == 0) {
          ++counts.rnn_skip;  // nothing changed enough: reuse h
          return;
        }
        cell.delta_update(dx, dh, st.h.row(v), st.c.row(v), st.h.row(v),
                          st.c.row(v), st.cache.row(v), counts);
      };
      return run_skeleton(g, weights, cell, update);
    }
    case ApproxMethod::kAlstm: {
      const RnnCell cell(weights);
      const float step = std::ldexp(1.0f, -kAlstmBits);
      auto update = [&](SnapshotId, VertexId v, const Matrix& z,
                        detail::RnnState& st, OpCounts& counts) {
        // Quantise inputs and recurrent state to the coarse grid before
        // the (otherwise exact) update — the net effect of approximate
        // fixed-point gates.
        std::vector<float> xq(z.cols());
        const auto zc = z.row(v);
        for (std::size_t j = 0; j < xq.size(); ++j) {
          xq[j] = quantize(zc[j], step);
        }
        auto h = st.h.row(v);
        for (auto& e : h) e = quantize(e, step);
        cell.full_update(xq, h, st.c.row(v), h, st.c.row(v),
                         st.cache.row(v), counts);
      };
      return run_skeleton(g, weights, cell, update);
    }
    case ApproxMethod::kAtlas: {
      // Deterministic multiplier error pattern baked into the RNN
      // weights (each product off by up to ±kAtlasError), plus coarse
      // accumulation via state quantisation.
      DgnnWeights wa = weights;
      Rng rng(0xA71A5);
      for (Matrix* m : {&wa.rnn_wx, &wa.rnn_wh}) {
        for (std::size_t i = 0; i < m->size(); ++i) {
          m->data()[i] *= 1.0f + rng.uniform(-kAtlasError, kAtlasError);
        }
      }
      const RnnCell cell(wa);
      const float step = std::ldexp(1.0f, -(kAlstmBits + 2));
      auto update = [&](SnapshotId, VertexId v, const Matrix& z,
                        detail::RnnState& st, OpCounts& counts) {
        cell.full_update(z.row(v), st.h.row(v), st.c.row(v), st.h.row(v),
                         st.c.row(v), st.cache.row(v), counts);
        auto h = st.h.row(v);
        for (auto& e : h) e = quantize(e, step);
      };
      return run_skeleton(g, weights, cell, update);
    }
  }
  TAGNN_CHECK_MSG(false, "unreachable approximation method");
}

}  // namespace tagnn

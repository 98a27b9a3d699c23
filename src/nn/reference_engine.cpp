// Snapshot-by-snapshot DGNN inference — the execution pattern of the
// baseline software frameworks (paper section 2.2).
#include "nn/engine.hpp"
#include "nn/engine_detail.hpp"
#include "nn/gcn.hpp"
#include "obs/metrics.hpp"
#include "obs/timer.hpp"
#include "tensor/ops.hpp"

namespace tagnn {

EngineResult ReferenceEngine::run(const DynamicGraph& g,
                                  const DgnnWeights& weights) const {
  const VertexId n = g.num_vertices();
  TAGNN_CHECK(g.feature_dim() == weights.gnn.front().rows());
  const std::size_t layers = weights.config.gnn_layers;
  const RnnCell cell(weights);
  detail::RnnState st(n, cell);

  EngineResult res;
  // Previous snapshot's inputs of layers 1.., for redundancy analysis
  // (layer 0 reads the previous snapshot's features in place).
  std::vector<Matrix> prev_inputs(layers);
  Matrix a, b;  // layer ping-pong buffers
  GcnScratch scratch;

  for (SnapshotId t = 0; t < g.num_snapshots(); ++t) {
    const Snapshot& snap = g.snapshot(t);

    obs::ScopedTimer t_gnn(&res.seconds.gnn, "reference.gnn", "engine",
                           "tagnn.engine.gnn_seconds");
    const Matrix* in = &snap.features;
    for (std::size_t l = 0; l < layers; ++l) {
      Matrix& out = (l % 2 == 0) ? a : b;
      GcnForwardOptions opts;
      opts.scratch = &scratch;
      opts.relu_output = l + 1 < layers;  // last GNN layer stays linear
      gcn_layer_forward(snap, *in, weights.gnn[l], opts, out,
                        res.gnn_counts);
      if (opts_.count_redundancy) {
        // Every vertex gathers itself, so all n rows of `in` are loaded
        // once; each of the E neighbour gathers repeats a load, and so
        // does every row equal to the same row at the previous snapshot.
        std::size_t redundant_rows = snap.graph.num_edges();
        if (t > 0) {
          const Matrix& prev =
              l == 0 ? g.snapshot(t - 1).features : prev_inputs[l];
          redundant_rows += detail::count_equal_rows(*in, prev);
        }
        res.gnn_counts.redundant_bytes +=
            static_cast<double>(redundant_rows) *
            static_cast<double>(in->cols()) * 4.0;
        if (l > 0) prev_inputs[l] = *in;
      }
      in = &out;
    }
    const Matrix& z = *in;
    t_gnn.stop();

    obs::ScopedTimer t_rnn(&res.seconds.rnn, "reference.rnn", "engine",
                           "tagnn.engine.rnn_seconds");
    detail::parallel_vertices(
        n,
        [&](VertexId v, OpCounts& counts) {
          if (!snap.present[v]) return;  // absent: state carried over
          cell.full_update(z.row(v), st.h.row(v), st.c.row(v), st.h.row(v),
                           st.c.row(v), st.cache.row(v), counts);
        },
        res.rnn_counts);
    // Gate matrices loaded once per snapshot.
    res.rnn_counts.weight_bytes +=
        static_cast<double>(weights.rnn_param_count()) * 4.0;
    t_rnn.stop();

    if (opts_.store_outputs) res.outputs.push_back(st.h);
    ++res.snapshots_processed;
  }
  res.final_hidden = st.h;
  const OpCounts totals = res.total_counts();
  obs::gauge_set("tagnn.engine.roofline.macs", totals.macs);
  obs::gauge_set("tagnn.engine.roofline.bytes", totals.total_bytes());
  return res;
}

}  // namespace tagnn

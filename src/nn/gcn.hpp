// GCN layer forward pass (aggregation + combination), with optional
// precomputed row lists so multi-snapshot engines can reuse unchanged
// outputs across snapshots, and a traffic switch so gathers of rows
// already staged on chip (O-CSR single-copy features) are not charged
// to off-chip traffic again.
#pragma once

#include <vector>

#include "graph/snapshot.hpp"
#include "nn/op_counts.hpp"
#include "tensor/matrix.hpp"

namespace tagnn {

/// Mean-aggregates the closed neighbourhood {v} ∪ N(v) of `v` from
/// `h_in` rows into `out` (out.size() == h_in.cols()). Absent vertices
/// aggregate to zero.
void aggregate_vertex(const Snapshot& snap, const Matrix& h_in, VertexId v,
                      std::span<float> out);

/// Caller-owned workspace reused across gcn_layer_forward calls so the
/// all-vertices row list is not reallocated per layer/snapshot. Engines
/// keep one per run.
struct GcnScratch {
  std::vector<VertexId> rows;   // vertices computed this call, ascending
};

struct GcnForwardOptions {
  /// Ascending list of vertices to produce (an empty list computes
  /// nothing); other rows of h_out are left untouched. nullptr = all
  /// vertices.
  const std::vector<VertexId>* compute_rows = nullptr;
  /// Charge off-chip feature-row gathers to `feature_bytes`. Engines
  /// whose window features are fully resident on chip (O-CSR
  /// single-copy staging) turn this off instead of passing an
  /// all-true residency mask.
  bool count_feature_traffic = true;
  /// Apply ReLU to the layer output (the last layer stays linear).
  bool relu_output = true;
  /// Optional reusable workspace (nullptr = allocate per call).
  GcnScratch* scratch = nullptr;
};

/// Full GCN layer: h_out(v) = act(mean_{u in {v}∪N(v)} h_in(u) * w).
/// Counts MACs, adds, and byte traffic into `counts`. h_out must not
/// alias h_in.
void gcn_layer_forward(const Snapshot& snap, const Matrix& h_in,
                       const Matrix& w, const GcnForwardOptions& opts,
                       Matrix& h_out, OpCounts& counts);

}  // namespace tagnn

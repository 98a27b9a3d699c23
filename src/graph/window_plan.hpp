// The per-window execution plan (paper sections 3.1 and 4.1).
//
// Everything derived from the immutable snapshots of one window, built
// once by build_window_plan() and consumed by both the topology-aware
// engine (which rows to compute, copy and load) and the accelerator's
// cycle model (what MSDL classifies, traverses and loads, and which
// tasks the dispatcher balances).
#pragma once

#include <cstddef>
#include <vector>

#include "graph/affected_subgraph.hpp"
#include "graph/ocsr.hpp"

namespace tagnn {

struct WindowPlan {
  WindowClassification cls;
  /// unchanged_per_layer() masks; empty unless built with `reuse`.
  std::vector<std::vector<bool>> unchanged;
  /// The same per-layer sets as ascending row lists, so consumers visit
  /// exactly the rows they need instead of re-scanning an n-wide mask.
  std::vector<std::vector<VertexId>> changed_rows;
  std::vector<std::vector<VertexId>> unchanged_rows;
  AffectedSubgraph sub;
  OCsr ocsr;
  /// Vertices without an O-CSR feature row at the window's first
  /// snapshot; their features stream in once, outside the O-CSR.
  std::size_t outside_rows = 0;

  Window window() const { return cls.window; }
};

/// Classifies window `w`, extracts its affected subgraph and builds its
/// O-CSR; with `reuse`, also derives the unchanged sets of `layers` GNN
/// layers.
WindowPlan build_window_plan(const DynamicGraph& g, Window w, bool reuse,
                             std::size_t layers);

}  // namespace tagnn

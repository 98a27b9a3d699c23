// Affected-subgraph extraction (paper section 3.1, Fig. 4(b)).
//
// Stable vertices act as DFS roots; the traversal walks the union
// topology of the window and recursively pulls in affected neighbours.
// The result is the set of vertices that must be recomputed per
// snapshot (stable + affected), in DFS order for data locality.
// Affected vertices unreachable from any stable root (e.g. a fully
// churned component) are swept up afterwards so the subgraph is always
// complete.
#pragma once

#include <vector>

#include "graph/classify.hpp"

namespace tagnn {

struct AffectedSubgraph {
  /// Stable + affected vertices, in DFS discovery order.
  std::vector<VertexId> vertices;

  std::size_t size() const { return vertices.size(); }
};

AffectedSubgraph extract_affected_subgraph(const DynamicGraph& g,
                                           Window window,
                                           const WindowClassification& cls);

}  // namespace tagnn

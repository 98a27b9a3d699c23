#include "graph/window_plan.hpp"

namespace tagnn {

WindowPlan build_window_plan(const DynamicGraph& g, Window w, bool reuse,
                             std::size_t layers) {
  WindowPlan p;
  p.cls = classify_window(g, w);
  const VertexId n = g.num_vertices();
  if (reuse) {
    p.unchanged = unchanged_per_layer(g, w, p.cls, layers);
    p.changed_rows.resize(layers);
    p.unchanged_rows.resize(layers);
    for (std::size_t l = 0; l < layers; ++l) {
      for (VertexId v = 0; v < n; ++v) {
        (p.unchanged[l][v] ? p.unchanged_rows : p.changed_rows)[l]
            .push_back(v);
      }
    }
  }
  p.sub = extract_affected_subgraph(g, w, p.cls);
  p.ocsr = OCsr::build(g, w, p.cls, p.sub);
  for (VertexId v = 0; v < n; ++v) {
    if (!p.ocsr.has_feature(v, w.start)) ++p.outside_rows;
  }
  return p;
}

}  // namespace tagnn

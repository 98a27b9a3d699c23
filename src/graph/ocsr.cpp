#include "graph/ocsr.hpp"

namespace tagnn {

OCsr OCsr::build(const DynamicGraph& g, Window window,
                 const WindowClassification& cls,
                 const AffectedSubgraph& sub) {
  const auto k = static_cast<std::size_t>(window.length);

  OCsr o;
  o.window_ = window;
  o.num_sources_ = sub.size();
  o.feature_dim_ = g.feature_dim();
  o.stored_.assign(static_cast<std::size_t>(g.num_vertices()) * (k + 1), 0);

  // Each row reads its own feature and every edge target's at the
  // edge's snapshot. A feature-stable vertex's reads share slot K; an
  // absent vertex stores nothing.
  for (SnapshotId t = window.start; t < window.end(); ++t) {
    const Snapshot& snap = g.snapshot(t);
    auto require = [&](VertexId v) {
      std::size_t slot = t - window.start;
      if (cls.feature_stable[v]) {
        slot = k;
      } else if (!snap.present[v]) {
        return;
      }
      std::uint8_t& s =
          o.stored_[static_cast<std::size_t>(v) * (k + 1) + slot];
      if (!s) {
        s = 1;
        ++o.feature_rows_;
      }
    };
    for (VertexId v : sub.vertices) {
      const auto nbrs = snap.graph.neighbors(v);
      o.total_edges_ += nbrs.size();
      require(v);
      for (VertexId u : nbrs) require(u);
    }
  }
  return o;
}

bool OCsr::has_feature(VertexId v, SnapshotId t) const {
  const auto k = static_cast<std::size_t>(window_.length);
  const std::size_t base = static_cast<std::size_t>(v) * (k + 1);
  if (stored_[base + k]) return true;
  return window_.contains(t) && stored_[base + (t - window_.start)];
}

std::size_t OCsr::structure_bytes() const {
  return num_sources_ * (sizeof(VertexId) + sizeof(std::uint32_t)) +
         total_edges_ * (sizeof(VertexId) + sizeof(SnapshotId));
}

std::size_t OCsr::feature_bytes() const {
  return feature_rows_ * feature_dim_ * sizeof(float);
}

}  // namespace tagnn

#include "graph/affected_subgraph.hpp"

#include "common/check.hpp"

namespace tagnn {
namespace {

// Iterative DFS from `root` across the union topology of the window,
// following edges into not-yet-visited non-unaffected vertices.
void dfs_from(const DynamicGraph& g, Window window,
              const WindowClassification& cls, VertexId root,
              std::vector<bool>& visited, AffectedSubgraph& out) {
  std::vector<VertexId> stack{root};
  visited[root] = true;
  while (!stack.empty()) {
    const VertexId v = stack.back();
    stack.pop_back();
    out.vertices.push_back(v);
    // Union neighbourhood across the window; depth-first from each
    // affected/stable neighbour.
    for (SnapshotId t = window.start; t < window.end(); ++t) {
      for (VertexId u : g.snapshot(t).graph.neighbors(v)) {
        if (visited[u]) continue;
        if (cls.clazz[u] == VertexClass::kUnaffected) continue;
        visited[u] = true;
        stack.push_back(u);
      }
    }
  }
}

}  // namespace

AffectedSubgraph extract_affected_subgraph(const DynamicGraph& g,
                                           Window window,
                                           const WindowClassification& cls) {
  const VertexId n = g.num_vertices();
  TAGNN_CHECK(cls.clazz.size() == n);

  AffectedSubgraph out;
  std::vector<bool> visited(n, false);

  // Phase 1: stable roots (the paper's cut vertices).
  for (VertexId v = 0; v < n; ++v) {
    if (cls.clazz[v] == VertexClass::kStable && !visited[v]) {
      dfs_from(g, window, cls, v, visited, out);
    }
  }
  // Phase 2: sweep for affected vertices in components with no stable
  // root at all.
  for (VertexId v = 0; v < n; ++v) {
    if (cls.clazz[v] == VertexClass::kAffected && !visited[v]) {
      dfs_from(g, window, cls, v, visited, out);
    }
  }
  return out;
}

}  // namespace tagnn

#include "graph/formats.hpp"

#include "common/check.hpp"

namespace tagnn {
namespace {

std::uint64_t edge_key(VertexId u, VertexId v) {
  return (static_cast<std::uint64_t>(u) << 32) | v;
}

}  // namespace

PmaWindowStore::PmaWindowStore(const DynamicGraph& g, Window window)
    : window_(window) {
  TAGNN_CHECK(window.length >= 1 && window.end() <= g.num_snapshots());
  TAGNN_CHECK_MSG(window.length <= 32, "snapshot bitmask limited to 32");

  // Seed with the first snapshot, then stream deltas — the realistic
  // usage pattern for a PMA-backed dynamic-graph store.
  const Snapshot& s0 = g.snapshot(window.start);
  for (VertexId v = 0; v < s0.num_vertices(); ++v) {
    for (VertexId u : s0.graph.neighbors(v)) {
      pma_.insert_or_merge(edge_key(v, u), 1u);
    }
  }
  for (SnapshotId t = window.start + 1; t < window.end(); ++t) {
    const std::uint32_t bit = 1u << (t - window.start);
    // Surviving edges inherit the new snapshot's bit; easiest exact way
    // is to re-mark the current snapshot's edges and rely on merge.
    // Removed edges simply stop accumulating bits (the PMA keeps the
    // historical edge so earlier snapshots stay reachable).
    const Snapshot& st = g.snapshot(t);
    for (VertexId v = 0; v < st.num_vertices(); ++v) {
      for (VertexId u : st.graph.neighbors(v)) {
        pma_.insert_or_merge(edge_key(v, u), bit);
      }
    }
  }

  stats_.name = "PMA";
  stats_.structure_bytes = pma_.bytes();
  // Feature accounting follows GraSU-style versioned properties: one
  // base copy of every vertex feature plus one extra version row per
  // (vertex, snapshot) whose vertex was incident to that snapshot's
  // delta (feature mutation or edge change) — coarser than O-CSR's
  // feature-stability test, finer than CSR's K full copies.
  std::vector<bool> touched(g.num_vertices(), false);
  std::size_t rows = g.num_vertices();
  for (SnapshotId t = window.start + 1; t < window.end(); ++t) {
    const SnapshotDelta d = diff_snapshots(g.snapshot(t - 1), g.snapshot(t));
    std::fill(touched.begin(), touched.end(), false);
    for (VertexId v : d.feature_changed) touched[v] = true;
    for (const auto& [u, v] : d.added_edges) touched[u] = touched[v] = true;
    for (const auto& [u, v] : d.removed_edges) touched[u] = touched[v] = true;
    for (VertexId v = 0; v < g.num_vertices(); ++v) rows += touched[v];
  }
  stats_.feature_bytes = rows * g.feature_dim() * sizeof(float);
  stats_.sequential_fraction = 0.55;  // gaps + bitmask tests break bursts
}

void PmaWindowStore::for_each_neighbor(
    VertexId v, SnapshotId t, const std::function<void(VertexId)>& fn) const {
  TAGNN_CHECK(window_.contains(t));
  const std::uint32_t bit = 1u << (t - window_.start);
  pma_.scan(edge_key(v, 0), edge_key(v + 1, 0),
            [&](std::uint64_t key, std::uint32_t mask) {
              if (mask & bit) fn(static_cast<VertexId>(key & 0xffffffffu));
            });
}

FormatStats csr_window_stats(const DynamicGraph& g, Window window) {
  FormatStats s;
  s.name = "CSR";
  for (SnapshotId t = window.start; t < window.end(); ++t) {
    const Snapshot& snap = g.snapshot(t);
    s.structure_bytes += snap.graph.bytes();
    s.feature_bytes += snap.features.size() * sizeof(float);
  }
  s.sequential_fraction = 0.45;  // feature rows gathered per snapshot
  return s;
}

FormatStats ocsr_stats(const OCsr& o) {
  FormatStats s;
  s.name = "O-CSR";
  s.structure_bytes = o.structure_bytes();
  s.feature_bytes = o.feature_bytes();
  s.sequential_fraction = 0.90;  // edges + features laid out contiguously
  return s;
}

}  // namespace tagnn

// Multi-snapshot storage formats compared in Fig. 13(b):
//   * CSR   — one full CSR + full feature matrix per snapshot
//             (TaGNN-CSR; what DiGraph/RACE-style systems keep);
//   * PMA   — one packed-memory-array holding the union edge set with a
//             per-edge snapshot bitmask, features deduplicated per
//             version change (TaGNN-PMA; GraSU-style);
//   * O-CSR — affected subgraph only + stable features once (ours).
//
// Each format reports its bytes as FormatStats. CSR is accounted from
// the snapshots and the O-CSR from its size model (graph/ocsr.hpp);
// the PMA store is really built, and its per-snapshot neighbour scan
// is what the traversal microbenchmark walks.
#pragma once

#include <functional>
#include <string>

#include "graph/delta.hpp"
#include "graph/ocsr.hpp"
#include "graph/pma.hpp"

namespace tagnn {

struct FormatStats {
  std::string name;
  std::size_t structure_bytes = 0;
  std::size_t feature_bytes = 0;
  /// Fraction of loads the accelerator memory model may treat as
  /// sequential/burst-friendly (O-CSR lays edges+features contiguously;
  /// PMA has gaps; per-snapshot CSR scatters feature rows).
  double sequential_fraction = 0.5;

  std::size_t total_bytes() const { return structure_bytes + feature_bytes; }
};

/// PMA-backed window store. Built by inserting snapshot `window.start`'s
/// edges and then each later snapshot's edges under that snapshot's
/// bit (new edges insert, surviving ones merge), which exercises the
/// PMA's rebalancing like a streaming system.
class PmaWindowStore {
 public:
  PmaWindowStore(const DynamicGraph& g, Window window);

  /// Visits the neighbours of v in snapshot t (t inside the window).
  void for_each_neighbor(VertexId v, SnapshotId t,
                         const std::function<void(VertexId)>& fn) const;

  const Pma& pma() const { return pma_; }
  FormatStats stats() const { return stats_; }

 private:
  Window window_;
  Pma pma_;
  FormatStats stats_;
};

FormatStats csr_window_stats(const DynamicGraph& g, Window window);
FormatStats ocsr_stats(const OCsr& o);

}  // namespace tagnn

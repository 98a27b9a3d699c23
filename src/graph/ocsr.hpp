// Overlap-aware Compressed Sparse Row (O-CSR) — the paper's
// cache-friendly multi-snapshot layout of the affected subgraph
// (section 3.1, Fig. 4(c)), kept here as a size model.
//
// The layout's arrays, in the paper's names:
//   Sindex    — source vertex of each subgraph row
//   Tindex    — target vertex of each edge, all snapshots
//   Timestamp — snapshot id of each edge
//   Enum      — edges per source across the window
//   Feature   — one row per stored (vertex, snapshot); feature-stable
//               vertices are stored once.
//
// No consumer walks these arrays: the engines read the snapshots, and
// the load phase, MSDL's traffic, the cycle model and the format
// comparison charge only the layout's size. build() therefore counts
// rows, edges and feature rows in one pass and records which
// (vertex, snapshot) rows the Feature table holds (has_feature()).
//
// Space: 2|E_s| + (K*D + 2)|V_s| words, matching the paper's bound.
#pragma once

#include <cstdint>

#include "graph/affected_subgraph.hpp"
#include "obs/mem/memtrack.hpp"

namespace tagnn {

class OCsr {
 public:
  static OCsr build(const DynamicGraph& g, Window window,
                    const WindowClassification& cls,
                    const AffectedSubgraph& sub);

  /// Rows of Sindex and Enum: one per affected-subgraph vertex.
  std::size_t num_sources() const { return num_sources_; }
  /// Entries of Tindex and Timestamp: the rows' edges in every snapshot.
  std::size_t total_edges() const { return total_edges_; }

  /// True iff the feature table holds a row for (v, t); a
  /// feature-stable vertex's single shared row answers for every t.
  bool has_feature(VertexId v, SnapshotId t) const;

  std::size_t num_feature_rows() const { return feature_rows_; }
  std::size_t feature_dim() const { return feature_dim_; }
  Window window() const { return window_; }

  /// Structure bytes (Sindex + Tindex + Timestamp + Enum).
  std::size_t structure_bytes() const;
  /// Bytes of the feature table (after stable-row dedup).
  std::size_t feature_bytes() const;
  std::size_t bytes() const { return structure_bytes() + feature_bytes(); }

 private:
  Window window_;
  std::size_t num_sources_ = 0;
  std::size_t total_edges_ = 0;
  // stored_[v * (K + 1) + k] is 1 iff the feature table holds v's row
  // at window snapshot k; slot K is the shared row of a feature-stable
  // vertex. Byte-accounted under kOcsr.
  obs::mem::vec<std::uint8_t> stored_ =
      obs::mem::tagged<std::uint8_t>(obs::mem::Subsystem::kOcsr);
  std::size_t feature_rows_ = 0;
  std::size_t feature_dim_ = 0;
};

}  // namespace tagnn

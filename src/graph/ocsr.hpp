// Overlap-aware Compressed Sparse Row (O-CSR) — the paper's
// cache-friendly multi-snapshot representation of the affected subgraph
// (section 3.1, Fig. 4(c)).
//
// Arrays (paper names in parentheses):
//   sindex     (Sindex)    — source vertex of each subgraph row
//   tindex     (Tindex)    — target vertex of each edge, all snapshots
//   timestamps (Timestamp) — snapshot id of each edge
//   enum_counts(Enum)      — edges per source across the window
//   features   (Feature)   — one row per stored (vertex, snapshot);
//                            feature-stable vertices are stored once.
//
// The Feature table is accounted, not copied: build() assigns every
// needed (vertex, snapshot) its row slot and keeps the row count and
// width, which is all the cycle model and the format comparison charge
// (feature_bytes()). The engines read features from the snapshots.
//
// Space: 2|E_s| + (K*D + 2)|V_s| words, matching the paper's bound.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/affected_subgraph.hpp"
#include "obs/mem/memtrack.hpp"

namespace tagnn {

class OCsr {
 public:
  /// An edge of the affected subgraph: (target vertex, snapshot).
  struct Edge {
    VertexId target;
    SnapshotId timestamp;
  };

  static OCsr build(const DynamicGraph& g, Window window,
                    const WindowClassification& cls,
                    const AffectedSubgraph& sub);

  std::size_t num_sources() const { return sindex_.size(); }
  VertexId source(std::size_t row) const { return sindex_[row]; }
  std::uint32_t enum_count(std::size_t row) const { return enum_counts_[row]; }

  /// Edges of row `row` (contiguous, snapshot-major ascending).
  std::span<const VertexId> targets(std::size_t row) const {
    return {tindex_.data() + row_start_[row],
            static_cast<std::size_t>(row_start_[row + 1] - row_start_[row])};
  }
  std::span<const SnapshotId> timestamps(std::size_t row) const {
    return {timestamps_.data() + row_start_[row],
            static_cast<std::size_t>(row_start_[row + 1] - row_start_[row])};
  }

  std::size_t total_edges() const { return tindex_.size(); }

  /// True iff the feature table holds a row for (v, t); a
  /// feature-stable vertex's single shared row answers for every t.
  bool has_feature(VertexId v, SnapshotId t) const;

  std::size_t num_feature_rows() const { return feature_rows_; }
  std::size_t feature_dim() const { return feature_dim_; }
  Window window() const { return window_; }

  /// Structure bytes (sindex + tindex + timestamps + enum).
  std::size_t structure_bytes() const;
  /// Bytes of the feature table (after stable-row dedup).
  std::size_t feature_bytes() const;
  std::size_t bytes() const { return structure_bytes() + feature_bytes(); }

  /// Audits structural invariants: row_start prefix-sum shape, tindex /
  /// timestamp parallelism, enum_counts agreement, every timestamp inside
  /// the window, snapshot-major timestamp order within each row, and a
  /// bijection between live slot_of_ entries and feature rows. Throws
  /// std::logic_error on violation. Runs automatically after build() at
  /// invariant level >= 1 (see common/check.hpp).
  void validate() const;

 private:
  friend struct TestPeer;

  // Index arrays are byte-accounted under kOcsr.
  Window window_;
  obs::mem::vec<VertexId> sindex_ =
      obs::mem::tagged<VertexId>(obs::mem::Subsystem::kOcsr);
  obs::mem::vec<EdgeId> row_start_ = obs::mem::tagged<EdgeId>(
      obs::mem::Subsystem::kOcsr);  // prefix sums of enum_counts_
  obs::mem::vec<VertexId> tindex_ =
      obs::mem::tagged<VertexId>(obs::mem::Subsystem::kOcsr);
  obs::mem::vec<SnapshotId> timestamps_ =
      obs::mem::tagged<SnapshotId>(obs::mem::Subsystem::kOcsr);
  obs::mem::vec<std::uint32_t> enum_counts_ =
      obs::mem::tagged<std::uint32_t>(obs::mem::Subsystem::kOcsr);

  // Feature table: slot_of_[v * (K + 1) + k] is the row of v's feature
  // at window snapshot k; slot K is the shared row of feature-stable
  // vertices. kNoSlot where absent.
  static constexpr std::uint32_t kNoSlot = static_cast<std::uint32_t>(-1);
  obs::mem::vec<std::uint32_t> slot_of_ =
      obs::mem::tagged<std::uint32_t>(obs::mem::Subsystem::kOcsr);
  std::size_t feature_rows_ = 0;
  std::size_t feature_dim_ = 0;
};

}  // namespace tagnn

#include "graph/ocsr.hpp"

#include "common/check.hpp"

namespace tagnn {

OCsr OCsr::build(const DynamicGraph& g, Window window,
                 const WindowClassification& cls,
                 const AffectedSubgraph& sub) {
  const VertexId n = g.num_vertices();
  const auto k = static_cast<std::size_t>(window.length);

  OCsr o;
  o.window_ = window;
  o.sindex_.reserve(sub.size());
  o.enum_counts_.reserve(sub.size());
  o.row_start_.reserve(sub.size() + 1);
  o.row_start_.push_back(0);

  // --- Structure arrays, one row per subgraph vertex in DFS order. ---
  for (VertexId v : sub.vertices) {
    o.sindex_.push_back(v);
    std::uint32_t count = 0;
    for (SnapshotId t = window.start; t < window.end(); ++t) {
      for (VertexId u : g.snapshot(t).graph.neighbors(v)) {
        o.tindex_.push_back(u);
        o.timestamps_.push_back(t);
        ++count;
      }
    }
    o.enum_counts_.push_back(count);
    o.row_start_.push_back(o.tindex_.size());
  }

  // --- Feature table: mark needed (vertex, snapshot) slots. ---
  o.slot_of_.assign(static_cast<std::size_t>(n) * (k + 1), kNoSlot);
  auto slot_index = [&](VertexId v, std::size_t kk) {
    return static_cast<std::size_t>(v) * (k + 1) + kk;
  };
  std::size_t next_row = 0;
  auto require = [&](VertexId v, SnapshotId t) {
    if (cls.feature_stable[v]) {
      auto& s = o.slot_of_[slot_index(v, k)];
      if (s == kNoSlot) s = static_cast<std::uint32_t>(next_row++);
    } else {
      const Snapshot& snap = g.snapshot(t);
      if (!snap.present[v]) return;  // absent: no feature stored
      auto& s = o.slot_of_[slot_index(v, t - window.start)];
      if (s == kNoSlot) s = static_cast<std::uint32_t>(next_row++);
    }
  };

  for (std::size_t row = 0; row < o.sindex_.size(); ++row) {
    const VertexId v = o.sindex_[row];
    for (SnapshotId t = window.start; t < window.end(); ++t) {
      require(v, t);
    }
    const auto tgts = o.targets(row);
    const auto ts = o.timestamps(row);
    for (std::size_t e = 0; e < tgts.size(); ++e) require(tgts[e], ts[e]);
  }

  o.feature_rows_ = next_row;
  o.feature_dim_ = g.feature_dim();
  TAGNN_CHECK_INVARIANTS(o);
  return o;
}

void OCsr::validate() const {
  const auto k = static_cast<std::size_t>(window_.length);
  TAGNN_CHECK(row_start_.size() == sindex_.size() + 1);
  TAGNN_CHECK(enum_counts_.size() == sindex_.size());
  TAGNN_CHECK(row_start_.empty() || row_start_.front() == 0);
  TAGNN_CHECK(tindex_.size() == timestamps_.size());
  TAGNN_CHECK_MSG(row_start_.empty() || row_start_.back() == tindex_.size(),
                  "row_start end does not cover the edge arrays");
  for (std::size_t row = 0; row < sindex_.size(); ++row) {
    TAGNN_CHECK_MSG(row_start_[row] <= row_start_[row + 1],
                    "row_start not monotone at row " << row);
    TAGNN_CHECK_MSG(row_start_[row + 1] - row_start_[row] ==
                        enum_counts_[row],
                    "enum count of row " << row << " disagrees with "
                                         << "row_start");
    // Edges are appended snapshot by snapshot, so timestamps within a
    // row are non-decreasing and always inside the window.
    for (EdgeId e = row_start_[row]; e < row_start_[row + 1]; ++e) {
      TAGNN_CHECK_MSG(window_.contains(timestamps_[e]),
                      "edge timestamp " << timestamps_[e]
                                        << " outside window");
      if (e > row_start_[row]) {
        TAGNN_CHECK_MSG(timestamps_[e - 1] <= timestamps_[e],
                        "timestamps of row " << row << " not snapshot-major");
      }
    }
  }
  // Feature-slot table: sized n * (k + 1), and its live entries must hit
  // every feature row exactly once (no dangling or shared rows beyond
  // the deliberate per-vertex sharing of slot K).
  TAGNN_CHECK_MSG(k == 0 || slot_of_.size() % (k + 1) == 0,
                  "slot table size not a multiple of window span");
  auto used = obs::mem::tagged<bool>(obs::mem::Subsystem::kOcsr);
  used.assign(feature_rows_, false);
  for (std::size_t i = 0; i < slot_of_.size(); ++i) {
    const std::uint32_t s = slot_of_[i];
    if (s == kNoSlot) continue;
    TAGNN_CHECK_MSG(s < feature_rows_,
                    "slot " << s << " beyond feature table");
    TAGNN_CHECK_MSG(!used[s], "feature row " << s << " mapped twice");
    used[s] = true;
  }
  for (std::size_t r = 0; r < used.size(); ++r) {
    TAGNN_CHECK_MSG(used[r], "feature row " << r << " unreferenced");
  }
}

bool OCsr::has_feature(VertexId v, SnapshotId t) const {
  const auto k = static_cast<std::size_t>(window_.length);
  const std::size_t base = static_cast<std::size_t>(v) * (k + 1);
  if (slot_of_[base + k] != kNoSlot) return true;
  if (!window_.contains(t)) return false;
  return slot_of_[base + (t - window_.start)] != kNoSlot;
}

std::size_t OCsr::structure_bytes() const {
  return sindex_.size() * sizeof(VertexId) +
         tindex_.size() * sizeof(VertexId) +
         timestamps_.size() * sizeof(SnapshotId) +
         enum_counts_.size() * sizeof(std::uint32_t);
}

std::size_t OCsr::feature_bytes() const {
  return feature_rows_ * feature_dim_ * sizeof(float);
}

}  // namespace tagnn

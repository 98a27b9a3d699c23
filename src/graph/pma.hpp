// Packed Memory Array — the dynamic-graph storage baseline the paper
// compares O-CSR against (TaGNN-PMA, citing GraSU / Sha et al.).
//
// This is a left-packed-segment PMA: the slot array is divided into
// fixed-size segments; elements within a segment are sorted and packed
// to the left, gaps live at segment tails. An insert that pushes a
// window of segments over its density bound triggers an even
// redistribution of that window; the whole array grows by doubling.
// Amortised O(log^2 n) inserts, ordered scans. Insert-only: the window
// store never removes an edge (a removed edge keeps its historical
// snapshot bits).
//
// Keys are uint64 (callers encode (src << 32) | dst); each key carries a
// uint32 payload (here: a bitmask of window snapshots containing the
// edge).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "obs/mem/memtrack.hpp"

namespace tagnn {

class Pma {
 public:
  explicit Pma(std::size_t segment_size = 64);

  /// Inserts key with the given payload. If the key exists, ORs `value`
  /// into its payload. Returns true if the key was newly inserted.
  bool insert_or_merge(std::uint64_t key, std::uint32_t value);

  /// Payload lookup.
  std::optional<std::uint32_t> find(std::uint64_t key) const;

  /// Visits (key, value) for all keys in [lo, hi), ascending.
  void scan(std::uint64_t lo, std::uint64_t hi,
            const std::function<void(std::uint64_t, std::uint32_t)>& fn) const;

  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  std::size_t capacity_slots() const { return keys_.size(); }
  double density() const {
    return keys_.empty() ? 0.0
                         : static_cast<double>(count_) /
                               static_cast<double>(keys_.size());
  }
  /// Allocated bytes including gaps (what a hardware PMA would occupy).
  std::size_t bytes() const {
    return keys_.size() * (sizeof(std::uint64_t) + sizeof(std::uint32_t));
  }

  /// Audits all internal invariants: array-shape coherence (capacity is
  /// a power-of-two number of segments), per-segment packing and gap
  /// accounting, strict global key order across packed prefixes, and the
  /// element count. Throws std::logic_error on violation. Runs
  /// automatically after rebalances at invariant level >= 1 and after
  /// every insert at level >= 2 (see common/check.hpp).
  void validate() const;

 private:
  friend struct TestPeer;
  std::size_t num_segments() const { return seg_count_.size(); }
  std::size_t find_segment(std::uint64_t key) const;
  // Position of key within segment (index into packed prefix) or the
  // insertion point if absent; second = found.
  std::pair<std::size_t, bool> find_in_segment(std::size_t seg,
                                               std::uint64_t key) const;
  void insert_into_segment(std::size_t seg, std::size_t pos,
                           std::uint64_t key, std::uint32_t value);
  // Rebalances the smallest window around `seg` whose density fits the
  // level threshold; grows the array when the root is over-full.
  void rebalance_after_insert(std::size_t seg);
  void redistribute(std::size_t first_seg, std::size_t num_segs);
  void resize_segments(std::size_t new_num_segments);
  std::size_t window_count(std::size_t first_seg, std::size_t num_segs) const;

  std::size_t segment_size_;
  std::size_t count_ = 0;
  // Slot storage is byte-accounted under obs::mem::Subsystem::kPma
  // (docs/OBSERVABILITY.md, "Memory observability").
  obs::mem::vec<std::uint64_t> keys_ = obs::mem::tagged<std::uint64_t>(
      obs::mem::Subsystem::kPma);  // slot array; only packed prefixes valid
  obs::mem::vec<std::uint32_t> values_ = obs::mem::tagged<std::uint32_t>(
      obs::mem::Subsystem::kPma);  // parallel payloads
  obs::mem::vec<std::uint32_t> seg_count_ = obs::mem::tagged<std::uint32_t>(
      obs::mem::Subsystem::kPma);  // packed prefix length per segment
};

}  // namespace tagnn

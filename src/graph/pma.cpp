#include "graph/pma.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace tagnn {
namespace {

// Density bounds: leaves may run nearly full; windows closer to the
// root must stay sparser (Bender et al.). kLeafMax < 1.0 guarantees a
// rebalanced window always leaves a free slot in every segment (see
// insert_or_merge).
constexpr double kLeafMax = 0.98;
constexpr double kRootMax = 0.70;

double max_density(std::size_t level, std::size_t height) {
  if (height == 0) return kRootMax;
  return kLeafMax -
         (kLeafMax - kRootMax) * static_cast<double>(level) /
             static_cast<double>(height);
}

std::size_t log2_floor(std::size_t x) {
  std::size_t l = 0;
  while (x > 1) {
    x >>= 1;
    ++l;
  }
  return l;
}

}  // namespace

Pma::Pma(std::size_t segment_size) : segment_size_(segment_size) {
  TAGNN_CHECK(segment_size_ >= 4);
  resize_segments(1);
}

std::size_t Pma::find_segment(std::uint64_t key) const {
  if (count_ == 0) return 0;
  // eff_min(s): minimum key of the nearest non-empty segment at or left
  // of s (-inf if none). eff_min is monotone in s, so a binary search
  // for the rightmost segment with eff_min <= key is valid even with
  // empty segments in the middle.
  auto nonempty_at_or_left = [&](std::size_t s) -> std::ptrdiff_t {
    auto i = static_cast<std::ptrdiff_t>(s);
    while (i >= 0 && seg_count_[static_cast<std::size_t>(i)] == 0) --i;
    return i;
  };
  auto pred = [&](std::size_t s) {
    const std::ptrdiff_t ne = nonempty_at_or_left(s);
    if (ne < 0) return true;  // -inf <= key
    return keys_[static_cast<std::size_t>(ne) * segment_size_] <= key;
  };
  std::size_t lo = 0, hi = num_segments() - 1;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo + 1) / 2;
    if (pred(mid)) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  // The key, if present, lives in the nearest non-empty segment; for
  // inserts this is also the segment that keeps global order.
  const std::ptrdiff_t ne = nonempty_at_or_left(lo);
  return ne < 0 ? 0 : static_cast<std::size_t>(ne);
}

std::pair<std::size_t, bool> Pma::find_in_segment(std::size_t seg,
                                                  std::uint64_t key) const {
  const std::uint64_t* base = keys_.data() + seg * segment_size_;
  const std::uint32_t cnt = seg_count_[seg];
  const auto* it = std::lower_bound(base, base + cnt, key);
  const auto pos = static_cast<std::size_t>(it - base);
  return {pos, pos < cnt && *it == key};
}

void Pma::insert_into_segment(std::size_t seg, std::size_t pos,
                              std::uint64_t key, std::uint32_t value) {
  const std::size_t base = seg * segment_size_;
  const std::uint32_t cnt = seg_count_[seg];
  TAGNN_CHECK(cnt < segment_size_);
  for (std::size_t i = cnt; i > pos; --i) {
    keys_[base + i] = keys_[base + i - 1];
    values_[base + i] = values_[base + i - 1];
  }
  keys_[base + pos] = key;
  values_[base + pos] = value;
  seg_count_[seg] = cnt + 1;
  ++count_;
}

std::size_t Pma::window_count(std::size_t first_seg,
                              std::size_t num_segs) const {
  std::size_t c = 0;
  for (std::size_t s = first_seg; s < first_seg + num_segs; ++s)
    c += seg_count_[s];
  return c;
}

void Pma::redistribute(std::size_t first_seg, std::size_t num_segs) {
  const std::size_t total = window_count(first_seg, num_segs);
  auto ks = obs::mem::tagged<std::uint64_t>(obs::mem::Subsystem::kPma);
  auto vs = obs::mem::tagged<std::uint32_t>(obs::mem::Subsystem::kPma);
  ks.reserve(total);
  vs.reserve(total);
  for (std::size_t s = first_seg; s < first_seg + num_segs; ++s) {
    const std::size_t base = s * segment_size_;
    for (std::uint32_t i = 0; i < seg_count_[s]; ++i) {
      ks.push_back(keys_[base + i]);
      vs.push_back(values_[base + i]);
    }
  }
  const std::size_t per = total / num_segs;
  std::size_t extra = total % num_segs;
  std::size_t idx = 0;
  for (std::size_t s = first_seg; s < first_seg + num_segs; ++s) {
    std::size_t take = per + (extra > 0 ? 1 : 0);
    if (extra > 0) --extra;
    TAGNN_CHECK(take <= segment_size_);
    const std::size_t base = s * segment_size_;
    for (std::size_t i = 0; i < take; ++i) {
      keys_[base + i] = ks[idx];
      values_[base + i] = vs[idx];
      ++idx;
    }
    seg_count_[s] = static_cast<std::uint32_t>(take);
  }
  TAGNN_CHECK_INVARIANTS(*this);
}

void Pma::resize_segments(std::size_t new_num_segments) {
  auto ks = obs::mem::tagged<std::uint64_t>(obs::mem::Subsystem::kPma);
  auto vs = obs::mem::tagged<std::uint32_t>(obs::mem::Subsystem::kPma);
  ks.reserve(count_);
  vs.reserve(count_);
  for (std::size_t s = 0; s < num_segments(); ++s) {
    const std::size_t base = s * segment_size_;
    for (std::uint32_t i = 0; i < seg_count_[s]; ++i) {
      ks.push_back(keys_[base + i]);
      vs.push_back(values_[base + i]);
    }
  }
  keys_.assign(new_num_segments * segment_size_, 0);
  values_.assign(new_num_segments * segment_size_, 0);
  seg_count_.assign(new_num_segments, 0);
  // Spread evenly across the new shape.
  const std::size_t total = ks.size();
  const std::size_t per = total / new_num_segments;
  std::size_t extra = total % new_num_segments;
  std::size_t idx = 0;
  for (std::size_t s = 0; s < new_num_segments; ++s) {
    std::size_t take = per + (extra > 0 ? 1 : 0);
    if (extra > 0) --extra;
    TAGNN_CHECK_MSG(take <= segment_size_, "resize target too small");
    const std::size_t base = s * segment_size_;
    for (std::size_t i = 0; i < take; ++i) {
      keys_[base + i] = ks[idx];
      values_[base + i] = vs[idx];
      ++idx;
    }
    seg_count_[s] = static_cast<std::uint32_t>(take);
  }
  TAGNN_CHECK_INVARIANTS(*this);
}

void Pma::rebalance_after_insert(std::size_t seg) {
  const std::size_t height = log2_floor(num_segments());
  std::size_t win = 1;
  std::size_t first = seg;
  for (std::size_t level = 0; level <= height; ++level) {
    const double cap =
        static_cast<double>(win) * static_cast<double>(segment_size_);
    // +1: the pending insert must fit after redistribution.
    const double dens =
        (static_cast<double>(window_count(first, win)) + 1.0) / cap;
    if (dens <= max_density(level, height)) {
      if (win > 1) redistribute(first, win);
      return;
    }
    win *= 2;
    first = (first / win) * win;
    if (win > num_segments()) break;
  }
  // Root over-full: double the array.
  resize_segments(num_segments() * 2);
}

bool Pma::insert_or_merge(std::uint64_t key, std::uint32_t value) {
  std::size_t seg = find_segment(key);
  auto [pos, found] = find_in_segment(seg, key);
  if (found) {
    values_[seg * segment_size_ + pos] |= value;
    return false;
  }
  if (seg_count_[seg] == segment_size_) {
    rebalance_after_insert(seg);
    seg = find_segment(key);
    std::tie(pos, found) = find_in_segment(seg, key);
    TAGNN_CHECK(!found);
    TAGNN_CHECK(seg_count_[seg] < segment_size_);
  }
  insert_into_segment(seg, pos, key, value);
  TAGNN_CHECK_INVARIANTS_AT(2, *this);
  return true;
}

std::optional<std::uint32_t> Pma::find(std::uint64_t key) const {
  const std::size_t seg = find_segment(key);
  const auto [pos, found] = find_in_segment(seg, key);
  if (!found) return std::nullopt;
  return values_[seg * segment_size_ + pos];
}

void Pma::scan(
    std::uint64_t lo, std::uint64_t hi,
    const std::function<void(std::uint64_t, std::uint32_t)>& fn) const {
  if (lo >= hi || count_ == 0) return;
  std::size_t seg = find_segment(lo);
  for (; seg < num_segments(); ++seg) {
    const std::size_t base = seg * segment_size_;
    const std::uint32_t cnt = seg_count_[seg];
    if (cnt == 0) continue;
    if (keys_[base] >= hi) return;
    const std::uint64_t* b = keys_.data() + base;
    const auto* it = std::lower_bound(b, b + cnt, lo);
    for (auto i = static_cast<std::size_t>(it - b); i < cnt; ++i) {
      if (keys_[base + i] >= hi) return;
      fn(keys_[base + i], values_[base + i]);
    }
  }
}

void Pma::validate() const {
  TAGNN_CHECK(segment_size_ >= 4);
  TAGNN_CHECK(keys_.size() == values_.size());
  TAGNN_CHECK(keys_.size() == num_segments() * segment_size_);
  const std::size_t segs = num_segments();
  TAGNN_CHECK_MSG(segs > 0 && (segs & (segs - 1)) == 0,
                  "segment count " << segs << " not a power of two");
  std::size_t total = 0;
  std::size_t gaps = 0;
  std::uint64_t prev = 0;
  bool have_prev = false;
  for (std::size_t s = 0; s < segs; ++s) {
    const std::size_t base = s * segment_size_;
    TAGNN_CHECK_MSG(seg_count_[s] <= segment_size_,
                    "segment " << s << " overfull: " << seg_count_[s]);
    total += seg_count_[s];
    gaps += segment_size_ - seg_count_[s];
    for (std::uint32_t i = 0; i < seg_count_[s]; ++i) {
      const std::uint64_t k = keys_[base + i];
      if (have_prev) {
        TAGNN_CHECK_MSG(prev < k, "keys not strictly sorted in segment "
                                      << s << " slot " << i);
      }
      prev = k;
      have_prev = true;
    }
  }
  TAGNN_CHECK_MSG(total == count_,
                  "packed prefix total " << total << " != count " << count_);
  TAGNN_CHECK(total + gaps == keys_.size());
  // Density bound: every element lives in some segment's packed prefix,
  // so the structure can never claim more elements than slots.
  TAGNN_CHECK(density() <= 1.0);
}

}  // namespace tagnn

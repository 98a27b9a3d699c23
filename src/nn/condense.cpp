#include "nn/condense.hpp"

#include <cmath>

#include "common/check.hpp"
#include "tensor/kernel_registry.hpp"

namespace tagnn {

CondensedVector condense(std::span<const float> x, float threshold) {
  CondensedVector c;
  c.dim = x.size();
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (std::fabs(x[i]) > threshold) {
      c.values.push_back(x[i]);
      c.addresses.push_back(static_cast<std::uint32_t>(i));
    }
  }
  return c;
}

CondensedVector condense_delta(std::span<const float> cur,
                               std::span<float> applied, float threshold) {
  CondensedVector c;
  condense_delta(cur, applied, threshold, c);
  return c;
}

void condense_delta(std::span<const float> cur, std::span<float> applied,
                    float threshold, CondensedVector& out) {
  TAGNN_CHECK(cur.size() == applied.size());
  out.values.clear();
  out.addresses.clear();
  out.dim = cur.size();
  for (std::size_t i = 0; i < cur.size(); ++i) {
    const float d = cur[i] - applied[i];
    if (d > threshold || d < -threshold) {
      out.values.push_back(d);
      out.addresses.push_back(static_cast<std::uint32_t>(i));
      applied[i] = cur[i];
    }
  }
}

std::size_t dense_delta(std::span<const float> cur, std::span<float> applied,
                        float threshold, std::span<float> out) {
  TAGNN_CHECK(cur.size() == applied.size() && cur.size() == out.size());
  return kernels::registry().vec().delta_n(cur.data(), applied.data(),
                                           threshold, cur.size(), out.data());
}

std::vector<float> expand(const CondensedVector& c) {
  TAGNN_CHECK(c.values.size() == c.addresses.size());
  std::vector<float> out(c.dim, 0.0f);
  for (std::size_t i = 0; i < c.values.size(); ++i) {
    TAGNN_CHECK(c.addresses[i] < c.dim);
    out[c.addresses[i]] = c.values[i];
  }
  return out;
}

}  // namespace tagnn

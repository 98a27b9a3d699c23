#include "nn/condense.hpp"

#include "common/check.hpp"
#include "tensor/kernel_registry.hpp"

namespace tagnn {

std::size_t dense_delta(std::span<const float> cur, std::span<float> applied,
                        float threshold, std::span<float> out) {
  TAGNN_CHECK(cur.size() == applied.size() && cur.size() == out.size());
  return kernels::registry().vec().delta_n(cur.data(), applied.data(),
                                           threshold, cur.size(), out.data());
}

}  // namespace tagnn

// Cache-blocking parameters for the dense kernels (docs/PERFORMANCE.md).
//
// The blocked GEMM walks C in row panels and B in (kc x nc) panels that
// are packed into a contiguous scratch buffer, so the inner micro-kernel
// streams one cache-resident panel while broadcasting four rows of A.
// Accumulation order per output element is strictly ascending in k, the
// same order the naive kernel and gemv use, so results are value-exact
// against them and independent of the thread count.
#pragma once

#include <cstddef>

namespace tagnn {

struct GemmBlocking {
  /// k-panel depth: one packed B panel holds kc * nc floats. The
  /// default keeps the panel (512 KB at nc=256) inside L2 while
  /// covering the full k of every layer dimension in this repo, which
  /// lets the micro-kernel keep its C tile in registers for the whole
  /// accumulation (see gemm_blocked.cpp).
  std::size_t kc = 512;
  /// n-panel width (columns of B covered by one packed panel).
  std::size_t nc = 256;
};

}  // namespace tagnn

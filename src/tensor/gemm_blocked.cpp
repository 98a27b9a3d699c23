// Cache-blocked GEMM (docs/PERFORMANCE.md) — the ops::gemm entry point.
//
// Loop structure, outermost first:
//   jc : nc-wide column panels of B/C;
//   pc : kc-deep row panels of B — each (kc x nc) panel is packed once
//        into a contiguous scratch buffer by the issuing thread
//        (transpose-free: B is row-major and stays row-major);
//   i  : row panels of A/C, split across the thread pool;
//   micro-kernel: mr rows of A broadcast against the packed panel, so
//        every packed element loaded from cache is reused mr times.
//
// The micro-kernels themselves come from the kernel registry
// (tensor/kernel_registry.hpp): AVX2 when the host supports it, scalar
// otherwise, overridable via TAGNN_KERNEL_ISA / --kernel-isa. When one
// k-panel covers all of k (k <= kc, the common case for GNN layer dims)
// the tile_* kernels hold a 4 x 16 C tile in registers for the whole
// accumulation and store it once — no C traffic inside the k loop.
// Deeper k uses the streaming micro_* kernels, which fold into C's
// existing contents and keep the same per-element evaluation order
// across panels.
//
// gemm_tile runs the same kernels on up to four caller-held rows
// without packing: B is row-major, so the unpacked matrix is already a
// valid panel with row pitch n, and each element's value does not
// depend on the panel width.
//
// Exactness: each C element accumulates its k terms in strictly
// ascending order (pc panels ascend, k inside a panel ascends), the
// same order as gemm_naive and ops::gemv, and rows never split across
// threads mid-accumulation — results are value-identical to the naive
// kernel for finite inputs, independent of the thread count and of the
// dispatched ISA.
#include <algorithm>
#include <vector>

#include "common/thread_pool.hpp"
#include "tensor/kernel_registry.hpp"
#include "tensor/ops.hpp"

namespace tagnn::ops {

void gemm(const Matrix& a, const Matrix& b, Matrix& c, const GemmOpts& opts) {
  TAGNN_CHECK_MSG(a.cols() == b.rows(),
                  "gemm shape mismatch: " << a.rows() << 'x' << a.cols()
                                          << " * " << b.rows() << 'x'
                                          << b.cols());
  const std::size_t m = a.rows();
  const std::size_t k_dim = a.cols();
  const std::size_t n = b.cols();
  if (c.rows() != m || c.cols() != n) {
    c = Matrix(m, n);
  } else {
    c.fill(0.0f);
  }
  if (m == 0 || n == 0 || k_dim == 0) return;

  const kernels::GemmMicroKernels mk = kernels::registry().gemm();
  const std::size_t kc = std::max<std::size_t>(1, opts.blocking.kc);
  const std::size_t nc = std::max<std::size_t>(1, opts.blocking.nc);
  std::vector<float> packed(std::min(kc, k_dim) * std::min(nc, n));
  // A single k panel lets the micro-kernel keep its C tile in registers
  // for the full accumulation; wrapping the tail tile into the packed
  // scratch is handled inside tile_1row/tile_4row.
  const bool single_panel = k_dim <= kc;

  for (std::size_t jc = 0; jc < n; jc += nc) {
    const std::size_t ncb = std::min(nc, n - jc);
    for (std::size_t pc = 0; pc < k_dim; pc += kc) {
      const std::size_t kcb = std::min(kc, k_dim - pc);
      // Pack B[pc:pc+kcb, jc:jc+ncb] row-major into the scratch panel.
      for (std::size_t kk = 0; kk < kcb; ++kk) {
        const float* src = b.data() + (pc + kk) * n + jc;
        std::copy(src, src + ncb, packed.data() + kk * ncb);
      }
      const float* pk = packed.data();
      parallel_for(0, m, [&, pk, kcb, ncb, jc, pc](std::size_t r0,
                                                   std::size_t r1) {
        std::size_t i = r0;
        for (; i + 4 <= r1; i += 4) {
          const float* a0 = a.data() + i * k_dim + pc;
          const float* a1 = a0 + k_dim;
          const float* a2 = a1 + k_dim;
          const float* a3 = a2 + k_dim;
          float* c0 = c.data() + i * n + jc;
          float* c1 = c0 + n;
          float* c2 = c1 + n;
          float* c3 = c2 + n;
          if (single_panel) {
            mk.tile_4row(a0, a1, a2, a3, pk, kcb, ncb, c0, c1, c2, c3);
          } else {
            mk.micro_4row(a0, a1, a2, a3, pk, kcb, ncb, c0, c1, c2, c3);
          }
        }
        for (; i < r1; ++i) {
          const float* ar = a.data() + i * k_dim + pc;
          float* cr = c.data() + i * n + jc;
          if (single_panel) {
            mk.tile_1row(ar, pk, kcb, ncb, ncb, cr);
          } else {
            mk.micro_1row(ar, pk, kcb, ncb, cr);
          }
        }
      }, /*serial_threshold=*/32);
    }
  }
}

void gemm_tile(std::span<const float* const> a, const Matrix& b,
               std::span<float* const> c, bool accumulate) {
  const std::size_t m = a.size();
  TAGNN_DCHECK(c.size() == m && m <= 4);
  const std::size_t k = b.rows();
  const std::size_t n = b.cols();
  // ops::gemm streams into zeroed C rows once k spans several panels;
  // a fresh product that deep does the same, keeping its zero-skips.
  const bool streaming = accumulate || k > GemmBlocking{}.kc;
  if (!accumulate && streaming) {
    for (float* cr : c) std::fill(cr, cr + n, 0.0f);
  }
  const kernels::GemmMicroKernels& mk = kernels::registry().gemm();
  const float* bp = b.data();
  if (m == 4) {
    if (streaming) {
      mk.micro_4row(a[0], a[1], a[2], a[3], bp, k, n, c[0], c[1], c[2], c[3]);
    } else {
      mk.tile_4row(a[0], a[1], a[2], a[3], bp, k, n, c[0], c[1], c[2], c[3]);
    }
    return;
  }
  for (std::size_t i = 0; i < m; ++i) {
    if (streaming) {
      mk.micro_1row(a[i], bp, k, n, c[i]);
    } else {
      mk.tile_1row(a[i], bp, k, n, n, c[i]);
    }
  }
}

}  // namespace tagnn::ops

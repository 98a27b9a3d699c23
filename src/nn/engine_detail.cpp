#include "nn/engine_detail.hpp"

#include <atomic>
#include <mutex>

#include "common/thread_pool.hpp"

namespace tagnn::detail {

void parallel_vertices(VertexId n,
                       const std::function<void(VertexId, OpCounts&)>& fn,
                       OpCounts& total) {
  std::mutex mu;
  parallel_for(0, n, [&](std::size_t v0, std::size_t v1) {
    OpCounts local;
    for (std::size_t v = v0; v < v1; ++v) {
      fn(static_cast<VertexId>(v), local);
    }
    std::lock_guard<std::mutex> lock(mu);
    total += local;
  }, /*serial_threshold=*/512);
}

std::size_t count_equal_rows(const Matrix& a, const Matrix& b) {
  TAGNN_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  std::atomic<std::size_t> equal{0};
  parallel_for(0, a.rows(), [&](std::size_t r0, std::size_t r1) {
    std::size_t local = 0;
    for (std::size_t r = r0; r < r1; ++r) local += rows_equal(a, b, r);
    equal += local;
  }, /*serial_threshold=*/1024);
  return equal.load();
}

}  // namespace tagnn::detail

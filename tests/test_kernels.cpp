// Equivalence tests for the blocked hot-path kernels and the kernel
// registry. The contract under test: every registered ISA variant (and
// the blocked structure around it) is *value-identical* to the scalar
// references for finite inputs, at any thread count, including the
// row-tile entry's fresh and accumulate modes — so neither swapping the
// kernels under the engines nor forcing TAGNN_KERNEL_ISA can change
// any result.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "graph/datasets.hpp"
#include "nn/approx.hpp"
#include "nn/condense.hpp"
#include "nn/engine.hpp"
#include "nn/gcn.hpp"
#include "nn/quantize.hpp"
#include "nn/rnn.hpp"
#include "tagnn/accelerator.hpp"
#include "tensor/kernel_registry.hpp"
#include "tensor/ops.hpp"
#include "tensor/spmm.hpp"

namespace tagnn {
namespace {

// Forces a dispatch cap for one scope; restores auto on exit.
struct ScopedIsa {
  explicit ScopedIsa(const char* cap) {
    ok = kernels::registry().force_isa(cap, &error);
  }
  ~ScopedIsa() { kernels::registry().force_isa("auto"); }
  bool ok = false;
  std::string error;
};

bool bytes_equal(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

bool bytes_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

Matrix rand_mat(std::size_t r, std::size_t c, std::uint64_t seed,
                float zero_frac = 0.0f) {
  Rng rng(seed);
  Matrix m = Matrix::random(r, c, rng, 1.0f);
  if (zero_frac > 0.0f) {
    // Inject exact zeros so the naive kernel's zero-skip path runs.
    for (std::size_t i = 0; i < m.size(); ++i) {
      if (rng.chance(zero_frac)) m.data()[i] = 0.0f;
    }
  }
  return m;
}

// Produces the listed rows of C through ops::gemm_tile, four rows per
// tile (the last tile partial), tiles spread over the pool.
void gemm_listed_rows(const Matrix& a, const Matrix& b, Matrix& c,
                      const std::vector<std::uint32_t>& rows,
                      bool accumulate = false) {
  parallel_for(0, (rows.size() + 3) / 4, [&](std::size_t t0, std::size_t t1) {
    for (std::size_t t = t0; t < t1; ++t) {
      const std::size_t len = std::min<std::size_t>(4, rows.size() - 4 * t);
      const float* ar[4];
      float* cr[4];
      for (std::size_t i = 0; i < len; ++i) {
        ar[i] = a.row(rows[4 * t + i]).data();
        cr[i] = c.row(rows[4 * t + i]).data();
      }
      ops::gemm_tile({ar, len}, b, {cr, len}, accumulate);
    }
  }, /*serial_threshold=*/1);
}

// ---------- gemm_blocked vs gemm_naive ----------

TEST(GemmBlocked, MatchesNaiveOnOddShapes) {
  // Shapes straddle every tiling boundary: row tails (m % 4), column
  // tails (n % 16), k above and below the single-panel threshold.
  const struct { std::size_t m, k, n; } shapes[] = {
      {1, 1, 1},   {3, 5, 7},    {4, 16, 16},  {17, 62, 33},
      {64, 64, 64}, {70, 130, 96}, {33, 520, 45},  // k > kc: panel split
      {129, 100, 257},                             // n > nc: column split
  };
  for (const auto& s : shapes) {
    const Matrix a = rand_mat(s.m, s.k, /*seed=*/s.m * 1000 + s.n, 0.3f);
    const Matrix b = rand_mat(s.k, s.n, /*seed=*/s.k * 77 + 5);
    Matrix want, got;
    gemm_naive(a, b, want);
    ops::gemm(a, b, got);
    EXPECT_EQ(want, got) << s.m << "x" << s.k << "x" << s.n;
  }
}

TEST(GemmBlocked, MaskedRowsComputeOnlyListedRows) {
  // The row-tile entry produces exactly the caller's rows: full and
  // partial tiles, k past one blocking panel (the streaming form), and
  // n wider than one column panel.
  const struct { std::size_t m, k, n; } shapes[] = {
      {23, 40, 19}, {23, 520, 45}, {23, 100, 257}};
  const std::vector<std::uint32_t> rows = {0, 3, 4, 5, 11, 22};
  for (const auto& s : shapes) {
    const Matrix a = rand_mat(s.m, s.k, 11 + s.k, 0.2f);
    const Matrix b = rand_mat(s.k, s.n, 12 + s.n);
    Matrix full;
    gemm_naive(a, b, full);
    Matrix c(s.m, s.n);
    c.fill(-7.0f);  // sentinel: untouched rows must keep it
    gemm_listed_rows(a, b, c, rows);
    std::size_t next = 0;
    for (std::uint32_t r = 0; r < s.m; ++r) {
      const bool listed = next < rows.size() && rows[next] == r;
      if (listed) ++next;
      for (std::size_t j = 0; j < s.n; ++j) {
        if (listed) {
          EXPECT_EQ(c(r, j), full(r, j)) << "row " << r << " k " << s.k;
        } else {
          EXPECT_EQ(c(r, j), -7.0f) << "row " << r << " was touched";
        }
      }
    }
  }
}

TEST(GemmBlocked, ThreadCountSweepIsBitStable) {
  const Matrix a = rand_mat(150, 120, 21, 0.2f);
  const Matrix b = rand_mat(120, 90, 22);
  Matrix base;
  {
    ScopedGlobalThreadPool one(1);
    ops::gemm(a, b, base);
  }
  for (const std::size_t t : {std::size_t{2}, std::size_t{8}}) {
    ScopedGlobalThreadPool scoped(t);
    Matrix c;
    ops::gemm(a, b, c);
    EXPECT_EQ(base, c) << t << " threads";
  }
}

TEST(GemmBlocked, CustomBlockingMatchesDefault) {
  const Matrix a = rand_mat(37, 95, 31);
  const Matrix b = rand_mat(95, 41, 32);
  Matrix want;
  ops::gemm(a, b, want);
  for (const GemmBlocking blk : {GemmBlocking{8, 16, 4},
                                 GemmBlocking{95, 41, 4},
                                 GemmBlocking{1, 1, 4}}) {
    Matrix got;
    ops::gemm(a, b, got, {.blocking = blk});
    EXPECT_EQ(want, got) << "kc=" << blk.kc << " nc=" << blk.nc;
  }
}

// ---------- spmm vs aggregate_vertex ----------

struct SpmmFixture {
  DynamicGraph g = datasets::load("GT", 0.2, 2);
  const Snapshot& snap = g.snapshot(1);
  const Matrix& x = snap.features;
  VertexId n = g.num_vertices();
};

TEST(SpmmMean, MatchesAggregateVertexExactly) {
  SpmmFixture f;
  Matrix want(f.n, f.x.cols());
  for (VertexId v = 0; v < f.n; ++v) {
    aggregate_vertex(f.snap, f.x, v, want.row(v));
  }
  Matrix csr, naive;
  spmm_mean_csr(f.snap.graph.offsets(), f.snap.graph.neighbor_array(),
                f.snap.present, f.x, {}, csr);
  spmm_mean_naive(f.snap.graph.offsets(), f.snap.graph.neighbor_array(),
                  f.snap.present, f.x, {}, naive);
  EXPECT_EQ(want, csr);
  EXPECT_EQ(want, naive);
}

TEST(SpmmMean, MaskedRowsAndThreadSweep) {
  SpmmFixture f;
  std::vector<VertexId> rows;
  for (VertexId v = 0; v < f.n; v += 3) rows.push_back(v);

  Matrix base(f.n, f.x.cols());
  {
    ScopedGlobalThreadPool one(1);
    spmm_mean_csr(f.snap.graph.offsets(), f.snap.graph.neighbor_array(),
                  f.snap.present, f.x, rows, base);
  }
  for (const std::size_t t : {std::size_t{2}, std::size_t{8}}) {
    ScopedGlobalThreadPool scoped(t);
    Matrix out(f.n, f.x.cols());
    out.fill(-3.0f);
    spmm_mean_csr(f.snap.graph.offsets(), f.snap.graph.neighbor_array(),
                  f.snap.present, f.x, rows, out);
    std::size_t next = 0;
    for (VertexId v = 0; v < f.n; ++v) {
      const bool listed = next < rows.size() && rows[next] == v;
      if (listed) {
        ++next;
        for (std::size_t j = 0; j < base.cols(); ++j) {
          ASSERT_EQ(base(v, j), out(v, j)) << "row " << v << " col " << j;
        }
      } else {
        EXPECT_EQ(out(v, 0), -3.0f) << "row " << v << " was touched";
      }
    }
  }
}

// ---------- engine window pipelining ----------

TEST(EnginePipelining, PipelinedMatchesSerialByteForByte) {
  const DynamicGraph g = datasets::load("ML", 0.25, 6);
  const DgnnWeights w =
      DgnnWeights::init(ModelConfig::preset("T-GCN"), g.feature_dim(), 3);

  for (const bool skip : {false, true}) {
    EngineOptions serial;
    serial.window_size = 2;
    serial.cell_skip = skip;
    serial.pipeline_windows = false;
    EngineOptions piped = serial;
    piped.pipeline_windows = true;

    const EngineResult rs = ConcurrentEngine(serial).run(g, w);
    const EngineResult rp = ConcurrentEngine(piped).run(g, w);
    ASSERT_EQ(rs.outputs.size(), rp.outputs.size());
    for (std::size_t t = 0; t < rs.outputs.size(); ++t) {
      EXPECT_TRUE(rs.outputs[t] == rp.outputs[t])
          << "skip=" << skip << " snapshot " << t;
    }
    EXPECT_TRUE(rs.final_hidden == rp.final_hidden) << "skip=" << skip;
    EXPECT_EQ(rs.gnn_counts.macs, rp.gnn_counts.macs);
    EXPECT_EQ(rs.rnn_counts.rnn_skip, rp.rnn_counts.rnn_skip);
  }
}

TEST(EnginePipelining, PipelinedNoSkipMatchesReferenceAt1_2_8Threads) {
  const DynamicGraph g = datasets::load("GT", 0.3, 4);
  const DgnnWeights w =
      DgnnWeights::init(ModelConfig::preset("CD-GCN"), g.feature_dim(), 5);
  EngineResult baseline;
  {
    ScopedGlobalThreadPool one(1);
    baseline = ReferenceEngine().run(g, w);
  }
  EngineOptions opts;
  opts.cell_skip = false;
  opts.window_size = 2;
  opts.pipeline_windows = true;
  for (const std::size_t t : {std::size_t{1}, std::size_t{2},
                              std::size_t{8}}) {
    ScopedGlobalThreadPool scoped(t);
    const EngineResult r = ConcurrentEngine(opts).run(g, w);
    ASSERT_EQ(r.outputs.size(), baseline.outputs.size());
    for (std::size_t i = 0; i < r.outputs.size(); ++i) {
      EXPECT_TRUE(r.outputs[i] == baseline.outputs[i])
          << t << " threads, snapshot " << i;
    }
    EXPECT_TRUE(r.final_hidden == baseline.final_hidden) << t << " threads";
  }
}

// ---------- approx / quantize paths under the blocked kernels ----------

TEST(ApproxQuantizeThreads, DeterministicAcrossThreadCounts) {
  const DynamicGraph g = datasets::load("GT", 0.2, 4);
  const DgnnWeights w =
      DgnnWeights::init(ModelConfig::preset("T-GCN"), g.feature_dim(), 9);

  EngineResult approx1, quant1;
  {
    ScopedGlobalThreadPool one(1);
    approx1 = run_with_approximation(g, w, ApproxMethod::kDeltaRnn);
    quant1 = run_quantized(g, w, QuantConfig{});
  }
  for (const std::size_t t : {std::size_t{2}, std::size_t{8}}) {
    ScopedGlobalThreadPool scoped(t);
    const EngineResult a = run_with_approximation(g, w,
                                                  ApproxMethod::kDeltaRnn);
    const EngineResult q = run_quantized(g, w, QuantConfig{});
    ASSERT_EQ(a.outputs.size(), approx1.outputs.size());
    for (std::size_t i = 0; i < a.outputs.size(); ++i) {
      EXPECT_TRUE(a.outputs[i] == approx1.outputs[i]) << t << " threads";
    }
    ASSERT_EQ(q.outputs.size(), quant1.outputs.size());
    for (std::size_t i = 0; i < q.outputs.size(); ++i) {
      EXPECT_TRUE(q.outputs[i] == quant1.outputs[i]) << t << " threads";
    }
  }
  // The approximations stay approximations: bounded drift from exact.
  const EngineResult exact = ReferenceEngine().run(g, w);
  ASSERT_EQ(exact.outputs.size(), approx1.outputs.size());
  for (std::size_t i = 0; i < exact.outputs.size(); ++i) {
    EXPECT_LT(max_abs_diff(exact.outputs[i], approx1.outputs[i]), 1.0f);
    EXPECT_LT(max_abs_diff(exact.outputs[i], quant1.outputs[i]), 1.0f);
  }
}

// ---------- accelerator window pipelining ----------

TEST(AccelPipelining, PipelinedIsFasterAndKeepsInvariants) {
  const DynamicGraph g = datasets::load("GT", 0.2, 8);
  const DgnnWeights w =
      DgnnWeights::init(ModelConfig::preset("T-GCN"), g.feature_dim(), 2);

  TagnnConfig serial;
  serial.pipeline_windows = false;
  TagnnConfig piped;
  piped.pipeline_windows = true;

  const AccelResult rs = TagnnAccelerator(serial).run(g, w);
  const AccelResult rp = TagnnAccelerator(piped).run(g, w);

  // Functional results do not depend on the timing model.
  EXPECT_TRUE(rs.functional.final_hidden == rp.functional.final_hidden);
  // Per-unit work is schedule-independent; only the makespan shrinks.
  EXPECT_EQ(rs.cycles.msdl, rp.cycles.msdl);
  EXPECT_EQ(rs.cycles.gnn, rp.cycles.gnn);
  EXPECT_EQ(rs.cycles.rnn, rp.cycles.rnn);
  EXPECT_EQ(rs.cycles.memory, rp.cycles.memory);
  EXPECT_LT(rp.cycles.total, rs.cycles.total);

  // The pipelined schedule still dominates every unit's busy sum, so
  // busy + stall == total stays exact, and the window records tile the
  // timeline.
  for (const AccelResult* r : {&rs, &rp}) {
    Cycle at = 0;
    for (const AccelWindowRecord& rec : r->telemetry.window_records) {
      EXPECT_EQ(rec.begin, at);
      at += rec.total;
    }
    EXPECT_EQ(at, r->cycles.total);
    EXPECT_GE(r->cycles.total, r->cycles.msdl);
    EXPECT_GE(r->cycles.total, r->cycles.gnn);
    EXPECT_GE(r->cycles.total, r->cycles.rnn);
    EXPECT_GE(r->cycles.total, r->cycles.memory);
  }
}

// ---------- kernel registry: introspection + ISA dispatch ----------

TEST(KernelRegistry, IntrospectionListsOpsAndVariants) {
  auto& reg = kernels::registry();
  for (const char* op : {"gemm", "spmm", "vec"}) {
    const std::vector<std::string> vs = reg.variants(op);
    ASSERT_FALSE(vs.empty()) << op;
    // The scalar reference is always registered and always eligible.
    EXPECT_NE(std::find(vs.begin(), vs.end(), "scalar"), vs.end()) << op;
    EXPECT_FALSE(reg.active(op).empty()) << op;
  }
  EXPECT_TRUE(reg.active("no-such-op").empty());
  const auto pairs = reg.active_variants();
  ASSERT_EQ(pairs.size(), 3u);
  EXPECT_EQ(pairs[0].first, "gemm");
  EXPECT_EQ(pairs[1].first, "spmm");
  EXPECT_EQ(pairs[2].first, "vec");
}

TEST(KernelRegistry, ForceIsaRejectsUnknownNames) {
  std::string error;
  EXPECT_FALSE(kernels::registry().force_isa("sse42", &error));
  EXPECT_FALSE(error.empty());
  // A failed force leaves the active selection untouched.
  EXPECT_FALSE(kernels::registry().active("gemm").empty());
}

TEST(KernelRegistry, ForcedScalarServesScalarEverywhere) {
  ScopedIsa scalar("scalar");
  ASSERT_TRUE(scalar.ok) << scalar.error;
  for (const char* op : {"gemm", "spmm", "vec"}) {
    EXPECT_EQ(kernels::registry().active(op), "scalar") << op;
  }
  EXPECT_EQ(kernels::registry().active_isa(), kernels::Isa::kScalar);
}

// Every SIMD variant must be BIT-exact (memcmp, not epsilon) with the
// scalar kernels across tiling boundaries, masked rows, accumulate
// mode, and thread counts — TAGNN_KERNEL_ISA may never change results.
TEST(KernelRegistry, IsaSweepIsBitExactOnOddShapes) {
  if (!kernels::CpuFeatures::host().avx2) {
    GTEST_SKIP() << "host has no AVX2; scalar is the only variant";
  }
  const struct { std::size_t m, k, n; } shapes[] = {
      {1, 1, 1},  {3, 5, 7},   {4, 16, 16},   {17, 62, 33},
      {5, 9, 23},  // k and n straddle the 8-lane vector width
      {70, 130, 96}, {33, 520, 45}, {129, 100, 257},
  };
  for (const auto& s : shapes) {
    const Matrix a = rand_mat(s.m, s.k, /*seed=*/s.m * 991 + s.n, 0.3f);
    const Matrix b = rand_mat(s.k, s.n, /*seed=*/s.k * 13 + 1);
    Matrix want, got;
    {
      ScopedIsa scalar("scalar");
      ASSERT_TRUE(scalar.ok) << scalar.error;
      ops::gemm(a, b, want);
    }
    {
      ScopedIsa avx2("avx2");
      ASSERT_TRUE(avx2.ok) << avx2.error;
      ops::gemm(a, b, got);
    }
    EXPECT_TRUE(bytes_equal(want, got))
        << s.m << "x" << s.k << "x" << s.n;
  }
}

TEST(KernelRegistry, IsaSweepMaskedAccumulateAndThreads) {
  if (!kernels::CpuFeatures::host().avx2) {
    GTEST_SKIP() << "host has no AVX2; scalar is the only variant";
  }
  const Matrix a = rand_mat(37, 41, 51, 0.2f);
  const Matrix b = rand_mat(41, 29, 52);
  const std::vector<std::uint32_t> rows = {0, 1, 5, 6, 7, 19, 36};
  auto run = [&](const char* cap, std::size_t threads) {
    ScopedIsa isa(cap);
    EXPECT_TRUE(isa.ok) << isa.error;
    ScopedGlobalThreadPool pool(threads);
    Matrix c(37, 29);
    c.fill(0.25f);  // accumulate on top of a non-zero C
    gemm_listed_rows(a, b, c, rows, /*accumulate=*/true);
    return c;
  };
  const Matrix want = run("scalar", 1);
  for (const std::size_t t : {std::size_t{1}, std::size_t{2},
                              std::size_t{8}}) {
    EXPECT_TRUE(bytes_equal(want, run("scalar", t))) << "scalar/" << t;
    EXPECT_TRUE(bytes_equal(want, run("avx2", t))) << "avx2/" << t;
  }
}

TEST(KernelRegistry, IsaSweepSpmmBitExact) {
  if (!kernels::CpuFeatures::host().avx2) {
    GTEST_SKIP() << "host has no AVX2; scalar is the only variant";
  }
  SpmmFixture f;
  auto run = [&](const char* cap) {
    ScopedIsa isa(cap);
    EXPECT_TRUE(isa.ok) << isa.error;
    Matrix out(f.n, f.x.cols());
    spmm_mean_csr(f.snap.graph.offsets(), f.snap.graph.neighbor_array(),
                  f.snap.present, f.x, {}, out);
    return out;
  };
  EXPECT_TRUE(bytes_equal(run("scalar"), run("avx2")));
}

// ---------- row-tile accumulate mode vs the gemv path ----------

// The RNN batch path relies on this: prefilling C rows (bias) and
// accumulating row tiles on top reproduces the accumulate-mode gemv
// exactly, row by row.
TEST(GemmAccumulate, MatchesAccumulatingGemvPerRow) {
  const Matrix a = rand_mat(19, 33, 61, 0.3f);
  const Matrix b = rand_mat(33, 24, 62);
  const Matrix bias = rand_mat(1, 24, 63);
  const std::vector<std::uint32_t> rows = {2, 3, 4, 9, 18};

  Matrix want(19, 24);
  std::vector<float> wrow(24);
  for (const std::uint32_t r : rows) {
    std::copy(bias.row(0).begin(), bias.row(0).end(), wrow.begin());
    ops::gemv(a.row(r), b, wrow, {.accumulate = true});
    std::copy(wrow.begin(), wrow.end(), want.row(r).begin());
  }

  Matrix got(19, 24);
  for (const std::uint32_t r : rows) {
    std::copy(bias.row(0).begin(), bias.row(0).end(), got.row(r).begin());
  }
  gemm_listed_rows(a, b, got, rows, /*accumulate=*/true);
  for (const std::uint32_t r : rows) {
    for (std::size_t j = 0; j < 24; ++j) {
      EXPECT_EQ(want(r, j), got(r, j)) << "row " << r << " col " << j;
    }
  }
}

// ---------- batched RNN full updates vs the per-vertex path ----------

TEST(RnnBatch, FullUpdateRowsMatchesPerVertex) {
  for (const char* preset : {"T-GCN", "CD-GCN"}) {  // GRU and LSTM
    const DgnnWeights w =
        DgnnWeights::init(ModelConfig::preset(preset), 12, 7);
    const RnnCell cell(w);
    const std::size_t n = 31;
    const Matrix z = rand_mat(n, cell.input_dim(), 71, 0.2f);
    const Matrix h0 = rand_mat(n, cell.hidden(), 72);
    const Matrix c0 = rand_mat(n, cell.cell_state_dim(), 73);
    const Matrix cache0 = rand_mat(n, cell.cache_dim(), 74);
    std::vector<VertexId> rows;
    for (VertexId v = 0; v < n; v += 2) rows.push_back(v);

    Matrix h_want = h0, c_want = c0, cache_want = cache0;
    OpCounts counts_want;
    for (const VertexId v : rows) {
      cell.full_update(z.row(v), h_want.row(v), c_want.row(v),
                       h_want.row(v), c_want.row(v), cache_want.row(v),
                       counts_want);
    }

    Matrix h_got = h0, c_got = c0, cache_got = cache0;
    OpCounts counts_got;
    RnnBatchScratch ws;
    cell.full_update_rows(z, rows, h_got, c_got, cache_got, ws, counts_got);

    EXPECT_TRUE(h_want == h_got) << preset;
    EXPECT_TRUE(c_want == c_got) << preset;
    EXPECT_TRUE(cache_want == cache_got) << preset;
    EXPECT_EQ(counts_want.macs, counts_got.macs) << preset;
    EXPECT_EQ(counts_want.rnn_full, counts_got.rnn_full) << preset;
    EXPECT_EQ(counts_want.feature_bytes, counts_got.feature_bytes) << preset;
  }
}

// ---------- batched activation kernels ----------

// The polynomial sigmoid/tanh must be bit-identical across ISAs (the
// engine equivalence below depends on it) and within a few ulp of libm
// over the whole gate input range, including the saturation clamps.
TEST(IsaSweep, ActivationsBitExactAndNearLibm) {
  std::vector<float> x;
  for (float v = -30.0f; v <= 30.0f; v += 0.37f) x.push_back(v);
  for (float v : {-200.0f, -88.5f, -1e-6f, 0.0f, 1e-6f, 88.5f, 200.0f}) {
    x.push_back(v);
  }
  const std::size_t n = x.size();
  std::vector<float> sig_s(n), tanh_s(n);
  {
    ScopedIsa isa("scalar");
    ASSERT_TRUE(isa.ok) << isa.error;
    const kernels::VecKernels vk = kernels::registry().vec();
    vk.sigmoid_n(x.data(), n, sig_s.data());
    vk.tanh_n(x.data(), n, tanh_s.data());
  }
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(sig_s[i], 1.0f / (1.0f + std::exp(-x[i])), 2e-7f)
        << "sigmoid(" << x[i] << ")";
    EXPECT_NEAR(tanh_s[i], std::tanh(x[i]), 4e-7f) << "tanh(" << x[i] << ")";
  }
  if (!kernels::CpuFeatures::host().avx2) {
    GTEST_SKIP() << "host has no AVX2; scalar is the only variant";
  }
  std::vector<float> sig_v(n), tanh_v(n);
  {
    ScopedIsa isa("avx2");
    ASSERT_TRUE(isa.ok) << isa.error;
    const kernels::VecKernels vk = kernels::registry().vec();
    vk.sigmoid_n(x.data(), n, sig_v.data());
    vk.tanh_n(x.data(), n, tanh_v.data());
  }
  EXPECT_TRUE(bytes_equal(sig_s, sig_v));
  EXPECT_TRUE(bytes_equal(tanh_s, tanh_v));
}

// ---------- Condense Unit delta kernel ----------

// Frozen copy of dense_delta's loop as it was before it moved into the
// registry. The scalar delta_n must reproduce it bit for bit.
std::size_t frozen_dense_delta(const float* cur, float* applied, float eps,
                               std::size_t n, float* out) {
  std::size_t nnz = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const float d = cur[i] - applied[i];
    const bool keep = d > eps || d < -eps;
    out[i] = keep ? d : 0.0f;
    applied[i] = keep ? cur[i] : applied[i];
    nnz += keep;
  }
  return nnz;
}

// delta_n: the scalar kernel equals the frozen loop and the AVX2 kernel
// equals the scalar one, byte for byte (out, applied and the kept
// count), over every tail length of the 8-lane body. Delta lanes
// include deltas of exactly +-eps (dropped), +-0, subnormals, NaN and
// +-Inf.
TEST(IsaSweep, DeltaKernelBitExactAndMatchesFrozenLoop) {
  const kernels::VecKernels& scalar =
      kernels::registry().vec(kernels::Isa::kScalar);
  const bool has_avx2 = kernels::CpuFeatures::host().avx2;
  const kernels::VecKernels& avx2 =
      kernels::registry().vec(kernels::Isa::kAvx2);
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float sub = std::numeric_limits<float>::denorm_min();

  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 19; ++n) lengths.push_back(n);
  lengths.push_back(48);
  lengths.push_back(144);
  for (const float eps : {0.01f, 0.0f, 4.0f * sub}) {
    const float above = std::nextafter(eps, inf);
    // (cur, applied) pairs whose delta sits on a keep/drop edge.
    const std::pair<float, float> specials[] = {
        {eps, 0.0f},   {-eps, 0.0f},   {above, 0.0f},  {-above, 0.0f},
        {0.0f, -0.0f}, {-0.0f, 0.0f},  {sub, 0.0f},    {0.0f, 3.0f * sub},
        {nan, 1.0f},   {1.0f, nan},    {nan, nan},     {inf, 1.0f},
        {-inf, 0.0f},  {inf, inf},     {1.0f, -inf},   {0.5f, 0.5f},
    };
    for (const std::size_t n : lengths) {
      Rng rng(1000 + n);
      std::vector<float> cur(n), applied(n);
      for (std::size_t i = 0; i < n; ++i) {
        if (i % 3 != 2) {
          const auto& [c, a] = specials[(i + n) % std::size(specials)];
          cur[i] = c;
          applied[i] = a;
        } else {
          applied[i] = rng.uniform(-1.0f, 1.0f);
          cur[i] = applied[i] + rng.uniform(-0.03f, 0.03f);
        }
      }
      std::vector<float> app_f = applied, out_f(n, -1.0f);
      const std::size_t kept_f =
          frozen_dense_delta(cur.data(), app_f.data(), eps, n, out_f.data());
      std::vector<float> app_s = applied, out_s(n, -1.0f);
      const std::size_t kept_s =
          scalar.delta_n(cur.data(), app_s.data(), eps, n, out_s.data());
      EXPECT_EQ(kept_f, kept_s) << "n " << n << " eps " << eps;
      EXPECT_TRUE(bytes_equal(out_f, out_s)) << "n " << n << " eps " << eps;
      EXPECT_TRUE(bytes_equal(app_f, app_s)) << "n " << n << " eps " << eps;
      if (!has_avx2) continue;
      std::vector<float> app_v = applied, out_v(n, -1.0f);
      const std::size_t kept_v =
          avx2.delta_n(cur.data(), app_v.data(), eps, n, out_v.data());
      EXPECT_EQ(kept_s, kept_v) << "n " << n << " eps " << eps;
      EXPECT_TRUE(bytes_equal(out_s, out_v)) << "n " << n << " eps " << eps;
      EXPECT_TRUE(bytes_equal(app_s, app_v)) << "n " << n << " eps " << eps;
    }
  }

  if (!has_avx2) {
    GTEST_SKIP() << "host has no AVX2; scalar is the only variant";
  }
}

TEST(RnnBatch, DeltaUpdateRowsMatchesPerVertex) {
  for (const char* preset : {"T-GCN", "CD-GCN"}) {  // GRU and LSTM
    const DgnnWeights w =
        DgnnWeights::init(ModelConfig::preset(preset), 12, 7);
    const RnnCell cell(w);
    const std::size_t n = 29;
    const float eps = 0.01f;
    // Applied values drift from the current ones by up to 0.1 per lane,
    // with every third lane unchanged, so the Condense Unit keeps most
    // lanes and drops the rest.
    const Matrix z = rand_mat(n, cell.input_dim(), 81);
    const Matrix h0 = rand_mat(n, cell.hidden(), 83);
    Matrix za0 = z, ha0 = h0;
    for (Matrix* m : {&za0, &ha0}) {
      const Matrix drift = rand_mat(n, m->cols(), 82, 0.0f);
      for (std::size_t i = 0; i < m->size(); ++i) {
        if (i % 3 != 1) m->data()[i] += 0.1f * drift.data()[i];
      }
    }
    const Matrix c0 = rand_mat(n, cell.cell_state_dim(), 84);
    const Matrix cache0 = rand_mat(n, cell.cache_dim(), 85);
    std::vector<VertexId> rows;
    for (VertexId v = 0; v < n; v += 2) rows.push_back(v);  // 15: 3 left over

    // Per vertex: condense each delta, then fold it lane by lane.
    Matrix h_want = h0, c_want = c0, cache_want = cache0;
    Matrix za_want = za0, ha_want = ha0;
    Matrix dx(n, cell.input_dim()), dh(n, cell.hidden());
    OpCounts counts_want;
    for (const VertexId v : rows) {
      dense_delta(z.row(v), za_want.row(v), eps, dx.row(v));
      dense_delta(h_want.row(v), ha_want.row(v), eps, dh.row(v));
      cell.delta_update(dx.row(v), dh.row(v), h_want.row(v), c_want.row(v),
                        h_want.row(v), c_want.row(v), cache_want.row(v),
                        counts_want);
    }
    // Staged reference for the cache: both gate products as whole-matrix
    // GEMMs, then the fold — the batch must reproduce it bit for bit.
    Matrix xp, hp;
    ops::gemm(dx, w.rnn_wx, xp);
    ops::gemm(dh, w.rnn_wh, hp);
    Matrix cache_staged = cache0;
    const std::size_t gh = xp.cols();
    for (const VertexId v : rows) {
      float* cr = cache_staged.row(v).data();
      for (std::size_t j = 0; j < gh; ++j) {
        if (cell.kind() == RnnKind::kLstm) {
          cr[j] = (cr[j] + xp(v, j)) + hp(v, j);
        } else {
          cr[j] += xp(v, j);
          cr[gh + j] += hp(v, j);
        }
      }
    }

    for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                      std::size_t{8}}) {
      ScopedGlobalThreadPool pool(threads);
      Matrix h_got = h0, c_got = c0, cache_got = cache0;
      Matrix za_got = za0, ha_got = ha0;
      OpCounts counts_got;
      cell.delta_update_rows(z, rows, eps, za_got, ha_got, h_got, c_got,
                             cache_got, counts_got);

      EXPECT_TRUE(bytes_equal(cache_staged, cache_got)) << preset;
      EXPECT_TRUE(bytes_equal(za_want, za_got)) << preset;
      EXPECT_TRUE(bytes_equal(ha_want, ha_got)) << preset;
      // The batch forms each lane sum before folding it onto the cache,
      // so values match the per-lane fold only up to reassociation.
      for (std::size_t i = 0; i < cache_want.size(); ++i) {
        EXPECT_NEAR(cache_want.data()[i], cache_got.data()[i], 1e-4f)
            << preset << " cache idx " << i;
      }
      for (std::size_t i = 0; i < h_want.size(); ++i) {
        EXPECT_NEAR(h_want.data()[i], h_got.data()[i], 1e-4f)
            << preset << " h idx " << i;
      }
      EXPECT_EQ(counts_want.macs, counts_got.macs) << preset;
      EXPECT_EQ(counts_want.delta_nnz, counts_got.delta_nnz) << preset;
      EXPECT_EQ(counts_want.rnn_delta, counts_got.rnn_delta) << preset;
      EXPECT_EQ(counts_want.feature_bytes, counts_got.feature_bytes)
          << preset;
    }
  }
}

// ---------- forced-scalar engine equivalence ----------

// The whole engine stack must produce value-identical outputs whichever
// ISA serves the kernels — the CI forced-scalar leg runs the full test
// suite under TAGNN_KERNEL_ISA=scalar and relies on this.
TEST(KernelRegistry, EngineOutputsIsaIndependent) {
  if (!kernels::CpuFeatures::host().avx2) {
    GTEST_SKIP() << "host has no AVX2; scalar is the only variant";
  }
  const DynamicGraph g = datasets::load("GT", 0.25, 4);
  const DgnnWeights w =
      DgnnWeights::init(ModelConfig::preset("T-GCN"), g.feature_dim(), 3);
  auto run = [&](const char* cap) {
    ScopedIsa isa(cap);
    EXPECT_TRUE(isa.ok) << isa.error;
    EngineOptions opts;
    opts.window_size = 2;
    return ConcurrentEngine(opts).run(g, w);
  };
  const EngineResult rs = run("scalar");
  const EngineResult rv = run("avx2");
  ASSERT_EQ(rs.outputs.size(), rv.outputs.size());
  for (std::size_t t = 0; t < rs.outputs.size(); ++t) {
    EXPECT_TRUE(rs.outputs[t] == rv.outputs[t]) << "snapshot " << t;
  }
  EXPECT_TRUE(rs.final_hidden == rv.final_hidden);
  EXPECT_EQ(rs.rnn_counts.rnn_skip, rv.rnn_counts.rnn_skip);
  EXPECT_EQ(rs.gnn_counts.macs, rv.gnn_counts.macs);
}

}  // namespace
}  // namespace tagnn

// Concurrency stress tests for the thread pool and the engines, written
// to be meaningful under ThreadSanitizer (build the `tsan` preset): many
// producers hammering one pool, nested parallel_for from inside workers,
// throwing tasks, shutdown paths, and bit-exact engine equivalence at
// fixed worker counts.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"
#include "graph/datasets.hpp"
#include "nn/engine.hpp"
#include "tensor/ops.hpp"

namespace tagnn {
namespace {

// ---------- ThreadPool ----------

TEST(ThreadPoolStress, ManyProducersShareOnePool) {
  ThreadPool pool(4);
  constexpr std::size_t kProducers = 8;
  constexpr std::size_t kRounds = 25;
  constexpr std::size_t kRange = 10000;
  std::vector<std::uint64_t> sums(kProducers, 0);
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t round = 0; round < kRounds; ++round) {
        std::atomic<std::uint64_t> sum{0};
        pool.parallel_for(0, kRange, [&](std::size_t b, std::size_t e) {
          std::uint64_t local = 0;
          for (std::size_t i = b; i < e; ++i) local += i;
          sum.fetch_add(local, std::memory_order_relaxed);
        });
        sums[p] = sum.load();
      }
    });
  }
  for (auto& t : producers) t.join();
  const std::uint64_t expect =
      static_cast<std::uint64_t>(kRange) * (kRange - 1) / 2;
  for (std::size_t p = 0; p < kProducers; ++p) {
    EXPECT_EQ(sums[p], expect) << "producer " << p;
  }
}

TEST(ThreadPoolStress, NestedParallelForFromWorker) {
  ThreadPool pool(4);
  std::atomic<std::uint64_t> total{0};
  pool.parallel_for(0, 64, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      // Enqueue-from-worker: a chunk body issues its own parallel_for on
      // the same pool. The caller drains its own chunks, so this cannot
      // deadlock even with every worker nesting at once.
      std::atomic<std::uint64_t> inner{0};
      pool.parallel_for(0, 100, [&](std::size_t ib, std::size_t ie) {
        inner.fetch_add(ie - ib, std::memory_order_relaxed);
      });
      total.fetch_add(inner.load(), std::memory_order_relaxed);
    }
  });
  EXPECT_EQ(total.load(), 64u * 100u);
}

TEST(ThreadPoolStress, ExceptionFromOneChunkPropagates) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(0, 1000,
                        [&](std::size_t b, std::size_t) {
                          if (b == 0) throw std::runtime_error("chunk 0");
                        }),
      std::runtime_error);
  // The pool must stay usable after a throwing task.
  std::atomic<std::size_t> visited{0};
  pool.parallel_for(0, 1000, [&](std::size_t b, std::size_t e) {
    visited.fetch_add(e - b, std::memory_order_relaxed);
  });
  EXPECT_EQ(visited.load(), 1000u);
}

TEST(ThreadPoolStress, EveryChunkThrowingStillPropagatesExactlyOne) {
  ThreadPool pool(8);
  for (int round = 0; round < 20; ++round) {
    try {
      pool.parallel_for(0, 4096, [&](std::size_t, std::size_t) {
        throw std::runtime_error("boom");
      });
      FAIL() << "parallel_for swallowed the exceptions";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom");
    }
  }
}

TEST(ThreadPoolStress, ConcurrentProducersWithThrowingTasks) {
  ThreadPool pool(4);
  constexpr std::size_t kProducers = 6;
  std::atomic<std::size_t> caught{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int round = 0; round < 20; ++round) {
        try {
          pool.parallel_for(0, 2048, [&](std::size_t b, std::size_t) {
            // Odd producers throw from every chunk, even ones only from
            // the first chunk, so failing and healthy tasks interleave.
            if (p % 2 == 1 || b == 0) throw std::length_error("stress");
          });
        } catch (const std::length_error&) {
          caught.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(caught.load(), kProducers * 20);
}

TEST(ThreadPoolStress, RapidCreateDestroy) {
  // Shutdown-while-idle and shutdown-immediately paths: the destructor
  // must never hang or race the workers' startup.
  for (int round = 0; round < 50; ++round) {
    ThreadPool pool(4);
    if (round % 2 == 0) {
      std::atomic<std::size_t> n{0};
      pool.parallel_for(0, 256, [&](std::size_t b, std::size_t e) {
        n.fetch_add(e - b, std::memory_order_relaxed);
      });
      ASSERT_EQ(n.load(), 256u);
    }
    // Odd rounds destroy the pool without ever submitting work.
  }
}

TEST(ThreadPoolStress, DestroyImmediatelyAfterLastTaskReturns) {
  // parallel_for returning means all chunks completed; destroying right
  // away exercises the window where workers are re-checking task_.
  for (int round = 0; round < 50; ++round) {
    auto pool = std::make_unique<ThreadPool>(4);
    std::atomic<std::size_t> n{0};
    pool->parallel_for(0, 1024, [&](std::size_t b, std::size_t e) {
      n.fetch_add(e - b, std::memory_order_relaxed);
    });
    pool.reset();
    ASSERT_EQ(n.load(), 1024u);
  }
}

TEST(ThreadPoolStress, GlobalOverrideIsScoped) {
  ThreadPool& before = ThreadPool::global();
  {
    ScopedGlobalThreadPool scoped(3);
    EXPECT_EQ(&ThreadPool::global(), &scoped.pool());
    EXPECT_EQ(scoped.pool().size(), 2u);  // caller participates as #3
  }
  EXPECT_EQ(&ThreadPool::global(), &before);
}

// ---------- Engine equivalence at fixed worker counts ----------

struct Scenario {
  DynamicGraph g;
  DgnnWeights w;
};

Scenario make_scenario() {
  // Scale 0.5 keeps GT near 925 vertices: above the parallel_for serial
  // thresholds (512 in parallel_vertices, 64 rows in gemm), so the
  // engines genuinely fan out across the pool under test.
  DynamicGraph g = datasets::load("GT", 0.5, 4);
  ModelConfig cfg = ModelConfig::preset("T-GCN");
  DgnnWeights w = DgnnWeights::init(cfg, g.feature_dim(), 7);
  return {std::move(g), std::move(w)};
}

// Every OpCounts field, exactly: the engines count from per-chunk
// integer partials, so the totals cannot depend on the thread count.
void expect_counts_equal(const OpCounts& a, const OpCounts& b,
                         const std::string& what) {
  EXPECT_EQ(a.macs, b.macs) << what;
  EXPECT_EQ(a.adds, b.adds) << what;
  EXPECT_EQ(a.activations, b.activations) << what;
  EXPECT_EQ(a.feature_bytes, b.feature_bytes) << what;
  EXPECT_EQ(a.weight_bytes, b.weight_bytes) << what;
  EXPECT_EQ(a.structure_bytes, b.structure_bytes) << what;
  EXPECT_EQ(a.output_bytes, b.output_bytes) << what;
  EXPECT_EQ(a.redundant_bytes, b.redundant_bytes) << what;
  EXPECT_EQ(a.gnn_vertex_computed, b.gnn_vertex_computed) << what;
  EXPECT_EQ(a.gnn_vertex_reused, b.gnn_vertex_reused) << what;
  EXPECT_EQ(a.rnn_full, b.rnn_full) << what;
  EXPECT_EQ(a.rnn_delta, b.rnn_delta) << what;
  EXPECT_EQ(a.rnn_skip, b.rnn_skip) << what;
  EXPECT_EQ(a.similarity_scores, b.similarity_scores) << what;
  EXPECT_EQ(a.delta_nnz, b.delta_nnz) << what;
}

TEST(EngineThreadsStress, ConcurrentMatchesReferenceAt1_2_8Threads) {
  const Scenario s = make_scenario();

  EngineOptions copts;
  copts.cell_skip = false;  // exact mode: concurrent == reference
  copts.window_size = 2;

  EngineResult baseline, con_baseline;
  {
    ScopedGlobalThreadPool one(1);
    baseline = ReferenceEngine().run(s.g, s.w);
    con_baseline = ConcurrentEngine(copts).run(s.g, s.w);
  }

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    ScopedGlobalThreadPool scoped(threads);
    const EngineResult ref = ReferenceEngine().run(s.g, s.w);
    const EngineResult con = ConcurrentEngine(copts).run(s.g, s.w);
    ASSERT_EQ(ref.outputs.size(), baseline.outputs.size());
    ASSERT_EQ(con.outputs.size(), baseline.outputs.size());
    for (std::size_t t = 0; t < baseline.outputs.size(); ++t) {
      EXPECT_EQ(max_abs_diff(ref.outputs[t], baseline.outputs[t]), 0.0f)
          << "reference diverged at " << threads << " threads, snapshot "
          << t;
      EXPECT_EQ(max_abs_diff(con.outputs[t], baseline.outputs[t]), 0.0f)
          << "concurrent diverged at " << threads << " threads, snapshot "
          << t;
    }
    EXPECT_EQ(max_abs_diff(ref.final_hidden, baseline.final_hidden), 0.0f);
    EXPECT_EQ(max_abs_diff(con.final_hidden, baseline.final_hidden), 0.0f);
    const std::string at = " at " + std::to_string(threads) + " threads";
    expect_counts_equal(ref.total_counts(), baseline.total_counts(),
                        "reference counts" + at);
    expect_counts_equal(con.total_counts(), con_baseline.total_counts(),
                        "concurrent counts" + at);
  }
}

TEST(EngineThreadsStress, ConcurrentEngineRunsConcurrentlyFromManyThreads) {
  // Two engine runs sharing one pool from different threads: the engines
  // keep all mutable state on their own stacks, so results must match a
  // serial run bit for bit.
  const Scenario s = make_scenario();
  EngineOptions opts;
  opts.cell_skip = false;
  opts.window_size = 2;
  opts.store_outputs = false;

  Matrix serial_hidden;
  {
    ScopedGlobalThreadPool one(1);
    serial_hidden = ConcurrentEngine(opts).run(s.g, s.w).final_hidden;
  }

  ScopedGlobalThreadPool scoped(4);
  constexpr std::size_t kRunners = 4;
  std::vector<Matrix> hidden(kRunners);
  std::vector<std::thread> runners;
  runners.reserve(kRunners);
  for (std::size_t r = 0; r < kRunners; ++r) {
    runners.emplace_back([&, r] {
      hidden[r] = ConcurrentEngine(opts).run(s.g, s.w).final_hidden;
    });
  }
  for (auto& t : runners) t.join();
  for (std::size_t r = 0; r < kRunners; ++r) {
    EXPECT_EQ(max_abs_diff(hidden[r], serial_hidden), 0.0f)
        << "runner " << r;
  }
}

TEST(EngineThreadsStress, PipelinedOverheadPrefetchIsRaceFreeAndExact) {
  // The pipelined engine computes window i+1's overhead phase on a
  // std::async helper while window i's GNN/RNN runs on the pool — under
  // TSan this exercises the helper thread against the pool workers.
  // Many short windows maximise the number of prefetch handoffs. The
  // plan hook appends to an unsynchronised vector: only the prefetch
  // futures order its calls, so TSan flags a missing edge, and the
  // vector must list every window once, in order.
  const Scenario s = make_scenario();
  EngineOptions opts;
  opts.window_size = 1;  // one handoff per snapshot
  opts.store_outputs = false;
  std::vector<SnapshotId> all_starts(s.g.num_snapshots());
  std::iota(all_starts.begin(), all_starts.end(), SnapshotId{0});
  auto record_starts = [](std::vector<SnapshotId>* starts) {
    return [starts](const WindowPlan& plan) {
      starts->push_back(plan.window().start);
    };
  };

  Matrix serial_hidden;
  {
    EngineOptions serial = opts;
    serial.pipeline_windows = false;
    ScopedGlobalThreadPool one(1);
    serial_hidden = ConcurrentEngine(serial).run(s.g, s.w).final_hidden;
  }

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    ScopedGlobalThreadPool scoped(threads);
    for (const bool piped : {true, false}) {
      EngineOptions o = opts;
      o.pipeline_windows = piped;
      std::vector<SnapshotId> starts;
      const EngineResult r = ConcurrentEngine(o).run(
          s.g, s.w, nullptr, record_starts(&starts));
      EXPECT_EQ(starts, all_starts)
          << threads << " threads, pipelined " << piped;
      EXPECT_EQ(max_abs_diff(r.final_hidden, serial_hidden), 0.0f)
          << threads << " threads, pipelined " << piped;
    }
  }

  ScopedGlobalThreadPool scoped(4);
  constexpr std::size_t kRunners = 3;
  constexpr int kRounds = 5;
  std::vector<Matrix> hidden(kRunners);
  std::vector<std::vector<SnapshotId>> starts(kRunners);
  std::vector<std::thread> runners;
  runners.reserve(kRunners);
  for (std::size_t r = 0; r < kRunners; ++r) {
    runners.emplace_back([&, r] {
      for (int round = 0; round < kRounds; ++round) {
        starts[r].clear();
        hidden[r] = ConcurrentEngine(opts)
                        .run(s.g, s.w, nullptr, record_starts(&starts[r]))
                        .final_hidden;
      }
    });
  }
  for (auto& t : runners) t.join();
  for (std::size_t r = 0; r < kRunners; ++r) {
    EXPECT_EQ(max_abs_diff(hidden[r], serial_hidden), 0.0f)
        << "runner " << r;
    EXPECT_EQ(starts[r], all_starts) << "runner " << r;
  }
}

}  // namespace
}  // namespace tagnn

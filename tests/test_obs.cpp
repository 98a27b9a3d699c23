// Tests for the telemetry subsystem: metrics registry (including
// multi-threaded aggregation, exercised under TSan in that preset),
// histogram quantile math, Chrome trace emission (golden file), the
// JSON validator, CLI flag plumbing, and the accelerator's utilization
// attribution consistency guarantees.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <sstream>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"
#include "graph/datasets.hpp"
#include "obs/cli.hpp"
#include "obs/jsonv.hpp"
#include "obs/metrics.hpp"
#include "obs/timer.hpp"
#include "obs/trace.hpp"
#include "tagnn/accelerator.hpp"
#include "tagnn/report.hpp"

namespace tagnn {
namespace {

// With -DTAGNN_TELEMETRY=OFF every recording call is a no-op by design,
// so tests asserting recorded values skip. Evaluate after a
// ScopedTelemetryEnabled(true) guard so the ON build never skips.
#define TAGNN_REQUIRE_TELEMETRY()                                      \
  if (!obs::telemetry_enabled()) {                                     \
    GTEST_SKIP() << "telemetry compiled out (TAGNN_TELEMETRY=OFF)";    \
  }                                                                    \
  static_assert(true, "require a trailing semicolon")

TEST(MetricsRegistry, CountersAggregateAcrossThreads) {
  obs::ScopedTelemetryEnabled on(true);
  TAGNN_REQUIRE_TELEMETRY();
  obs::MetricsRegistry reg;
  const obs::MetricId c = reg.counter("t.count");
  const obs::MetricId h = reg.histogram("t.hist");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&reg, c, h] {
      for (int i = 0; i < kPerThread; ++i) {
        reg.add(c);
        reg.record(h, 1.0);
      }
    });
  }
  for (auto& t : ts) t.join();
  const obs::MetricsSnapshot snap = reg.snapshot();
  const obs::MetricValue* cv = snap.find("t.count");
  ASSERT_NE(cv, nullptr);
  EXPECT_EQ(cv->u64, static_cast<std::uint64_t>(kThreads) * kPerThread);
  const obs::MetricValue* hv = snap.find("t.hist");
  ASSERT_NE(hv, nullptr);
  EXPECT_EQ(hv->hist.count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(hv->hist.min, 1.0);
  EXPECT_DOUBLE_EQ(hv->hist.max, 1.0);
}

TEST(MetricsRegistry, GaugesKeepLastAndMax) {
  obs::ScopedTelemetryEnabled on(true);
  TAGNN_REQUIRE_TELEMETRY();
  obs::MetricsRegistry reg;
  const obs::MetricId g = reg.gauge("t.gauge");
  const obs::MetricId m = reg.gauge("t.max");
  reg.set(g, 3.0);
  reg.set(g, 2.0);
  reg.set_max(m, 5.0);
  reg.set_max(m, 4.0);
  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_DOUBLE_EQ(snap.find("t.gauge")->value, 2.0);
  EXPECT_DOUBLE_EQ(snap.find("t.max")->value, 5.0);
}

TEST(MetricsRegistry, KindMismatchThrows) {
  obs::MetricsRegistry reg;
  reg.counter("t.name");
  EXPECT_THROW(reg.gauge("t.name"), std::logic_error);
  EXPECT_THROW(reg.histogram("t.name"), std::logic_error);
}

TEST(MetricsRegistry, RuntimeDisableIsANoOp) {
  obs::MetricsRegistry reg;
  const obs::MetricId c = reg.counter("t.count");
  {
    obs::ScopedTelemetryEnabled off(false);
    reg.add(c, 100);
    reg.record("t.hist", 1.0);
  }
  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.find("t.count")->u64, 0u);
  // Name-based record was also dropped (and did not create the metric).
  EXPECT_EQ(snap.find("t.hist"), nullptr);
}

TEST(MetricsRegistry, ResetZeroesButKeepsHandles) {
  obs::ScopedTelemetryEnabled on(true);
  TAGNN_REQUIRE_TELEMETRY();
  obs::MetricsRegistry reg;
  const obs::MetricId c = reg.counter("t.count");
  reg.add(c, 7);
  reg.reset();
  reg.add(c, 2);
  EXPECT_EQ(reg.snapshot().find("t.count")->u64, 2u);
}

TEST(Histogram, QuantilesOfUniformSamples) {
  obs::ScopedTelemetryEnabled on(true);
  TAGNN_REQUIRE_TELEMETRY();
  obs::MetricsRegistry reg;
  const obs::MetricId h = reg.histogram("t.h");
  for (int i = 1; i <= 1000; ++i) reg.record(h, static_cast<double>(i));
  const obs::MetricsSnapshot snap = reg.snapshot();
  const obs::HistogramStats& s = snap.find("t.h")->hist;
  EXPECT_EQ(s.count, 1000u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 1000.0);
  EXPECT_NEAR(s.mean(), 500.5, 1e-9);
  // Log-bucketed estimates: allow one bucket width (~sqrt(2)x) of error.
  EXPECT_NEAR(s.quantile(0.5), 500.0, 500.0 * 0.45);
  EXPECT_NEAR(s.quantile(0.9), 900.0, 900.0 * 0.45);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 1000.0);
}

TEST(Histogram, BucketBoundsInvertCorrectly) {
  for (double v : {1e-6, 0.5, 0.9, 1.0, 3.0, 1024.0, 7.5e9}) {
    const std::size_t b = obs::histogram_bucket(v);
    EXPECT_GE(v, obs::histogram_bucket_lower(b)) << v;
    if (b + 1 < obs::kHistogramBuckets) {
      EXPECT_LT(v, obs::histogram_bucket_lower(b + 1)) << v;
    }
  }
}

TEST(MetricsSnapshot, JsonAndCsvAreWellFormed) {
  obs::ScopedTelemetryEnabled on(true);
  TAGNN_REQUIRE_TELEMETRY();
  obs::MetricsRegistry reg;
  reg.add(reg.counter("t.count"), 3);
  reg.set(reg.gauge("t.gauge"), 1.5);
  reg.record(reg.histogram("t.hist"), 2.0);
  std::ostringstream js;
  reg.snapshot().write_json(js);
  std::string err;
  EXPECT_TRUE(obs::json_valid(js.str(), &err)) << err;
  std::ostringstream cs;
  reg.snapshot().write_csv(cs);
  EXPECT_NE(cs.str().find("name,kind,value"), std::string::npos);
  EXPECT_NE(cs.str().find("t.count,counter,3"), std::string::npos);
}

TEST(Trace, GoldenJsonSingleThread) {
  obs::TraceCollector tc(/*sim_clock_mhz=*/1.0);  // 1 cycle == 1 us
  const int tid = tc.sim_track("unit");
  tc.sim_span(tid, "work", "pipeline", 10, 5,
              {{"bytes", "128"}, {"label", obs::TraceCollector::quote("a\"b")}});
  std::ostringstream os;
  tc.write_json(os);
  const std::string expected =
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
      "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
      "\"args\":{\"name\":\"host\"}},\n"
      "{\"ph\":\"M\",\"pid\":2,\"tid\":0,\"name\":\"process_name\","
      "\"args\":{\"name\":\"sim accelerator timeline\"}},\n"
      "{\"ph\":\"M\",\"pid\":2,\"tid\":1,\"name\":\"thread_name\","
      "\"args\":{\"name\":\"unit\"}},\n"
      "{\"ph\":\"M\",\"pid\":2,\"tid\":1,\"name\":\"thread_sort_index\","
      "\"args\":{\"sort_index\":1}},\n"
      "{\"ph\":\"X\",\"pid\":2,\"tid\":1,\"ts\":10.000,\"dur\":5.000,"
      "\"cat\":\"pipeline\",\"name\":\"work\","
      "\"args\":{\"bytes\":128,\"label\":\"a\\\"b\"}}\n"
      "]}\n";
  EXPECT_EQ(os.str(), expected);
  std::string err;
  EXPECT_TRUE(obs::json_valid(os.str(), &err)) << err;
}

TEST(Trace, HostSpansUseActiveCollector) {
  obs::ScopedTelemetryEnabled on(true);
  obs::TraceCollector tc;
  obs::TraceCollector* prev = obs::TraceCollector::set_active(&tc);
  {
    obs::ScopedTrace span("phase", "host");
  }
  double acc = 0;
  {
    obs::ScopedTimer timer(&acc, "timed", "engine");
  }
  obs::TraceCollector::set_active(prev);
  EXPECT_EQ(tc.size(), 2u);
  EXPECT_GE(acc, 0.0);
  std::ostringstream os;
  tc.write_json(os);
  EXPECT_NE(os.str().find("\"phase\""), std::string::npos);
  EXPECT_NE(os.str().find("\"cat\":\"engine\""), std::string::npos);
  std::string err;
  EXPECT_TRUE(obs::json_valid(os.str(), &err)) << err;
}

TEST(JsonValid, AcceptsAndRejects) {
  EXPECT_TRUE(obs::json_valid("{}"));
  EXPECT_TRUE(obs::json_valid("[1, 2.5e-3, \"x\\n\", true, null]"));
  EXPECT_TRUE(obs::json_valid("{\"a\": {\"b\": [{}]}}"));
  std::string err;
  EXPECT_FALSE(obs::json_valid("", &err));
  EXPECT_FALSE(obs::json_valid("{", &err));
  EXPECT_FALSE(obs::json_valid("{\"a\": 1,}", &err));
  EXPECT_FALSE(obs::json_valid("[1] trailing", &err));
  EXPECT_FALSE(obs::json_valid("NaN", &err));
  EXPECT_FALSE(obs::json_valid("{'a': 1}", &err));
}

TEST(Cli, SplitEqAndConsumeFlags) {
  const char* argv[] = {"prog",           "--metrics-out=m.json",
                        "--trace-out",    "t.json",
                        "--metrics-format=csv", "--no-telemetry",
                        "--other"};
  std::vector<std::string> args =
      obs::split_eq_flags(7, const_cast<char**>(argv));
  obs::TelemetryCliOptions o;
  std::vector<std::string> rest;
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (!obs::consume_telemetry_flag(args, i, o)) rest.push_back(args[i]);
  }
  EXPECT_EQ(o.metrics_out, "m.json");
  EXPECT_EQ(o.trace_out, "t.json");
  EXPECT_EQ(o.metrics_format, "csv");
  EXPECT_TRUE(o.disable_telemetry);
  EXPECT_TRUE(o.wants_metrics());
  EXPECT_TRUE(o.wants_trace());
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0], "--other");
}

TEST(Cli, BadMetricsFormatThrows) {
  std::vector<std::string> args = {"--metrics-format", "xml"};
  obs::TelemetryCliOptions o;
  std::size_t i = 0;
  EXPECT_THROW(obs::consume_telemetry_flag(args, i, o),
               std::invalid_argument);
}

// Thread-pool observability: driving work through the pool itself (the
// free parallel_for runs small ranges inline, bypassing the pool) must
// record queue depth, executed tasks, and worker busy time.
TEST(ThreadPoolTelemetry, RecordsQueueDepthAndTasks) {
  obs::ScopedTelemetryEnabled on(true);
  TAGNN_REQUIRE_TELEMETRY();
  obs::MetricsRegistry::global().reset();
  ScopedGlobalThreadPool scoped(4);
  std::atomic<std::size_t> covered{0};
  scoped.pool().parallel_for(0, 10000, [&](std::size_t b, std::size_t e) {
    covered.fetch_add(e - b, std::memory_order_relaxed);
  });
  EXPECT_EQ(covered.load(), 10000u);

  const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
  const obs::MetricValue* tasks = snap.find("tagnn.pool.tasks_executed");
  ASSERT_NE(tasks, nullptr);
  EXPECT_GT(tasks->u64, 0u);
  const obs::MetricValue* busy = snap.find("tagnn.pool.worker_busy_seconds");
  ASSERT_NE(busy, nullptr);
  EXPECT_EQ(busy->hist.count, tasks->u64);
  const obs::MetricValue* depth = snap.find("tagnn.pool.queue_depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_EQ(depth->value, 0.0);  // reset to 0 once the task drains
  const obs::MetricValue* hw = snap.find("tagnn.pool.queue_depth_high_water");
  ASSERT_NE(hw, nullptr);
  EXPECT_GT(hw->value, 0.0);
}

// End-to-end: the accelerator's utilization attribution must be
// internally consistent and feed the trace with all track categories.
TEST(AccelTelemetry, BusyPlusStallEqualsTotalAndOccupanciesBounded) {
  obs::ScopedTelemetryEnabled on(true);
  TAGNN_REQUIRE_TELEMETRY();
  obs::MetricsRegistry::global().reset();
  obs::TraceCollector tc;
  obs::TraceCollector* prev = obs::TraceCollector::set_active(&tc);
  const DynamicGraph g = datasets::load("GT", 0.1, 4);
  const DgnnWeights w =
      DgnnWeights::init(ModelConfig::preset("T-GCN"), g.feature_dim(), 1);
  const AccelResult r = TagnnAccelerator(TagnnConfig{}).run(g, w);
  obs::TraceCollector::set_active(prev);

  ASSERT_EQ(r.telemetry.units.size(), 4u);
  for (const AccelUnitStats& u : r.telemetry.units) {
    EXPECT_EQ(u.busy + u.stall, r.cycles.total) << u.name;
  }
  EXPECT_GT(r.telemetry.mac_occupancy, 0.0);
  EXPECT_LE(r.telemetry.mac_occupancy, 1.0);
  EXPECT_GT(r.telemetry.hbm_bw_occupancy, 0.0);
  EXPECT_LE(r.telemetry.hbm_bw_occupancy, 1.0);
  EXPECT_GT(r.telemetry.hbm_transactions, 0u);
  EXPECT_GT(r.telemetry.feature_buffer_high_water, 0u);
  EXPECT_EQ(r.telemetry.window_records.size(), r.windows);
  Cycle sum = 0;
  for (const AccelWindowRecord& rec : r.telemetry.window_records) {
    EXPECT_EQ(rec.begin, sum);
    sum += rec.total;
  }
  EXPECT_EQ(sum, r.cycles.total);
  ASSERT_FALSE(r.telemetry.classify_stages.empty());
  ASSERT_FALSE(r.telemetry.traverse_stages.empty());

  // Published metrics mirror the result.
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
  const obs::MetricValue* total = snap.find("tagnn.accel.cycles.total");
  ASSERT_NE(total, nullptr);
  EXPECT_DOUBLE_EQ(total->value, static_cast<double>(r.cycles.total));
  EXPECT_NE(snap.find("tagnn.accel.mac_occupancy"), nullptr);
  EXPECT_NE(snap.find("tagnn.accel.hbm_bw_occupancy"), nullptr);
  EXPECT_NE(snap.find("tagnn.accel.unit.gnn.busy_cycles"), nullptr);
  EXPECT_NE(snap.find("tagnn.dispatch.tasks"), nullptr);
  EXPECT_NE(snap.find("tagnn.msdl.windows_loaded"), nullptr);

  // The simulated timeline covers the pipeline/memory/stall categories;
  // with the engine + host spans the trace holds >= 4 categories.
  std::ostringstream os;
  tc.write_json(os);
  const std::string j = os.str();
  std::string err;
  EXPECT_TRUE(obs::json_valid(j, &err)) << err;
  for (const char* cat :
       {"\"cat\":\"pipeline\"", "\"cat\":\"memory\"", "\"cat\":\"stall\"",
        "\"cat\":\"engine\""}) {
    EXPECT_NE(j.find(cat), std::string::npos) << cat;
  }
}

TEST(Report, UtilizationSectionPresentAndConsistent) {
  const DynamicGraph g = datasets::load("GT", 0.1, 4);
  const DgnnWeights w =
      DgnnWeights::init(ModelConfig::preset("T-GCN"), g.feature_dim(), 1);
  TagnnConfig cfg;
  const AccelResult r = TagnnAccelerator(cfg).run(g, w);
  std::ostringstream os;
  write_json_report(os, "GT/T-GCN", cfg, r);
  const std::string j = os.str();
  for (const char* key :
       {"\"utilization\"", "\"mac_occupancy\"", "\"hbm_bw_occupancy\"",
        "\"units\"", "\"classify_stages\"", "\"traverse_stages\"",
        "\"feature_buffer_high_water_bytes\""}) {
    EXPECT_NE(j.find(key), std::string::npos) << key;
  }
}

}  // namespace
}  // namespace tagnn

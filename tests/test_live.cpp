// Tests for the live telemetry plane: OpenMetrics exposition (golden),
// the background sampler's reset-tolerant rates and newest-tick slot
// (including a TSan-facing concurrency stress), the embedded HTTP server,
// JSONL validation, and the crash-time flight recorder — both the
// normal-context dump and a real injected fault in a forked child.
#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <limits>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/cli.hpp"
#include "obs/jsonv.hpp"
#include "obs/live/flight_recorder.hpp"
#include "obs/live/http.hpp"
#include "obs/live/live.hpp"
#include "obs/live/openmetrics.hpp"
#include "obs/live/sampler.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"

namespace tagnn {
namespace {

using obs::live::FlightRecorder;
using obs::live::HttpGetResult;
using obs::live::HttpResponse;
using obs::live::HttpServer;
using obs::live::LivePlane;
using obs::live::LiveSample;
using obs::live::LiveSampler;

#define TAGNN_REQUIRE_TELEMETRY()                                      \
  if (!obs::telemetry_enabled()) {                                     \
    GTEST_SKIP() << "telemetry compiled out (TAGNN_TELEMETRY=OFF)";    \
  }                                                                    \
  static_assert(true, "require a trailing semicolon")

std::string temp_path(const char* tag) {
  return "/tmp/tagnn_test_live_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + ".jsonl";
}

std::string slurp(const std::string& path) {
  std::ifstream f(path);
  std::ostringstream buf;
  buf << f.rdbuf();
  return buf.str();
}

// ---------------------------------------------------------------- rates

TEST(Rate, CounterDeltaClampsOnReset) {
  EXPECT_EQ(obs::counter_delta(10, 25), 15u);
  EXPECT_EQ(obs::counter_delta(10, 10), 0u);
  // A registry reset() drops the total below the previous observation;
  // the delta must clamp, never wrap.
  EXPECT_EQ(obs::counter_delta(1000, 3), 0u);
}

TEST(Rate, RateHandlesDegenerateIntervals) {
  EXPECT_DOUBLE_EQ(obs::rate(0, 500, 2.0), 250.0);
  EXPECT_DOUBLE_EQ(obs::rate(500, 400, 1.0), 0.0);   // reset-clamped
  EXPECT_DOUBLE_EQ(obs::rate(0, 500, 0.0), 0.0);     // first sample
  EXPECT_DOUBLE_EQ(obs::rate(0, 500, -1.0), 0.0);    // clock glitch
  const double nan = std::nan("");
  EXPECT_DOUBLE_EQ(obs::rate(0, 500, nan), 0.0);
}

// ---------------------------------------------------- openmetrics golden

TEST(OpenMetrics, NameSanitisation) {
  EXPECT_EQ(obs::live::openmetrics_name("tagnn.pool.tasks_executed"),
            "tagnn_pool_tasks_executed");
  EXPECT_EQ(obs::live::openmetrics_name("9lives"), "_9lives");
  EXPECT_EQ(obs::live::openmetrics_name("a-b c"), "a_b_c");
}

TEST(OpenMetrics, GoldenExposition) {
  obs::MetricsSnapshot snap;
  obs::MetricValue c;
  c.name = "tagnn.demo.events";
  c.kind = obs::MetricKind::kCounter;
  c.u64 = 42;
  obs::MetricValue g;
  g.name = "tagnn.demo.level";
  g.kind = obs::MetricKind::kGauge;
  g.value = 0.5;
  obs::MetricValue h;
  h.name = "tagnn.demo.latency";
  h.kind = obs::MetricKind::kHistogram;
  h.hist.count = 4;
  h.hist.sum = 8.0;
  h.hist.min = 2.0;
  h.hist.max = 2.0;
  h.hist.buckets[obs::histogram_bucket(2.0)] = 4;
  snap.metrics = {c, g, h};

  const std::string text =
      obs::live::to_openmetrics(snap, {{"tagnn.demo.events", 21.0}});
  const std::string expected =
      "# HELP tagnn_demo_events TaGNN counter tagnn.demo.events\n"
      "# TYPE tagnn_demo_events counter\n"
      "tagnn_demo_events_total 42\n"
      "# HELP tagnn_demo_level TaGNN gauge tagnn.demo.level\n"
      "# TYPE tagnn_demo_level gauge\n"
      "tagnn_demo_level 0.5\n"
      "# HELP tagnn_demo_latency TaGNN summary tagnn.demo.latency\n"
      "# TYPE tagnn_demo_latency summary\n"
      "tagnn_demo_latency{quantile=\"0.5\"} 2\n"
      "tagnn_demo_latency{quantile=\"0.9\"} 2\n"
      "tagnn_demo_latency{quantile=\"0.99\"} 2\n"
      "tagnn_demo_latency_sum 8\n"
      "tagnn_demo_latency_count 4\n"
      "# HELP tagnn_demo_events_rate TaGNN gauge tagnn.demo.events "
      "per-second rate\n"
      "# TYPE tagnn_demo_events_rate gauge\n"
      "tagnn_demo_events_rate 21\n"
      "# EOF\n";
  EXPECT_EQ(text, expected);
}

TEST(OpenMetrics, NonFiniteValuesUseExpositionSpellings) {
  obs::MetricsSnapshot snap;
  obs::MetricValue g;
  g.name = "g";
  g.kind = obs::MetricKind::kGauge;
  g.value = std::numeric_limits<double>::infinity();
  snap.metrics = {g};
  const std::string text = obs::live::to_openmetrics(snap);
  EXPECT_NE(text.find("g +Inf\n"), std::string::npos);
  EXPECT_NE(text.find("# EOF\n"), std::string::npos);
}

// --------------------------------------------------------------- sampler

TEST(LiveSampler, RatesAreResetTolerant) {
  obs::ScopedTelemetryEnabled on(true);
  TAGNN_REQUIRE_TELEMETRY();
  obs::MetricsRegistry::global().reset();
  obs::count("live_test.ticks", 100);

  LiveSampler sampler(/*interval_ms=*/60000);
  LiveSample s;
  EXPECT_FALSE(sampler.latest(&s)) << "no tick taken yet";
  sampler.sample_once();  // first sample: no rates yet
  ASSERT_TRUE(sampler.latest(&s));
  EXPECT_TRUE(s.rates.empty());
  EXPECT_EQ(s.seq, 1u);

  obs::count("live_test.ticks", 50);
  sampler.sample_once();
  ASSERT_TRUE(sampler.latest(&s));
  double tick_rate = -1;
  for (const auto& [name, v] : s.rates) {
    if (name == "live_test.ticks") tick_rate = v;
  }
  ASSERT_GE(tick_rate, 0.0) << "rate for live_test.ticks missing";
  EXPECT_GT(tick_rate, 0.0);

  // Registry reset drops the total from 150 to 10; the rate must clamp
  // to 0 instead of going negative or wrapping.
  obs::MetricsRegistry::global().reset();
  obs::count("live_test.ticks", 10);
  sampler.sample_once();
  ASSERT_TRUE(sampler.latest(&s));
  EXPECT_EQ(s.seq, 3u);
  tick_rate = -1;
  for (const auto& [name, v] : s.rates) {
    if (name == "live_test.ticks") tick_rate = v;
  }
  EXPECT_DOUBLE_EQ(tick_rate, 0.0);

  // The pre-rendered line must be a single-line valid JSON document.
  EXPECT_TRUE(obs::json_valid(s.json)) << s.json;
  EXPECT_EQ(s.json.find('\n'), std::string::npos);
}

// One ticking thread, several readers of the newest-tick slot — the
// TSan preset turns this into a real data-race check on its mutex.
TEST(LiveSampler, ConcurrentTickAndReadStress) {
  obs::ScopedTelemetryEnabled on(true);
  TAGNN_REQUIRE_TELEMETRY();
  LiveSampler sampler(/*interval_ms=*/60000);
  std::atomic<bool> stop{false};
  std::thread ticker([&] {
    for (int i = 0; i < 200; ++i) sampler.sample_once();
    stop.store(true);
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      LiveSample out;
      std::uint64_t last = 0;
      while (!stop.load()) {
        if (sampler.latest(&out)) {
          ASSERT_GE(out.seq, last) << "newest tick went backwards";
          last = out.seq;
        }
        std::this_thread::yield();  // let the ticker at the mutex
      }
    });
  }
  ticker.join();
  for (auto& t : readers) t.join();
  LiveSample final_tick;
  ASSERT_TRUE(sampler.latest(&final_tick));
  EXPECT_EQ(final_tick.seq, sampler.ticks());
  EXPECT_EQ(sampler.ticks(), 200u);
}

TEST(LiveSampler, BackgroundThreadTicksAndStopsCleanly) {
  obs::ScopedTelemetryEnabled on(true);
  TAGNN_REQUIRE_TELEMETRY();
  LiveSampler sampler(/*interval_ms=*/5);
  sampler.start();
  EXPECT_TRUE(sampler.running());
  while (sampler.ticks() < 3) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  sampler.stop();
  EXPECT_FALSE(sampler.running());
  const std::uint64_t after = sampler.ticks();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(sampler.ticks(), after) << "sampler ticked after stop()";
}

TEST(LiveSampler, GatedOffWhenTelemetryDisabled) {
  obs::ScopedTelemetryEnabled off(false);
  LiveSampler sampler(/*interval_ms=*/1);
  sampler.start();
  EXPECT_FALSE(sampler.running());
  EXPECT_EQ(sampler.ticks(), 0u);
}

// ------------------------------------------------------------------ http

TEST(HttpServer, ServesRegisteredPathsAnd404) {
  HttpServer server;
  server.handle("/hello", [](const std::string& query) {
    return HttpResponse{200, "text/plain; charset=utf-8",
                        "hi " + query + "\n"};
  });
  std::string error;
  ASSERT_TRUE(server.start(0, &error)) << error;
  ASSERT_GT(server.port(), 0);

  HttpGetResult r = obs::live::http_get("127.0.0.1", server.port(),
                                        "/hello?name=x");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.body, "hi name=x\n");

  r = obs::live::http_get("127.0.0.1", server.port(), "/nope");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.status, 404);

  server.stop();
  EXPECT_GE(server.requests_served(), 2u);
  r = obs::live::http_get("127.0.0.1", server.port(), "/hello");
  EXPECT_FALSE(r.ok) << "server still answering after stop()";
}

// ------------------------------------------------------------ live plane

TEST(LivePlane, EndpointsRoundTrip) {
  obs::ScopedTelemetryEnabled on(true);
  TAGNN_REQUIRE_TELEMETRY();
  obs::MetricsRegistry::global().reset();
  obs::count("tagnn.live_test.plane_events", 7);

  obs::live::LiveOptions lo;
  lo.port = 0;
  lo.interval_ms = 60000;  // the initial tick is all these tests need
  lo.announce = false;
  LivePlane plane(lo);
  std::string error;
  ASSERT_TRUE(plane.start(&error)) << error;
  ASSERT_GT(plane.port(), 0);

  HttpGetResult r =
      obs::live::http_get("127.0.0.1", plane.port(), "/healthz");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.body, "ok\n");

  r = obs::live::http_get("127.0.0.1", plane.port(), "/metrics");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("tagnn_live_test_plane_events_total 7"),
            std::string::npos)
      << r.body;
  EXPECT_EQ(r.body.rfind("# EOF\n"), r.body.size() - 6);

  r = obs::live::http_get("127.0.0.1", plane.port(), "/snapshot.json");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.status, 200);
  std::string jerr;
  EXPECT_TRUE(obs::json_valid(r.body, &jerr)) << jerr;
  EXPECT_NE(r.body.find("\"schema\": \"tagnn.live.v1\""), std::string::npos);

  EXPECT_FALSE(plane.quit_requested());
  r = obs::live::http_get("127.0.0.1", plane.port(), "/quit");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(plane.quit_requested());
  // /quit must release the linger wait immediately (well under 10 s).
  const auto t0 = std::chrono::steady_clock::now();
  plane.wait_linger(10000);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5));
  plane.stop();
}

// /metrics and /snapshot.json serve the sampler's newest tick, not a
// fresh scrape, so between ticks they agree with each other.
TEST(LivePlane, EndpointsServeTheNewestTick) {
  obs::ScopedTelemetryEnabled on(true);
  TAGNN_REQUIRE_TELEMETRY();
  obs::MetricsRegistry::global().reset();
  obs::count("tagnn.live_test.newest_tick", 7);

  obs::live::LiveOptions lo;
  lo.port = 0;
  lo.interval_ms = 60000;  // only the start tick and the one taken below
  lo.announce = false;
  LivePlane plane(lo);
  std::string error;
  ASSERT_TRUE(plane.start(&error)) << error;
  obs::count("tagnn.live_test.newest_tick", 5);  // after the start tick

  HttpGetResult r =
      obs::live::http_get("127.0.0.1", plane.port(), "/metrics");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_NE(r.body.find("tagnn_live_test_newest_tick_total 7"),
            std::string::npos)
      << r.body;
  r = obs::live::http_get("127.0.0.1", plane.port(), "/snapshot.json");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_NE(r.body.find("\"seq\": 1,"), std::string::npos) << r.body;

  plane.sampler().sample_once();
  r = obs::live::http_get("127.0.0.1", plane.port(), "/metrics");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_NE(r.body.find("tagnn_live_test_newest_tick_total 12"),
            std::string::npos)
      << r.body;
  r = obs::live::http_get("127.0.0.1", plane.port(), "/snapshot.json");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_NE(r.body.find("\"seq\": 2,"), std::string::npos) << r.body;
  std::string jerr;
  EXPECT_TRUE(obs::json_valid(r.body, &jerr)) << jerr;
  plane.stop();
}

// With telemetry off the sampler never ticks, so both endpoints fall
// back to a direct registry read; /snapshot.json reports seq 0.
TEST(LivePlane, EndpointsFallBackWithoutATick) {
  obs::ScopedTelemetryEnabled off(false);
  obs::live::LiveOptions lo;
  lo.port = 0;
  lo.interval_ms = 60000;
  lo.announce = false;
  LivePlane plane(lo);
  std::string error;
  ASSERT_TRUE(plane.start(&error)) << error;
  EXPECT_FALSE(plane.sampler().running());
  LiveSample s;
  EXPECT_FALSE(plane.sampler().latest(&s));

  HttpGetResult r =
      obs::live::http_get("127.0.0.1", plane.port(), "/snapshot.json");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.status, 200);
  std::string jerr;
  EXPECT_TRUE(obs::json_valid(r.body, &jerr)) << jerr << "\n" << r.body;
  EXPECT_NE(r.body.find("\"seq\": 0,"), std::string::npos) << r.body;

  r = obs::live::http_get("127.0.0.1", plane.port(), "/metrics");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.body.rfind("# EOF\n"), r.body.size() - 6);
  plane.stop();
}

// ----------------------------------------------------------------- jsonl

TEST(JsonlValid, AcceptsLinesAndToleratesTornFinal) {
  std::size_t lines = 0;
  EXPECT_TRUE(obs::jsonl_valid("{\"a\": 1}\n{\"b\": 2}\n", nullptr, true,
                               &lines));
  EXPECT_EQ(lines, 2u);
  // Blank lines (and CRLF endings) are fine.
  EXPECT_TRUE(obs::jsonl_valid("{}\r\n\n  \n[1, 2]\n"));
  // A torn final line without a newline is the crash signature —
  // tolerated by default, rejected when asked to be strict.
  const std::string torn = "{\"a\": 1}\n{\"b\": tru";
  EXPECT_TRUE(obs::jsonl_valid(torn, nullptr, true, &lines));
  EXPECT_EQ(lines, 1u);
  std::string error;
  EXPECT_FALSE(obs::jsonl_valid(torn, &error, false));
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  // The same garbage mid-file is always an error.
  EXPECT_FALSE(obs::jsonl_valid("{\"b\": tru\n{\"a\": 1}\n", &error, true));
  EXPECT_NE(error.find("line 1"), std::string::npos) << error;
  // An empty file is a valid (if empty) log.
  EXPECT_TRUE(obs::jsonl_valid(""));
}

// ------------------------------------------------------- flight recorder

TEST(FlightRecorder, DumpNowWritesRingAndFinalScrape) {
  obs::ScopedTelemetryEnabled on(true);
  TAGNN_REQUIRE_TELEMETRY();
  FlightRecorder& fr = FlightRecorder::global();
  fr.reset_for_test();
  const std::string path = temp_path("dump_now");
  std::string error;
  ASSERT_TRUE(fr.install(path, &error)) << error;
  EXPECT_TRUE(fr.installed());
  std::string installed_error;
  EXPECT_FALSE(fr.install(path, &installed_error)) << "double install";

  for (int i = 0; i < 20; ++i) {  // more lines than slots: oldest drop off
    fr.record_line("{\"line\": " + std::to_string(i) + "}");
  }
  EXPECT_EQ(fr.lines_recorded(), 20u);
  fr.record_line(std::string(FlightRecorder::kSlotBytes, 'x'));
  EXPECT_EQ(fr.lines_dropped_oversize(), 1u);

  fr.dump_now("test");
  const std::string text = slurp(path);
  std::string jerr;
  std::size_t docs = 0;
  EXPECT_TRUE(obs::jsonl_valid(text, &jerr, false, &docs)) << jerr;
  // begin + 16 slots + final scrape + end marker.
  EXPECT_EQ(docs, 2u + FlightRecorder::kSlots + 1u);
  EXPECT_NE(text.find("\"event\": \"begin\""), std::string::npos);
  EXPECT_NE(text.find("\"event\": \"final_scrape\""), std::string::npos);
  EXPECT_NE(text.find("\"cause\": \"test\""), std::string::npos);
  EXPECT_NE(text.find("\"dropped_oversize\": 1"), std::string::npos);
  // The oldest surviving slot is line 4 (20 lines through 16 slots).
  EXPECT_EQ(text.find("{\"line\": 3}"), std::string::npos);
  EXPECT_NE(text.find("{\"line\": 4}"), std::string::npos);
  EXPECT_NE(text.find("{\"line\": 19}"), std::string::npos);

  // A second dump is a no-op (first crash path wins).
  fr.dump_now("again");
  EXPECT_EQ(slurp(path), text);
  fr.reset_for_test();
  std::remove(path.c_str());
}

// A real injected fault: the forked child installs the recorder, aborts,
// and the parent checks the dump parses cleanly. Skipped under
// sanitizers — their own SIGABRT machinery races the fork-based check.
TEST(FlightRecorder, ForkedFaultLeavesParseableDump) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "fork + fatal signal under sanitizers";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  GTEST_SKIP() << "fork + fatal signal under sanitizers";
#endif
#endif
  const std::string path = temp_path("forked_fault");
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: fresh recorder state onto a fresh path, a few ring lines,
    // then a genuine SIGABRT through the installed handler.
    FlightRecorder& fr = FlightRecorder::global();
    fr.reset_for_test();
    if (!fr.install(path)) ::_exit(3);
    fr.record_line("{\"child\": 1}");
    fr.record_line("{\"child\": 2}");
    std::abort();
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status))
      << "child should die by signal, status=" << status;
  EXPECT_EQ(WTERMSIG(status), SIGABRT);
  const std::string text = slurp(path);
  std::string jerr;
  std::size_t docs = 0;
  EXPECT_TRUE(obs::jsonl_valid(text, &jerr, true, &docs)) << jerr;
  EXPECT_EQ(docs, 4u);  // begin + 2 ring lines + end marker
  EXPECT_NE(text.find("{\"child\": 1}"), std::string::npos);
  EXPECT_NE(text.find("{\"child\": 2}"), std::string::npos);
  EXPECT_NE(text.find("\"signal\": 6"), std::string::npos);
  std::remove(path.c_str());
}

// -------------------------------------------------------------- cli glue

TEST(Cli, LiveFlagsParse) {
  const char* argv[] = {"tool",
                        "--live-port=0",
                        "--live-interval-ms", "250",
                        "--live-linger-ms=1500",
                        "--flight-recorder", "/tmp/fr.jsonl"};
  const auto args =
      obs::split_eq_flags(7, const_cast<char**>(argv));
  obs::TelemetryCliOptions tel;
  for (std::size_t i = 1; i < args.size(); ++i) {
    EXPECT_TRUE(obs::consume_telemetry_flag(args, i, tel)) << args[i];
  }
  EXPECT_EQ(tel.live_port, 0);
  EXPECT_EQ(tel.live_interval_ms, 250);
  EXPECT_EQ(tel.live_linger_ms, 1500);
  EXPECT_EQ(tel.flight_recorder, "/tmp/fr.jsonl");
  EXPECT_TRUE(tel.wants_live());

  obs::TelemetryCliOptions off;
  EXPECT_FALSE(off.wants_live());

  const char* bad_argv[] = {"tool", "--live-port=high"};
  const auto bad = obs::split_eq_flags(2, const_cast<char**>(bad_argv));
  obs::TelemetryCliOptions o2;
  std::size_t i = 1;
  EXPECT_THROW(obs::consume_telemetry_flag(bad, i, o2),
               std::invalid_argument);
}

}  // namespace
}  // namespace tagnn

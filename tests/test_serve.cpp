// Tests for the serving layer (src/serve): protocol parsing/rendering,
// tenant semantics, batch-window coalescing determinism (byte-identical
// replies vs unbatched execution), admission control (shed then
// recover, multi-tenant isolation), a TSan-facing concurrent
// ingest+infer stress, the HTTP round trip through ServePlane, and a
// forked crash leaving a parseable flight dump while serving.
#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/analyze/jparse.hpp"
#include "obs/jsonv.hpp"
#include "obs/live/flight_recorder.hpp"
#include "obs/live/http.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/tenant.hpp"

namespace tagnn {
namespace {

using obs::live::http_get;
using obs::live::http_post;
using serve::IngestCommand;
using serve::InferCommand;
using serve::OpKind;
using serve::Reply;
using serve::Request;
using serve::ServeCore;
using serve::ServeOptions;
using serve::ServePlane;
using serve::ServePlaneOptions;
using serve::Status;
using serve::Tenant;
using serve::TenantConfig;

TenantConfig small_tenant(const std::string& name) {
  TenantConfig cfg;
  cfg.name = name;
  cfg.dataset = "GT";
  cfg.scale = 0.02;
  cfg.stream_snapshots = 6;
  cfg.model = "T-GCN";
  cfg.engine.window_size = 3;
  return cfg;
}

Request ingest_req(const std::string& tenant, std::uint32_t advance) {
  Request r;
  r.tenant = tenant;
  r.op = OpKind::kIngest;
  r.ingest.advance = advance;
  return r;
}

Request infer_req(const std::string& tenant,
                  std::vector<VertexId> vertices = {}) {
  Request r;
  r.tenant = tenant;
  r.op = OpKind::kInfer;
  r.infer.vertices = std::move(vertices);
  return r;
}

// ------------------------------------------------------------- protocol

TEST(ServeProtocol, ParsesIngestBodies) {
  IngestCommand cmd;
  std::string err;
  // Empty body = advance the stream by one.
  ASSERT_TRUE(serve::parse_ingest("", &cmd, &err));
  EXPECT_EQ(cmd.advance, 1u);
  cmd = {};
  ASSERT_TRUE(serve::parse_ingest("{\"advance\": 3}", &cmd, &err));
  EXPECT_EQ(cmd.advance, 3u);
  cmd = {};
  ASSERT_TRUE(serve::parse_ingest(
      "{\"add_edges\": [[0, 5], [5, 0]], \"remove_edges\": [[1, 2]]}", &cmd,
      &err));
  EXPECT_EQ(cmd.advance, 0u);  // explicit delta, no implicit advance
  ASSERT_EQ(cmd.add_edges.size(), 2u);
  EXPECT_EQ(cmd.add_edges[0], std::make_pair(VertexId{0}, VertexId{5}));
  EXPECT_EQ(cmd.remove_edges.size(), 1u);
}

TEST(ServeProtocol, RejectsMalformedBodies) {
  IngestCommand ing;
  InferCommand inf;
  std::string err;
  EXPECT_FALSE(serve::parse_ingest("{", &ing, &err));
  EXPECT_FALSE(serve::parse_ingest("[1, 2]", &ing, &err));
  EXPECT_FALSE(serve::parse_ingest("{\"advance\": -1}", &ing, &err));
  EXPECT_FALSE(serve::parse_ingest("{\"advance\": 1.5}", &ing, &err));
  EXPECT_FALSE(serve::parse_ingest("{\"add_edges\": [[0]]}", &ing, &err));
  EXPECT_FALSE(serve::parse_ingest("{\"add_edges\": 7}", &ing, &err));
  EXPECT_FALSE(serve::parse_infer("{\"vertices\": [-3]}", &inf, &err));
  EXPECT_FALSE(serve::parse_infer("{\"vertices\": \"x\"}", &inf, &err));
  EXPECT_TRUE(serve::parse_infer("{}", &inf, &err));
  EXPECT_TRUE(serve::parse_infer("", &inf, &err));
}

TEST(ServeProtocol, HttpStatusMapping) {
  EXPECT_EQ(serve::http_status(Status::kOk), 200);
  EXPECT_EQ(serve::http_status(Status::kBadRequest), 400);
  EXPECT_EQ(serve::http_status(Status::kNotFound), 404);
  EXPECT_EQ(serve::http_status(Status::kOverloaded), 429);
  EXPECT_EQ(serve::http_status(Status::kShutdown), 503);
  EXPECT_STREQ(serve::to_string(Status::kOverloaded), "overloaded");
}

TEST(ServeProtocol, ReplyJsonIsValidAndEscaped) {
  Reply r;
  r.status = Status::kBadRequest;
  r.tenant = "we\"ird\n";
  r.error = "tab\there";
  const std::string body = serve::reply_json(r);
  std::string err;
  EXPECT_TRUE(obs::json_valid(body, &err)) << err << "\n" << body;
  obs::analyze::JsonValue doc;
  ASSERT_TRUE(obs::analyze::json_parse(body, &doc, &err)) << err;
  EXPECT_EQ(doc.string_at("tenant"), "we\"ird\n");
  EXPECT_EQ(doc.string_at("status"), "bad_request");
}

// --------------------------------------------------------------- tenant

TEST(ServeTenant, StreamAdvanceAndInferDigest) {
  Tenant t(small_tenant("a"));
  Reply r = t.ingest([] {
    IngestCommand c;
    c.advance = 3;  // exactly one window
    return c;
  }());
  EXPECT_EQ(r.status, Status::kOk);
  EXPECT_EQ(r.epoch, 1u);
  EXPECT_EQ(r.snapshots, 3u);
  EXPECT_EQ(r.processed, 3u);  // full window processed on push

  Reply inf = t.infer({});
  EXPECT_EQ(inf.status, Status::kOk);
  EXPECT_FALSE(inf.digest.empty());
  // Re-infer without new ingest: identical digest (cache hit path).
  EXPECT_EQ(t.infer({}).digest, inf.digest);

  // Partial window: infer flushes it and the digest moves.
  ASSERT_EQ(t.ingest([] {
    IngestCommand c;
    c.advance = 1;
    return c;
  }()).processed, 3u);
  Reply inf2 = t.infer({});
  EXPECT_EQ(inf2.processed, 4u);
  EXPECT_NE(inf2.digest, inf.digest);
}

TEST(ServeTenant, DeltaEdgesChangeTopologyDeterministically) {
  Tenant t(small_tenant("a"));
  IngestCommand adv;
  adv.advance = 1;
  ASSERT_EQ(t.ingest(adv).status, Status::kOk);
  const std::string before = t.infer({}).digest;

  IngestCommand delta;  // symmetric edge between vertices 0 and 1
  delta.add_edges = {{0, 1}, {1, 0}};
  ASSERT_EQ(t.ingest(delta).status, Status::kOk);
  const std::string after = t.infer({}).digest;
  EXPECT_NE(after, before);

  // Removing an absent edge is idempotent, not an error.
  IngestCommand rm;
  rm.remove_edges = {{0, 1}, {1, 0}, {0, 1}};
  EXPECT_EQ(t.ingest(rm).status, Status::kOk);

  // A second tenant with the same config replays to the same digests.
  Tenant t2(small_tenant("a"));
  ASSERT_EQ(t2.ingest(adv).status, Status::kOk);
  EXPECT_EQ(t2.infer({}).digest, before);
  ASSERT_EQ(t2.ingest(delta).status, Status::kOk);
  EXPECT_EQ(t2.infer({}).digest, after);

  // One command mixing present, duplicate and absent removals (unsorted)
  // with adds: the result is pinned, so the removal pass cannot drift.
  const Snapshot& s0 = t.stream().snapshot(0);
  VertexId u = 0;
  while (!s0.present[u] || s0.graph.degree(u) < 2) ++u;
  const VertexId a = s0.graph.neighbors(u)[0];
  const VertexId b = s0.graph.neighbors(u)[1];
  ASSERT_FALSE(s0.graph.has_edge(u, u));
  IngestCommand mixed;
  mixed.remove_edges = {{u, b}, {a, u}, {u, a}, {u, b}, {u, u}, {0, 1}};
  mixed.add_edges = {{u, u}, {b, a}, {a, b}, {b, a}};
  ASSERT_EQ(t.ingest(mixed).status, Status::kOk);
  const std::string mixed_digest = t.infer({}).digest;
  EXPECT_EQ(mixed_digest, "h-30340e1ffbfbc19c");

  // Ids are validated before anything is removed: the first bad removal
  // wins over a bad add, and a failed delta leaves the topology as it
  // was.
  const auto n = static_cast<VertexId>(t.stream().num_vertices());
  IngestCommand bad;
  bad.remove_edges = {{u, a}, {0, n}};
  bad.add_edges = {{n, 0}};
  Reply r = t.ingest(bad);
  EXPECT_EQ(r.status, Status::kBadRequest);
  EXPECT_EQ(r.error, "remove_edges vertex id out of range");
  bad.remove_edges = {{u, a}};
  r = t.ingest(bad);
  EXPECT_EQ(r.error, "add_edges vertex id out of range");
  EXPECT_EQ(t.infer({}).digest, mixed_digest);
}

TEST(ServeTenant, RejectsBadRequests) {
  Tenant t(small_tenant("a"));
  // Delta without any current snapshot.
  IngestCommand delta;
  delta.add_edges = {{0, 1}};
  EXPECT_EQ(t.ingest(delta).status, Status::kBadRequest);
  // Rows from a cold tenant.
  EXPECT_EQ(t.infer([] {
    InferCommand c;
    c.vertices = {0};
    return c;
  }()).status, Status::kBadRequest);
  IngestCommand adv;
  adv.advance = 1;
  ASSERT_EQ(t.ingest(adv).status, Status::kOk);
  // Vertex out of range.
  InferCommand big;
  big.vertices = {static_cast<VertexId>(t.stream().num_vertices())};
  EXPECT_EQ(t.infer(big).status, Status::kBadRequest);
  // Delta edge out of range.
  IngestCommand bad;
  bad.add_edges = {{0, static_cast<VertexId>(t.stream().num_vertices())}};
  EXPECT_EQ(t.ingest(bad).status, Status::kBadRequest);
}

// ------------------------------------------------- coalescing determinism

// The same request sequence through an unbatched core (batch window 0,
// max batch 1) and a coalescing core (25 ms window, batch 8) must yield
// byte-identical reply bodies per request — batching may only change
// timing, never results.
std::vector<std::string> run_sequence(const ServeOptions& opts,
                                      const std::vector<Request>& seq) {
  ServeCore core(opts);
  core.start();
  std::vector<std::string> bodies(seq.size());
  std::mutex mu;
  std::condition_variable cv;
  std::size_t done = 0;
  for (std::size_t i = 0; i < seq.size(); ++i) {
    const Status s = core.try_submit(
        seq[i], [i, &bodies, &mu, &cv, &done](const Reply& r) {
          std::lock_guard<std::mutex> lock(mu);
          bodies[i] = serve::reply_json(r);
          ++done;
          cv.notify_one();
        });
    EXPECT_EQ(s, Status::kOk) << "request " << i << " not admitted";
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&done, &seq] { return done == seq.size(); });
  lock.unlock();
  core.stop();
  return bodies;
}

TEST(ServeCoalescing, BatchedRepliesAreByteIdenticalToUnbatched) {
  std::vector<Request> seq;
  seq.push_back(ingest_req("a", 1));
  seq.push_back(infer_req("a", {0, 1}));
  seq.push_back(ingest_req("a", 2));
  {
    Request r = ingest_req("a", 0);
    r.ingest.add_edges = {{0, 2}, {2, 0}};
    seq.push_back(r);
  }
  seq.push_back(infer_req("a"));
  seq.push_back(infer_req("a", {2}));
  seq.push_back(ingest_req("a", 4));
  {
    Request r = ingest_req("a", 0);
    r.ingest.remove_edges = {{0, 2}, {2, 0}};
    seq.push_back(r);
  }
  seq.push_back(infer_req("a", {0}));
  seq.push_back(infer_req("a"));

  ServeOptions unbatched;
  unbatched.tenants = {small_tenant("a")};
  unbatched.batch_window_ms = 0;
  unbatched.max_batch = 1;

  ServeOptions batched;
  batched.tenants = {small_tenant("a")};
  batched.batch_window_ms = 25;
  batched.max_batch = 8;

  const auto plain = run_sequence(unbatched, seq);
  const auto coalesced = run_sequence(batched, seq);
  ASSERT_EQ(plain.size(), coalesced.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i], coalesced[i]) << "request " << i;
    EXPECT_NE(plain[i].find("\"status\": \"ok\""), std::string::npos)
        << plain[i];
  }
}

// ---------------------------------------------------- admission control

TEST(ServeAdmission, ShedsThenRecovers) {
  ServeOptions opts;
  TenantConfig cfg = small_tenant("a");
  cfg.max_queue = 2;
  opts.tenants = {cfg};
  opts.batch_window_ms = 0;
  opts.max_batch = 1;
  ServeCore core(opts);
  core.start();

  // Burst far past the queue bound; the worker cannot drain advance-4
  // ingests as fast as try_submit enqueues, so some must shed.
  std::atomic<int> pending{0};
  int shed = 0;
  for (int i = 0; i < 64; ++i) {
    ++pending;
    const Status s = core.try_submit(
        ingest_req("a", 4), [&pending](const Reply&) { --pending; });
    if (s != Status::kOk) {
      --pending;
      ASSERT_EQ(s, Status::kOverloaded);
      ++shed;
    }
  }
  EXPECT_GT(shed, 0);
  EXPECT_GT(core.counters("a").shed, 0u);

  // Recover: wait for the queue to drain, then a fresh request is
  // admitted and served.
  while (pending.load() > 0) std::this_thread::yield();
  const Reply r = core.submit(infer_req("a"));
  EXPECT_EQ(r.status, Status::kOk);
  EXPECT_FALSE(r.digest.empty());
  core.stop();
  const auto c = core.counters("a");
  EXPECT_EQ(c.accepted, c.completed);
  EXPECT_EQ(c.queue_depth, 0u);
}

TEST(ServeAdmission, OverloadedTenantCannotStarveAnother) {
  ServeOptions opts;
  TenantConfig victim = small_tenant("victim");
  victim.max_queue = 2;
  opts.tenants = {victim, small_tenant("other")};
  opts.batch_window_ms = 0;
  opts.max_batch = 1;
  ServeCore core(opts);
  core.start();

  std::atomic<bool> flood{true};
  std::atomic<int> in_flight{0};
  std::thread flooder([&core, &flood, &in_flight] {
    while (flood.load()) {
      ++in_flight;
      if (core.try_submit(ingest_req("victim", 4), [&in_flight](const Reply&) {
            --in_flight;
          }) != Status::kOk) {
        --in_flight;
      }
    }
  });
  // Let the flood fill the victim's two-slot queue first: otherwise the
  // other tenant's six requests can all finish before the victim ever
  // sheds. The deadline turns a victim that never sheds into a failure.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (core.counters("victim").shed == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(core.counters("victim").shed, 0u)
      << "the victim did not shed within the deadline";
  // While the victim floods and sheds, the other tenant's requests are
  // admitted and answered.
  ASSERT_EQ(core.submit(ingest_req("other", 3)).status, Status::kOk);
  for (int i = 0; i < 5; ++i) {
    const Reply r = core.submit(infer_req("other"));
    EXPECT_EQ(r.status, Status::kOk);
  }
  flood.store(false);
  flooder.join();
  while (in_flight.load() > 0) std::this_thread::yield();
  EXPECT_GT(core.counters("victim").shed, 0u);
  EXPECT_EQ(core.counters("other").shed, 0u);
  core.stop();
}

// ------------------------------------------------------------ stress

// Concurrent ingest + infer + SLO scrapes across tenants; run under
// TSan to vet the queue/worker/snapshot locking.
TEST(ServeStress, ConcurrentIngestInferAcrossTenants) {
  ServeOptions opts;
  TenantConfig a = small_tenant("a");
  TenantConfig b = small_tenant("b");
  a.engine.window_size = 2;
  b.engine.window_size = 2;
  opts.tenants = {a, b};
  opts.batch_window_ms = 1;
  opts.max_batch = 4;
  ServeCore core(opts);
  core.start();

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < 4; ++w) {
    threads.emplace_back([&core, &failures, w] {
      const std::string tenant = (w % 2 == 0) ? "a" : "b";
      for (int i = 0; i < 25; ++i) {
        const Reply r = core.submit(i % 3 == 0 ? infer_req(tenant)
                                               : ingest_req(tenant, 1));
        if (r.status != Status::kOk) ++failures;
      }
    });
  }
  threads.emplace_back([&core] {
    for (int i = 0; i < 40; ++i) {
      const std::string slo = core.slo_json();
      EXPECT_NE(slo.find("tagnn.slo.v1"), std::string::npos);
      std::this_thread::yield();
    }
  });
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  const auto totals = core.totals();
  EXPECT_EQ(totals.accepted, 100u);
  EXPECT_EQ(totals.completed, 100u);
  core.stop();

  std::string err;
  EXPECT_TRUE(obs::json_valid(core.slo_json(), &err)) << err;
  EXPECT_TRUE(obs::json_valid(core.tenants_json(), &err)) << err;
}

// -------------------------------------------------------- HTTP plane

TEST(ServePlaneHttp, RoundTripAndErrorMapping) {
  ServePlaneOptions po;
  po.serve.tenants = {small_tenant("a")};
  po.live.port = 0;
  po.live.announce = false;
  ServePlane plane(std::move(po));
  std::string error;
  ASSERT_TRUE(plane.start(&error)) << error;
  const std::uint16_t port = plane.port();
  ASSERT_NE(port, 0);

  auto res = http_post("127.0.0.1", port, "/v1/ingest?tenant=a",
                       "{\"advance\": 3}");
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(res.status, 200);
  obs::analyze::JsonValue doc;
  ASSERT_TRUE(obs::analyze::json_parse(res.body, &doc, &error)) << error;
  EXPECT_EQ(doc.number_at("snapshots"), 3.0);

  res = http_post("127.0.0.1", port, "/v1/infer?tenant=a",
                  "{\"vertices\": [0]}");
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(res.status, 200);
  ASSERT_TRUE(obs::analyze::json_parse(res.body, &doc, &error)) << error;
  EXPECT_NE(doc.string_at("digest"), "");
  ASSERT_TRUE(doc.find("rows") != nullptr);
  EXPECT_EQ(doc.find("rows")->as_array().size(), 1u);

  // Unknown tenant -> 404; malformed body -> 400; GET -> 405; missing
  // tenant param -> 400.
  res = http_post("127.0.0.1", port, "/v1/infer?tenant=nope", "{}");
  EXPECT_EQ(res.status, 404);
  res = http_post("127.0.0.1", port, "/v1/ingest?tenant=a", "{bad");
  EXPECT_EQ(res.status, 400);
  res = http_get("127.0.0.1", port, "/v1/infer?tenant=a");
  EXPECT_EQ(res.status, 405);
  res = http_post("127.0.0.1", port, "/v1/infer", "{}");
  EXPECT_EQ(res.status, 400);

  // SLO + tenants documents are valid JSON with the right schemas, and
  // the live plane's built-ins still answer next to the request plane.
  res = http_get("127.0.0.1", port, "/slo.json");
  ASSERT_EQ(res.status, 200);
  ASSERT_TRUE(obs::analyze::json_parse(res.body, &doc, &error)) << error;
  EXPECT_EQ(doc.string_at("schema"), "tagnn.slo.v1");
  EXPECT_GE(doc.find("requests")->number_at("accepted"), 2.0);
  res = http_get("127.0.0.1", port, "/v1/tenants");
  ASSERT_EQ(res.status, 200);
  ASSERT_TRUE(obs::analyze::json_parse(res.body, &doc, &error)) << error;
  EXPECT_EQ(doc.string_at("schema"), "tagnn.serve.tenants.v1");
  res = http_get("127.0.0.1", port, "/healthz");
  EXPECT_EQ(res.status, 200);
  plane.stop();
}

// ------------------------------------------------------- flight dump

std::string temp_path(const char* tag) {
  return "/tmp/tagnn_test_serve_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + ".jsonl";
}

TEST(ServeFlight, ForkedCrashWhileServingLeavesParseableDump) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "fork + fatal signal under sanitizers";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  GTEST_SKIP() << "fork + fatal signal under sanitizers";
#endif
#endif
  const std::string path = temp_path("crash");
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: bring up a full serving plane with the flight recorder
    // installed, take real traffic, then die by SIGABRT mid-serve.
    obs::live::FlightRecorder::global().reset_for_test();
    ServePlaneOptions po;
    po.serve.tenants = {small_tenant("a")};
    po.live.port = 0;
    po.live.announce = false;
    po.live.interval_ms = 20;
    po.live.flight_recorder_path = path;
    ServePlane plane(std::move(po));
    if (!plane.start(nullptr)) ::_exit(3);
    if (plane.core().submit(ingest_req("a", 2)).status != Status::kOk) {
      ::_exit(4);
    }
    std::abort();
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status)) << "status=" << status;
  EXPECT_EQ(WTERMSIG(status), SIGABRT);
  std::ifstream f(path);
  std::ostringstream buf;
  buf << f.rdbuf();
  std::string err;
  std::size_t docs = 0;
  EXPECT_TRUE(obs::jsonl_valid(buf.str(), &err, true, &docs))
      << err << "\n" << buf.str();
  EXPECT_GE(docs, 2u);  // begin marker + end marker at minimum
  EXPECT_NE(buf.str().find("\"signal\": 6"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tagnn

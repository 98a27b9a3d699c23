// perfbench measure: measures one workload by timing calls into the
// repo's public entry points, and prints one JSON record per line on
// stdout. run.py turns the records into metrics (perfbench/README.md).
//
// Records:
//   {"rec": "setup", "part": "batch"|"serve", "s": ...}
//   {"rec": "leg", "leg": NAME, "s": ..., "ok": true}        one engine run
//   {"rec": "req", "phase": ..., "slice": ..., "op": ..., "rate": ...,
//    "sched": ..., "sent": ..., "done": ..., "status": ..., "ok": ...,
//    "apply_ms": ...}                                        one request
//   {"rec": "sample", "name": ..., "v": ...}                 a timed call
//   {"rec": "value", "name": ..., "v": ...}                  an exact value
//   {"rec": "check", "name": ..., "ok": ..., "detail": ...}  an output check
//
// Usage: perfbench_measure --workload W --seed S --seconds T --trace 0|1
//          --p99-limit-ms L [--trace-out FILE] [--expect-digest HEX]
//          [--describe]
//
// Runs on a pool of std::thread::hardware_concurrency() threads.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "graph/affected_subgraph.hpp"
#include "graph/classify.hpp"
#include "graph/datasets.hpp"
#include "graph/generator.hpp"
#include "graph/ocsr.hpp"
#include "nn/engine.hpp"
#include "nn/gcn.hpp"
#include "nn/rnn.hpp"
#include "nn/similarity.hpp"
#include "nn/weights.hpp"
#include "obs/analyze/jparse.hpp"
#include "obs/live/http.hpp"
#include "obs/mem/memtrack.hpp"
#include "obs/metrics.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/tenant.hpp"
#include "tagnn/accelerator.hpp"
#include "tensor/ops.hpp"
#include "tensor/spmm.hpp"

namespace {

using namespace tagnn;
using Clock = std::chrono::steady_clock;

const Clock::time_point g_t0 = Clock::now();

double now_s() {
  return std::chrono::duration<double>(Clock::now() - g_t0).count();
}

// ------------------------------------------------------------ workloads

constexpr std::size_t kSnapshots = 16;
constexpr SnapshotId kWindow = 4;
constexpr int kSetupRepeats = 5;
// The batch phase and the nominal-rate serve phase alternate in this many
// slices, so both medians span the whole run instead of one stretch of it.
constexpr int kSlices = 3;

// Serve plane shared by every workload: tagnn_serve defaults (batch
// window 2 ms, max batch 8, max queue 64) with two HP tenants at scale
// 1.0 running T-GCN.
constexpr int kTenants = 2;
constexpr const char* kServeDataset = "HP";
constexpr double kServeScale = 1.0;
constexpr const char* kServeModel = "T-GCN";
constexpr std::size_t kStreamSnapshots = 12;
constexpr std::size_t kDeltaEdges = 32;   // removes, and as many adds
constexpr std::size_t kInferRows = 8;
// Open-loop offered rates: the nominal rate, then the saturation ladder.
// The nominal rate keeps each tenant's worker about a quarter busy, so
// queueing does not turn small changes in host speed into large swings
// of the tail.
constexpr double kNominalQps = 80.0;
// The saturation ladder: kLadderSteps steps of equal length. They climb
// this coarse grid (req/s, 1.25x apart) until one fails, then bisect,
// geometrically, between the highest passing and the lowest failing
// rate. A step needs about a second to show a growing backlog, so the
// steps are few and long, and the search puts them near the knee
// wherever the host's load has moved it.
constexpr double kLadder[] = {180, 225, 280, 350, 440};
constexpr int kLadderSteps = 5;
constexpr int kHttpTimeoutMs = 10000;

// Shares of --seconds: batch rounds, the nominal serve rate; the ladder
// gets the rest.
constexpr double kBatchShare = 0.27;
constexpr double kNominalShare = 0.5;

// The workloads differ in the batch shape; the serve leg is the same.
struct Workload {
  const char* name;
  const char* dataset;  // batch graph (datasets:: preset at scale 1.0)
  const char* model;    // batch model preset
};

constexpr Workload kWorkloads[] = {
    {"hp_cdgcn", "HP", "CD-GCN"},
    {"fk_tgcn", "FK", "T-GCN"},
};

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// --------------------------------------------------------------- output

std::mutex g_out_mu;

void emit(const std::string& line) {
  std::lock_guard<std::mutex> lock(g_out_mu);
  std::fwrite(line.data(), 1, line.size(), stdout);
  std::fputc('\n', stdout);
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string quote(const std::string& s) {
  return "\"" + serve::json_escape(s) + "\"";
}

void emit_named(const char* rec, const std::string& name, double v) {
  emit(std::string("{\"rec\": \"") + rec + "\", \"name\": " + quote(name) +
       ", \"v\": " + num(v) + "}");
}
void emit_sample(const std::string& name, double v) {
  emit_named("sample", name, v);
}
void emit_value(const std::string& name, double v) {
  emit_named("value", name, v);
}

bool g_checks_ok = true;

void emit_check(const std::string& name, bool ok, const std::string& detail) {
  if (!ok) g_checks_ok = false;
  emit("{\"rec\": \"check\", \"name\": " + quote(name) +
       ", \"ok\": " + (ok ? "true" : "false") + ", \"detail\": " +
       quote(detail) + "}");
}

void emit_leg(const std::string& leg, double s, bool ok) {
  emit("{\"rec\": \"leg\", \"leg\": " + quote(leg) + ", \"s\": " + num(s) +
       ", \"ok\": " + (ok ? "true" : "false") + "}");
}

// ---------------------------------------------------------------- trace

// In-memory span recorder for the traced run: spans are kept in a
// vector and written as a Chrome trace when the run ends. Off (one
// relaxed load per span) in the untraced run.
struct Span {
  const char* name = nullptr;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t req = 0;  // serve request id, shared by HTTP + replay spans
  double t0 = 0;
  double t1 = 0;
  std::size_t tid = 0;
};

class Tracer {
 public:
  bool on() const { return on_.load(std::memory_order_relaxed); }
  void set(bool on) { on_.store(on, std::memory_order_relaxed); }
  std::uint64_t next_id() { return next_.fetch_add(1) + 1; }
  void add(const Span& s) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(s);
  }
  bool write(const std::string& path) const {
    std::ofstream f(path);
    if (!f) return false;
    std::lock_guard<std::mutex> lock(mu_);
    f << "{\"traceEvents\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      f << (i == 0 ? "\n" : ",\n") << "{\"name\": " << quote(s.name)
        << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.tid
        << ", \"ts\": " << num(s.t0 * 1e6)
        << ", \"dur\": " << num((s.t1 - s.t0) * 1e6)
        << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"req\": " << s.req << "}}";
    }
    f << "\n]}\n";
    return static_cast<bool>(f);
  }

 private:
  std::atomic<bool> on_{false};
  std::atomic<std::uint64_t> next_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

Tracer g_tracer;
thread_local std::uint64_t t_parent = 0;

std::size_t thread_tag() {
  return std::hash<std::thread::id>{}(std::this_thread::get_id()) % 100000;
}

class SpanScope {
 public:
  explicit SpanScope(const char* name, std::uint64_t req = 0) {
    if (!g_tracer.on()) return;
    span_.name = name;
    span_.id = g_tracer.next_id();
    span_.parent = t_parent;
    span_.req = req;
    span_.tid = thread_tag();
    span_.t0 = now_s();
    t_parent = span_.id;
  }
  ~SpanScope() {
    if (span_.id == 0) return;
    span_.t1 = now_s();
    t_parent = span_.parent;
    g_tracer.add(span_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Span span_;
};

template <class F>
double timed(const char* span, F&& f) {
  SpanScope scope(span);
  const auto t0 = Clock::now();
  f();
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// -------------------------------------------------------------- digests

std::uint64_t fnv1a(const void* data, std::size_t n,
                    std::uint64_t h = 14695981039346656037ull) {
  const auto* b = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= b[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t digest(const Matrix& m) {
  return fnv1a(m.data(), m.size() * sizeof(float));
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

bool same_bits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

std::uint64_t graph_digest(const DynamicGraph& g) {
  std::uint64_t h = 14695981039346656037ull;
  for (SnapshotId t = 0; t < g.num_snapshots(); ++t) {
    const Snapshot& s = g.snapshot(t);
    const auto nb = s.graph.neighbor_array();
    h = fnv1a(nb.data(), nb.size() * sizeof(VertexId), h);
    h = fnv1a(s.features.data(), s.features.size() * sizeof(float), h);
  }
  return h;
}

// ------------------------------------------------------------ options

struct Options {
  const Workload* wl = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::size_t threads = 0;
  double limit_ms = 0;  // serve p99 limit, from BENCHMARK.json
  std::string trace_out;
  std::string expect_digest;
  bool describe = false;
};

// ------------------------------------------------------------- batch

struct BatchInputs {
  DynamicGraph graph;
  DgnnWeights weights;
};

BatchInputs make_batch_inputs(const Workload& wl, std::uint64_t seed) {
  GeneratorConfig cfg = datasets::config(wl.dataset, 1.0, kSnapshots);
  cfg.seed += seed * 1000003ull;
  BatchInputs in;
  in.graph = generate_dynamic_graph(cfg);
  in.weights = DgnnWeights::init(ModelConfig::preset(wl.model),
                                 cfg.feature_dim, 7 + seed);
  return in;
}

EngineOptions engine_opts() {
  EngineOptions o;
  o.window_size = kWindow;
  return o;
}

// Engine options the accelerator's functional pass uses (accelerator.cpp).
EngineOptions accel_engine_opts() {
  EngineOptions o = engine_opts();
  o.store_outputs = false;
  o.count_redundancy = false;
  return o;
}

struct BatchRef {
  std::uint64_t concurrent = 0;  // final_hidden digest, default options
  Matrix reference_hidden;
};

double phase_ms(double s) { return s * 1e3; }

// One timed ConcurrentEngine run; checks the digest against the first.
double run_concurrent(const char* leg, const EngineOptions& eo,
                      const BatchInputs& in, const BatchRef& ref,
                      bool check_digest, bool emit_phases) {
  EngineResult r;
  const double s = timed(leg, [&] {
    r = ConcurrentEngine(eo).run(in.graph, in.weights);
  });
  const bool ok = !check_digest || digest(r.final_hidden) == ref.concurrent;
  emit_leg(leg, s, ok);
  if (!ok) emit_check(std::string(leg) + ".digest", false,
                      "final_hidden digest " + hex(digest(r.final_hidden)) +
                          " != " + hex(ref.concurrent));
  if (emit_phases) {
    emit_sample("nn.overhead_ms", phase_ms(r.seconds.overhead));
    emit_sample("nn.load_ms", phase_ms(r.seconds.load));
    emit_sample("nn.gnn_ms", phase_ms(r.seconds.gnn));
    emit_sample("nn.rnn_ms", phase_ms(r.seconds.rnn));
    emit_sample("nn.unattributed_ms", phase_ms(s - r.seconds.total()));
  }
  return s;
}

double run_reference(const BatchInputs& in, const BatchRef& ref) {
  EngineResult r;
  const double s = timed("reference", [&] {
    r = ReferenceEngine(engine_opts()).run(in.graph, in.weights);
  });
  const bool ok = same_bits(r.final_hidden, ref.reference_hidden);
  emit_leg("reference", s, ok);
  if (!ok) emit_check("reference.repeat", false, "final_hidden changed");
  return s;
}

double run_accel(const char* leg, const BatchInputs& in, const BatchRef& ref,
                 bool trace) {
  AccelResult a;
  const double s = timed(leg, [&] {
    a = TagnnAccelerator(TagnnConfig{}).run(in.graph, in.weights);
  });
  const bool ok = digest(a.functional.final_hidden) == ref.concurrent;
  emit_leg(leg, s, ok);
  if (!ok) emit_check("accel.functional_digest", false,
                      hex(digest(a.functional.final_hidden)) +
                          " != concurrent " + hex(ref.concurrent));
  if (trace) emit_value("tagnn.cycles", static_cast<double>(a.cycles.total));
  return s;
}

// Untimed warm-up runs that also fix the reference outputs every timed
// run is checked against.
BatchRef batch_reference(const Options& o, const BatchInputs& in) {
  BatchRef ref;
  EngineResult conc = ConcurrentEngine(engine_opts()).run(in.graph, in.weights);
  ref.concurrent = digest(conc.final_hidden);
  EngineResult rf = ReferenceEngine(engine_opts()).run(in.graph, in.weights);
  ref.reference_hidden = std::move(rf.final_hidden);

  EngineOptions noskip = engine_opts();
  noskip.cell_skip = false;
  const EngineResult ns = ConcurrentEngine(noskip).run(in.graph, in.weights);
  const bool noskip_ok = same_bits(ns.final_hidden, ref.reference_hidden);
  emit_check("concurrent_noskip_equals_reference", noskip_ok,
             "ConcurrentEngine(cell_skip=false) vs ReferenceEngine, bitwise");
  emit_leg("check.noskip", 0, noskip_ok);

  {
    ScopedGlobalThreadPool one(1);
    const EngineResult r1 =
        ConcurrentEngine(engine_opts()).run(in.graph, in.weights);
    const bool ok = digest(r1.final_hidden) == ref.concurrent;
    emit_check("concurrent_1thread_digest", ok,
               "1-thread digest " + hex(digest(r1.final_hidden)) +
                   " vs " + hex(ref.concurrent));
    emit_leg("check.1thread", 0, ok);
  }
  if (!o.expect_digest.empty()) {
    const bool ok = hex(ref.concurrent) == o.expect_digest;
    emit_check("expected_digest", ok,
               "concurrent digest " + hex(ref.concurrent) + " vs expected " +
                   o.expect_digest);
    emit_leg("check.expected_digest", 0, ok);
  }
  emit_value("batch.snapshots", static_cast<double>(in.graph.num_snapshots()));

  // Exact work counts of the default configuration.
  const OpCounts c = conc.total_counts();
  const double gnn_total =
      static_cast<double>(c.gnn_vertex_reused + c.gnn_vertex_computed);
  const double rnn_total =
      static_cast<double>(c.rnn_full + c.rnn_delta + c.rnn_skip);
  if (o.trace) {
    emit_value("nn.gnn_reuse_frac",
               gnn_total > 0 ? c.gnn_vertex_reused / gnn_total : 0);
    emit_value("nn.rnn_skip_frac", rnn_total > 0 ? c.rnn_skip / rnn_total : 0);
    emit_value("nn.rnn_delta_frac",
               rnn_total > 0 ? c.rnn_delta / rnn_total : 0);
    emit_value("nn.mmacs", c.macs / 1e6);
    emit_value("nn.feature_mb", c.feature_bytes / 1e6);
  }
  return ref;
}

// Interleaved reference / concurrent / accelerator rounds: each round
// rotates the leg order so a noisy-neighbour burst hits every leg alike.
// `round` carries the rotation across calls.
void batch_phase(const Options& o, const BatchInputs& in, const BatchRef& ref,
                 double budget_s, int& round) {
  const double end = now_s() + budget_s;
  do {
    for (int k = 0; k < 3; ++k) {
      switch ((round + k) % 3) {
        case 0: run_reference(in, ref); break;
        case 1:
          run_concurrent("concurrent", engine_opts(), in, ref, true, o.trace);
          break;
        default: run_accel("accel", in, ref, o.trace); break;
      }
    }
    ++round;
  } while (now_s() < end);
}

// ----------------------------------------------- batch per-layer (trace)

template <class F>
void sample_calls(const char* name, int reps, double scale, F&& f) {
  for (int i = 0; i < reps; ++i) emit_sample(name, timed(name, f) * scale);
}

void batch_layers(const Options& o, const BatchInputs& in, const BatchRef& ref,
                  double budget_s) {
  const DynamicGraph& g = in.graph;
  const DgnnWeights& w = in.weights;
  const std::size_t layers = w.config.gnn_layers;

  // Mechanism ablations, the accelerator's own functional options, and
  // the accelerator itself, interleaved.
  struct Ablation {
    const char* leg;
    EngineOptions eo;
    bool check;
  };
  std::vector<Ablation> abl;
  abl.push_back({"ab.default", engine_opts(), true});
  abl.push_back({"ab.reuse_off", engine_opts(), false});
  abl.back().eo.gnn_reuse = false;
  abl.push_back({"ab.skip_off", engine_opts(), false});
  abl.back().eo.cell_skip = false;
  abl.push_back({"ab.pipeline_off", engine_opts(), true});
  abl.back().eo.pipeline_windows = false;
  abl.push_back({"ab.accel_opts", accel_engine_opts(), true});
  const double end = now_s() + budget_s;
  for (int round = 0; round < 3 || now_s() < end; ++round) {
    for (std::size_t k = 0; k <= abl.size(); ++k) {
      const std::size_t i = (round + k) % (abl.size() + 1);
      if (i == abl.size()) {
        run_accel("ab.accel", in, ref, false);
      } else {
        run_concurrent(abl[i].leg, abl[i].eo, in, ref, abl[i].check, false);
      }
    }
  }

  // Thread scaling and pool busy time.
  for (int round = 0; round < 3; ++round) {
    {
      ScopedGlobalThreadPool one(1);
      run_concurrent("scale.1thread", engine_opts(), in, ref, true, false);
    }
    run_concurrent("scale.nthread", engine_opts(), in, ref, true, false);
  }
  {
    obs::MetricsRegistry::global().reset();
    double wall = 0;
    for (int i = 0; i < 3; ++i) {
      wall += run_concurrent("pool.leg", engine_opts(), in, ref, true, false);
    }
    const auto snap = obs::MetricsRegistry::global().snapshot();
    const obs::MetricValue* busy = snap.find("tagnn.pool.worker_busy_seconds");
    const double busy_s = busy != nullptr ? busy->hist.sum : 0;
    emit_value("common.pool_busy_frac",
               busy_s / (static_cast<double>(o.threads) * wall));
  }

  // graph: the stream's real windows.
  double unaffected = 0, subgraph = 0;
  std::size_t windows = 0;
  std::vector<VertexId> changed;  // layer-0 rows that differ in window 0
  WindowClassification cls0;
  for (SnapshotId start = 0; start + kWindow <= g.num_snapshots();
       start += kWindow) {
    const Window win{start, kWindow};
    for (int rep = 0; rep < 3; ++rep) {
      WindowClassification cls;
      emit_sample("graph.classify_ms",
                  1e3 * timed("graph.classify", [&] {
                    cls = classify_window(g, win);
                  }));
      std::vector<std::vector<bool>> unchanged;
      emit_sample("graph.unchanged_ms",
                  1e3 * timed("graph.unchanged", [&] {
                    unchanged = unchanged_per_layer(g, win, cls, layers);
                  }));
      AffectedSubgraph sub;
      emit_sample("graph.subgraph_ms",
                  1e3 * timed("graph.subgraph", [&] {
                    sub = extract_affected_subgraph(g, win, cls);
                  }));
      emit_sample("graph.ocsr_ms", 1e3 * timed("graph.ocsr", [&] {
                                     OCsr::build(g, win, cls, sub);
                                   }));
      if (rep == 0) {
        unaffected += cls.ratio(VertexClass::kUnaffected);
        subgraph += static_cast<double>(sub.size()) / g.num_vertices();
        ++windows;
        if (start == 0) {
          for (VertexId v = 0; v < g.num_vertices(); ++v) {
            if (!unchanged[0][v]) changed.push_back(v);
          }
          cls0 = std::move(cls);
        }
      }
    }
  }
  emit_value("graph.unaffected_frac", unaffected / windows);
  emit_value("graph.subgraph_frac", subgraph / windows);

  // tensor: layer-0 shapes on snapshot 0.
  const Snapshot& s0 = g.snapshot(0);
  const Snapshot& s1 = g.snapshot(1);
  const Matrix& w0 = w.gnn[0];
  const std::size_t n = g.num_vertices();
  Matrix c(n, w0.cols());
  constexpr int kReps = 7;
  for (int i = 0; i < kReps; ++i) {
    const double s =
        timed("tensor.gemm", [&] { ops::gemm(s0.features, w0, c); });
    emit_sample("tensor.gemm_ms", s * 1e3);
    emit_sample("tensor.gemm_gmac_s",
                static_cast<double>(n) * w0.rows() * w0.cols() / s / 1e9);
  }
  Matrix agg;
  sample_calls("tensor.spmm_ms", kReps, 1e3, [&] {
    spmm_mean_csr(s0.graph.offsets(), s0.graph.neighbor_array(), s0.present,
                  s0.features, {}, agg);
  });

  // nn: one GCN layer, the RNN cell and the similarity score.
  Matrix z0(n, w0.cols()), z1(n, w0.cols());
  OpCounts counts;
  GcnScratch scratch;
  GcnForwardOptions full;
  full.scratch = &scratch;
  sample_calls("nn.gcn_layer_ms", kReps, 1e3, [&] {
    gcn_layer_forward(s0, s0.features, w0, full, z0, counts);
  });
  gcn_layer_forward(s1, s1.features, w0, full, z1, counts);
  GcnForwardOptions part = full;
  part.compute_rows = &changed;
  Matrix zc = z0;
  sample_calls("nn.gcn_layer_changed_ms", kReps, 1e3, [&] {
    gcn_layer_forward(s1, s1.features, w0, part, zc, counts);
  });

  const RnnCell cell(w);
  std::vector<VertexId> present;
  for (VertexId v = 0; v < n; ++v) {
    if (s0.present[v]) present.push_back(v);
  }
  Matrix h(n, cell.hidden()), cs(n, cell.cell_state_dim()),
      cache(n, cell.cache_dim());
  RnnBatchScratch ws;
  sample_calls("nn.rnn_full_ms", kReps, 1e3, [&] {
    cell.full_update_rows(z0, present, h, cs, cache, ws, counts);
  });
  sample_calls("nn.similarity_ms", kReps, 1e3, [&] {
    for (VertexId v : present) {
      similarity_score(z0.row(v), z1.row(v), s0.graph.neighbors(v),
                       s1.graph.neighbors(v), cls0.clazz);
    }
  });

  // common: an empty parallel_for over n rows.
  for (int i = 0; i < 400; ++i) {
    const auto t0 = Clock::now();
    parallel_for(0, n, [](std::size_t, std::size_t) {});
    emit_sample("common.parallel_for_us",
                std::chrono::duration<double, std::micro>(Clock::now() - t0)
                    .count());
  }
}

// --------------------------------------------------------------- serve

struct ServeRequest {
  int tenant = 0;
  char op = 'i';  // 'a' advance, 'd' delta, 'i' infer
  std::string body;
  std::string phase;
  int slice = 0;     // which slice of the phase
  double rate = 0;   // offered rate of the phase (requests/s)
  double sched = 0;  // scheduled send time, s after phase start
  // Results.
  double sent = 0;
  double done = 0;
  int status = 0;  // HTTP status; 0 = transport error, -1 = never sent
  std::string reply;
  double apply_s = -1;  // replay Tenant::apply time
  double submit_s = -1;  // in-process ServeCore::submit round trip
  bool ok = false;
};

const char* op_name(char op) {
  return op == 'a' ? "advance" : op == 'd' ? "delta" : "infer";
}

struct TenantInputs {
  VertexId n = 0;
  std::vector<std::pair<VertexId, VertexId>> edges;  // of stream snapshot 0
  std::vector<VertexId> stable;  // present in every stream snapshot
};

TenantInputs tenant_inputs(const DynamicGraph& stream) {
  TenantInputs ti;
  ti.n = stream.num_vertices();
  const Snapshot& s0 = stream.snapshot(0);
  for (VertexId u = 0; u < ti.n; ++u) {
    for (VertexId v : s0.graph.neighbors(u)) ti.edges.emplace_back(u, v);
  }
  for (VertexId v = 0; v < ti.n; ++v) {
    bool all = true;
    for (SnapshotId t = 0; t < stream.num_snapshots() && all; ++t) {
      all = stream.snapshot(t).present[v];
    }
    if (all) ti.stable.push_back(v);
  }
  return ti;
}

std::string edge_list(const std::vector<std::pair<VertexId, VertexId>>& es) {
  std::string s = "[";
  for (std::size_t i = 0; i < es.size(); ++i) {
    if (i != 0) s += ", ";
    s += "[" + std::to_string(es[i].first) + ", " +
         std::to_string(es[i].second) + "]";
  }
  return s + "]";
}

// The serve mix, 40% {"advance": 1}, 20% explicit deltas and 40% infers,
// dealt from shuffled copies of a deck of ten ops, so every ten
// consecutive requests have the exact mix: the seed changes the order,
// not the share of slow ops, to which the latency percentiles are
// sensitive.
class OpDeck {
 public:
  char deal(Rng& rng) {
    if (next_ == std::size(deck_)) {
      for (std::size_t i = std::size(deck_) - 1; i > 0; --i) {
        std::swap(deck_[i], deck_[rng.next_below(i + 1)]);
      }
      next_ = 0;
    }
    return deck_[next_++];
  }

 private:
  char deck_[10] = {'a', 'a', 'a', 'a', 'd', 'd', 'i', 'i', 'i', 'i'};
  std::size_t next_ = std::size(deck_);
};

ServeRequest make_request(Rng& rng, OpDeck& deck,
                          const std::vector<TenantInputs>& tenants) {
  ServeRequest r;
  r.tenant = static_cast<int>(rng.next_below(tenants.size()));
  const TenantInputs& ti = tenants[r.tenant];
  r.op = deck.deal(rng);
  if (r.op == 'a') {
    r.body = "{\"advance\": 1}";
  } else if (r.op == 'd') {
    std::vector<std::pair<VertexId, VertexId>> rm, add;
    for (std::size_t i = 0; i < kDeltaEdges; ++i) {
      rm.push_back(ti.edges[rng.next_below(ti.edges.size())]);
      // Two distinct always-present endpoints.
      const std::size_t a = rng.next_below(ti.stable.size());
      std::size_t b = rng.next_below(ti.stable.size() - 1);
      if (b >= a) ++b;
      add.emplace_back(ti.stable[a], ti.stable[b]);
    }
    r.body = "{\"add_edges\": " + edge_list(add) +
             ", \"remove_edges\": " + edge_list(rm) + "}";
  } else {
    r.op = 'i';
    r.body = "{\"vertices\": [";
    for (std::size_t i = 0; i < kInferRows; ++i) {
      if (i != 0) r.body += ", ";
      r.body += std::to_string(rng.next_below(ti.n));
    }
    r.body += "]}";
  }
  return r;
}

// Poisson arrivals at `qps` over `duration_s`.
void append_schedule(std::vector<ServeRequest>& out, Rng& rng, OpDeck& deck,
                     const std::vector<TenantInputs>& tenants, double qps,
                     double duration_s, const std::string& phase, int slice) {
  for (double t = 0;;) {
    t += -std::log(1.0 - rng.next_double()) / qps;
    if (t >= duration_s) break;
    ServeRequest r = make_request(rng, deck, tenants);
    r.phase = phase;
    r.slice = slice;
    r.rate = qps;
    r.sched = t;
    out.push_back(std::move(r));
  }
}

std::string tenant_name(int t) { return "t" + std::to_string(t); }

std::string request_path(const ServeRequest& r) {
  return std::string(r.op == 'i' ? "/v1/infer" : "/v1/ingest") +
         "?tenant=" + tenant_name(r.tenant);
}

// Open-loop sender: `threads` senders (at most that many connections in
// flight) pull requests in schedule order and send each at its
// scheduled time, or as soon as a sender is free when running late.
// Requests not sent `deadline_s` after the phase start stay unsent
// (status -1): the generator fell behind.
void send_phase(std::vector<ServeRequest>& reqs, std::size_t begin,
                std::size_t end, std::uint16_t port, std::size_t threads,
                double deadline_s) {
  const double start = now_s();
  const double deadline = start + deadline_s;
  std::atomic<std::size_t> next{begin};
  std::vector<std::thread> senders;
  for (std::size_t k = 0; k < threads; ++k) {
    senders.emplace_back([&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= end) return;
        ServeRequest& r = reqs[i];
        const double wait = start + r.sched - now_s();
        if (wait > 0) {
          std::this_thread::sleep_for(std::chrono::duration<double>(wait));
        }
        if (now_s() > deadline) {
          r.status = -1;
          continue;
        }
        r.sent = now_s() - start;
        SpanScope span("serve.http", i + 1);
        const auto res = obs::live::http_post("127.0.0.1", port,
                                              request_path(r), r.body,
                                              kHttpTimeoutMs);
        r.done = now_s() - start;
        r.status = res.ok ? res.status : 0;
        r.reply = res.body;
      }
    });
  }
  for (auto& t : senders) t.join();
}

serve::ServePlaneOptions plane_options() {
  serve::ServePlaneOptions po;
  for (int i = 0; i < kTenants; ++i) {
    serve::TenantConfig cfg;
    cfg.name = tenant_name(i);
    cfg.dataset = kServeDataset;
    cfg.scale = kServeScale;
    cfg.stream_snapshots = kStreamSnapshots;
    cfg.model = kServeModel;
    cfg.weight_seed = 3 + static_cast<std::uint64_t>(i);
    cfg.engine.window_size = kWindow;
    cfg.max_queue = 64;
    po.serve.tenants.push_back(std::move(cfg));
  }
  po.serve.batch_window_ms = 2.0;
  po.serve.max_batch = 8;
  po.live.port = 0;
  po.live.announce = false;
  return po;
}

// Server start plus tenant generation until the first 200 reply.
std::unique_ptr<serve::ServePlane> start_plane(double* seconds) {
  const double t0 = now_s();
  auto plane = std::make_unique<serve::ServePlane>(plane_options());
  std::string error;
  if (!plane->start(&error)) throw std::runtime_error("serve start: " + error);
  for (;;) {
    const auto res =
        obs::live::http_get("127.0.0.1", plane->port(), "/healthz", 2000);
    if (res.ok && res.status == 200) break;
    if (now_s() - t0 > 60) throw std::runtime_error("serve: no 200 reply");
  }
  *seconds = now_s() - t0;
  return plane;
}

bool parse_request(const ServeRequest& r, serve::Request* out) {
  out->tenant = tenant_name(r.tenant);
  out->op = r.op == 'i' ? serve::OpKind::kInfer : serve::OpKind::kIngest;
  std::string error;
  return r.op == 'i' ? serve::parse_infer(r.body, &out->infer, &error)
                     : serve::parse_ingest(r.body, &out->ingest, &error);
}

// Replays each tenant's requests serially on a fresh in-process Tenant,
// in the order the server applied them, and checks every reply body is
// byte-identical. The order is recovered from the replies: an ingest's
// epoch counts the ingests applied up to and including it, and every
// infer with epoch e ran after ingest e and before ingest e + 1 (infers
// between two ingests see the same state).
void replay_tenant(std::vector<ServeRequest>& reqs, int t) {
  struct Key {
    std::uint64_t epoch;
    int infer;
    std::size_t idx;
  };
  std::vector<Key> order;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    ServeRequest& r = reqs[i];
    if (r.tenant != t) continue;
    r.ok = false;
    if (r.status != 200) continue;
    obs::analyze::JsonValue doc;
    if (!obs::analyze::json_parse(r.reply, &doc, nullptr)) continue;
    order.push_back({static_cast<std::uint64_t>(doc.number_at("epoch", 0)),
                     r.op == 'i' ? 1 : 0, i});
  }
  std::stable_sort(order.begin(), order.end(), [](const Key& a, const Key& b) {
    return a.epoch != b.epoch ? a.epoch < b.epoch : a.infer < b.infer;
  });
  serve::Tenant tenant(plane_options().serve.tenants[t]);
  for (const Key& k : order) {
    ServeRequest& r = reqs[k.idx];
    serve::Request req;
    if (!parse_request(r, &req)) continue;
    serve::Reply reply;
    {
      SpanScope span("serve.replay", k.idx + 1);
      const auto t0 = Clock::now();
      reply = tenant.apply(req);
      r.apply_s = std::chrono::duration<double>(Clock::now() - t0).count();
    }
    r.ok = serve::reply_json(reply) == r.reply;
  }
}

// Tenants replay concurrently (as the server ran them) unless `serial`,
// which the traced run uses so per-op apply times are not disturbed.
void replay(std::vector<ServeRequest>& reqs, bool serial) {
  std::vector<std::thread> threads;
  for (int t = 0; t < kTenants; ++t) {
    if (serial) {
      replay_tenant(reqs, t);
    } else {
      threads.emplace_back([&reqs, t] { replay_tenant(reqs, t); });
    }
  }
  for (auto& th : threads) th.join();
}

void emit_request(const ServeRequest& r) {
  emit("{\"rec\": \"req\", \"phase\": " + quote(r.phase) + ", \"tenant\": " +
       std::to_string(r.tenant) + ", \"op\": \"" + op_name(r.op) +
       "\", \"slice\": " + std::to_string(r.slice) + ", \"rate\": " +
       num(r.rate) + ", \"sched\": " + num(r.sched) +
       ", \"sent\": " + num(r.sent) + ", \"done\": " + num(r.done) +
       ", \"status\": " + std::to_string(r.status) + ", \"ok\": " +
       (r.ok ? "true" : "false") + ", \"apply_ms\": " + num(r.apply_s * 1e3) +
       "}");
}

struct ServePlan {
  std::vector<TenantInputs> tenants;
  std::vector<ServeRequest> reqs;
  // [begin, end) of each phase slice in reqs, in sending order: priming,
  // kSlices nominal slices, then (added as they run) the ladder steps and
  // the final probe.
  struct Phase {
    std::size_t begin, end;
    double duration_s;  // 0 = send one by one, in order
    std::string name;
  };
  std::vector<Phase> phases;
};

std::uint64_t schedule_seed(const Options& o, int stream) {
  return o.seed * 0x9E3779B97F4A7C15ull + 17 + static_cast<unsigned>(stream);
}

ServePlan plan_serve(const Options& o, serve::ServePlane& plane,
                     double nominal_s) {
  ServePlan p;
  for (int t = 0; t < kTenants; ++t) {
    p.tenants.push_back(
        tenant_inputs(plane.core().tenant(tenant_name(t))->stream()));
  }
  Rng rng(schedule_seed(o, 0));
  OpDeck deck;
  // Priming: one window per tenant, so infers never hit a cold tenant.
  for (int t = 0; t < kTenants; ++t) {
    ServeRequest a;
    a.tenant = t;
    a.op = 'a';
    a.body = "{\"advance\": 4}";
    a.phase = "prime";
    p.reqs.push_back(a);
    ServeRequest i = a;
    i.op = 'i';
    i.body = "{}";
    p.reqs.push_back(i);
  }
  p.phases.push_back({0, p.reqs.size(), 0, "prime"});
  for (int k = 0; k < kSlices; ++k) {
    const std::size_t b = p.reqs.size();
    const double dur = nominal_s / kSlices;
    append_schedule(p.reqs, rng, deck, p.tenants, kNominalQps, dur, "nominal",
                    k);
    p.phases.push_back({b, p.reqs.size(), dur, "nominal"});
  }
  return p;
}

// Ladder step k at `qps`. Its arrivals and ops come from a stream of its
// own, so the seed fixes them up to the rate the search picks.
const ServePlan::Phase& add_ladder_step(const Options& o, ServePlan& p, int k,
                                        double qps, double duration_s) {
  Rng rng(schedule_seed(o, 1 + k));
  OpDeck deck;
  const std::size_t b = p.reqs.size();
  const std::string name = "ladder" + std::to_string(k);
  append_schedule(p.reqs, rng, deck, p.tenants, qps, duration_s, name, 0);
  p.phases.push_back({b, p.reqs.size(), duration_s, name});
  return p.phases.back();
}

// Final digest probe per tenant.
const ServePlan::Phase& add_final_probe(ServePlan& p) {
  const std::size_t b = p.reqs.size();
  for (int t = 0; t < kTenants; ++t) {
    ServeRequest r;
    r.tenant = t;
    r.op = 'i';
    r.body = "{\"vertices\": [0, 1, 2, 3]}";
    r.phase = "final";
    p.reqs.push_back(r);
  }
  p.phases.push_back({b, p.reqs.size(), 0, "final"});
  return p.phases.back();
}

// Whether a ladder step passes: p99 (tail rule) and the backlog, the
// worst lateness over the last tenth of the step, within the limit, and
// every request answered 200. This is perfstats.step_summary's rule,
// which run.py applies again for the metric; here it only steers the
// search.
bool step_passes(const std::vector<ServeRequest>& reqs,
                 const ServePlan::Phase& ph, double limit_ms) {
  std::vector<double> lat;
  double late_end_ms = 0;
  const std::size_t n = ph.end - ph.begin;
  for (std::size_t i = ph.begin; i < ph.end; ++i) {
    const ServeRequest& r = reqs[i];
    if (r.status != 200) return false;
    lat.push_back(1e3 * (r.done - r.sched));
    if (i >= ph.end - std::max<std::size_t>(1, n / 10)) {
      late_end_ms = std::max(late_end_ms, 1e3 * (r.sent - r.sched));
    }
  }
  std::sort(lat.begin(), lat.end());
  double p99 = lat.empty() ? 0 : lat[lat.size() / 2];
  for (int q = 99; q >= 50; --q) {
    const auto rank = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::ceil(q * lat.size() / 100.0)));
    if (lat.size() - rank >= 10) {
      p99 = lat[rank - 1];
      break;
    }
  }
  return p99 <= limit_ms && late_end_ms <= limit_ms;
}

// Priming and the final probe are sent one by one, in order; a timed
// phase may overrun its schedule by a quarter.
void send(const Options& o, serve::ServePlane& plane, ServePlan& p,
          const ServePlan::Phase& ph) {
  if (ph.duration_s > 0) {
    send_phase(p.reqs, ph.begin, ph.end, plane.port(), o.threads,
               ph.duration_s * 1.25);
  } else {
    send_phase(p.reqs, ph.begin, ph.end, plane.port(), 1, 60.0);
  }
}

// The timed phase: priming, then kSlices alternations of batch rounds and
// nominal-rate serving, then the ladder and the final probe.
void timed_phase(const Options& o, const BatchInputs& in, const BatchRef& ref,
                 double batch_s, double ladder_s, serve::ServePlane& plane,
                 ServePlan& p) {
  obs::MetricsRegistry::global().reset();
  send(o, plane, p, p.phases[0]);
  int round = 0;
  for (int k = 0; k < kSlices; ++k) {
    batch_phase(o, in, ref, batch_s / kSlices, round);
    send(o, plane, p, p.phases[1 + k]);
  }
  double pass = kNominalQps, fail = 0;
  std::size_t coarse = 0;
  for (int k = 0; k < kLadderSteps; ++k) {
    const double qps = fail > 0                       ? std::sqrt(pass * fail)
                       : coarse < std::size(kLadder) ? kLadder[coarse++]
                                                     : pass * 1.25;
    const ServePlan::Phase& ph =
        add_ladder_step(o, p, k, qps, ladder_s / kLadderSteps);
    send(o, plane, p, ph);
    (step_passes(p.reqs, ph, o.limit_ms) ? pass : fail) = qps;
  }
  send(o, plane, p, add_final_probe(p));
  const auto snap = obs::MetricsRegistry::global().snapshot();
  if (const auto* bs = snap.find("tagnn.serve.batch_size")) {
    emit_value("serve.batch_size_mean", bs->hist.mean());
  }
  const auto* hits = snap.find("tagnn.serve.infer_cache_hits");
  std::size_t infers = 0;
  for (const ServeRequest& r : p.reqs) infers += r.op == 'i' && r.status == 200;
  emit_value("serve.cache_hit_frac",
             infers > 0 && hits != nullptr
                 ? static_cast<double>(hits->u64) / infers
                 : 0.0);
}

// One in-process ServeCore::submit (batch hold + queue wait + apply).
void submit(serve::ServePlane& plane, ServePlan& p, std::size_t i) {
  ServeRequest& r = p.reqs[i];
  serve::Request req;
  if (!parse_request(r, &req)) return;
  SpanScope span("serve.submit", i + 1);
  const auto t0 = Clock::now();
  const serve::Reply reply = plane.core().submit(std::move(req));
  r.submit_s = std::chrono::duration<double>(Clock::now() - t0).count();
  r.status = serve::http_status(reply.status);
  r.reply = serve::reply_json(reply);
}

// Traced-run extras on the live server. Span-recording overhead: pairs
// of the same leg (a concurrent engine run plus a slice of in-process
// submits, whose times also give the queue time), with the tracer off
// and on, in alternating order. Then /healthz round trips.
void serve_layers(const Options& o, const BatchInputs& in, const BatchRef& ref,
                  serve::ServePlane& plane, ServePlan& p) {
  constexpr int kPairs = 8;
  constexpr int kSubmitsPerLeg = 25;
  Rng rng(o.seed * 31 + 5);
  OpDeck deck;
  std::size_t next = p.reqs.size();
  for (int i = 0; i < 2 * kPairs * kSubmitsPerLeg; ++i) {
    ServeRequest r = make_request(rng, deck, p.tenants);
    r.phase = "inproc";
    p.reqs.push_back(std::move(r));
  }
  for (int pair = 0; pair < kPairs; ++pair) {
    for (int k = 0; k < 2; ++k) {
      const bool traced = (pair + k) % 2 == 1;
      g_tracer.set(traced);
      const auto t0 = Clock::now();
      run_concurrent("ovh.concurrent", engine_opts(), in, ref, true, false);
      for (int j = 0; j < kSubmitsPerLeg; ++j) submit(plane, p, next++);
      emit_sample(traced ? "ovh.traced_s" : "ovh.untraced_s",
                  std::chrono::duration<double>(Clock::now() - t0).count());
    }
  }
  g_tracer.set(true);
  for (int i = 0; i < 200; ++i) {
    const auto t0 = Clock::now();
    const auto res =
        obs::live::http_get("127.0.0.1", plane.port(), "/healthz", 2000);
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    if (res.ok && res.status == 200) emit_sample("http.roundtrip_ms", ms);
  }
  // parse_ingest on a delta body.
  std::string body;
  for (const ServeRequest& r : p.reqs) {
    if (r.op == 'd') {
      body = r.body;
      break;
    }
  }
  for (int i = 0; i < 500 && !body.empty(); ++i) {
    serve::IngestCommand cmd;
    std::string error;
    const auto t0 = Clock::now();
    serve::parse_ingest(body, &cmd, &error);
    emit_sample("serve.parse_us",
                std::chrono::duration<double, std::micro>(Clock::now() - t0)
                    .count());
  }
}

// CsrGraph::from_edges on the serve graph (the delta path's rebuild).
void csr_layer(const TenantInputs& ti) {
  for (int i = 0; i < 7; ++i) {
    auto edges = ti.edges;
    emit_sample("graph.csr_from_edges_ms",
                1e3 * timed("graph.csr_from_edges", [&] {
                  CsrGraph::from_edges(ti.n, std::move(edges));
                }));
  }
}

// ---------------------------------------------------------------- main

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_measure --workload W --seed S --seconds T "
               "--trace 0|1 --p99-limit-ms L [--trace-out FILE] "
               "[--expect-digest HEX] [--describe]\n");
  return 2;
}

int run(const Options& o) {
  ScopedGlobalThreadPool pool(o.threads);
  const Workload& wl = *o.wl;
  // The traced run spends half the time in the shared phases; its
  // per-layer sections add about as much again.
  const double seconds = o.trace ? o.seconds / 2 : o.seconds;
  const double batch_s = seconds * kBatchShare;
  const double nominal_s = seconds * kNominalShare;
  const double ladder_s = seconds - batch_s - nominal_s;

  // Set-up, repeated; the last copy is kept.
  BatchInputs in;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const double s =
        timed("setup.batch", [&] { in = make_batch_inputs(wl, o.seed); });
    emit("{\"rec\": \"setup\", \"part\": \"batch\", \"s\": " + num(s) + "}");
  }
  std::unique_ptr<serve::ServePlane> plane;
  for (int i = 0; i < kSetupRepeats; ++i) {
    plane.reset();
    SpanScope span("setup.serve");
    double s = 0;
    plane = start_plane(&s);
    emit("{\"rec\": \"setup\", \"part\": \"serve\", \"s\": " + num(s) + "}");
  }
  ServePlan plan = plan_serve(o, *plane, nominal_s);

  if (o.describe) {
    std::uint64_t h = 14695981039346656037ull;
    for (const ServeRequest& r : plan.reqs) {
      h = fnv1a(r.body.data(), r.body.size(), h);
      h = fnv1a(&r.sched, sizeof r.sched, h);
    }
    emit("{\"rec\": \"inputs\", \"graph\": \"" + hex(graph_digest(in.graph)) +
         "\", \"weights\": \"" + hex(digest(in.weights.gnn[0])) +
         "\", \"requests\": \"" + hex(h) + "\", \"num_requests\": " +
         std::to_string(plan.reqs.size()) + "}");
    plane->stop();
    return 0;
  }

  const BatchRef ref = batch_reference(o, in);

  // Timed phase: tracked-memory high water is re-armed here, and the
  // metric is its rise above the bytes live at that point (the inputs),
  // so memory the engines and the server add is what it measures.
  auto& mem = obs::mem::MemRegistry::global();
  mem.reset_high_water();
  const std::uint64_t live_at_rearm = mem.snapshot().total_live_bytes();
  timed_phase(o, in, ref, batch_s, ladder_s, *plane, plan);
  emit_value("mem_high_water_mb",
             static_cast<double>(mem.snapshot().total_high_water_bytes() -
                                 live_at_rearm) /
                 1e6);

  if (o.trace) {
    serve_layers(o, in, ref, *plane, plan);
    csr_layer(plan.tenants[0]);
  }
  plane->stop();
  plane.reset();

  replay(plan.reqs, o.trace);
  std::size_t bad = 0;
  for (const ServeRequest& r : plan.reqs) {
    emit_request(r);
    bad += r.status != -1 && !r.ok;
    if (o.trace && r.apply_s >= 0) {
      emit_sample(std::string("serve.tenant_") + op_name(r.op) + "_ms",
                  r.apply_s * 1e3);
      if (r.submit_s >= 0) {
        emit_sample("serve.queue_ms", (r.submit_s - r.apply_s) * 1e3);
      }
    }
  }
  emit_check("serve_replies_match_replay", bad == 0,
             std::to_string(bad) + " of " + std::to_string(plan.reqs.size()) +
                 " requests not 200 or not byte-identical to the serial replay");

  if (o.trace) {
    batch_layers(o, in, ref, batch_s);
    g_tracer.set(false);
    if (!o.trace_out.empty() && !g_tracer.write(o.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", o.trace_out.c_str());
      return 1;
    }
  }
  return g_checks_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  o.threads = std::max(1u, std::thread::hardware_concurrency());
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
        return argv[++i];
      };
      if (a == "--workload") {
        o.wl = find_workload(value());
        if (o.wl == nullptr) return usage();
      } else if (a == "--seed") {
        o.seed = std::stoull(value());
      } else if (a == "--seconds") {
        o.seconds = std::stod(value());
      } else if (a == "--trace") {
        o.trace = value() == "1";
      } else if (a == "--p99-limit-ms") {
        o.limit_ms = std::stod(value());
      } else if (a == "--trace-out") {
        o.trace_out = value();
      } else if (a == "--expect-digest") {
        o.expect_digest = value();
      } else if (a == "--describe") {
        o.describe = true;
      } else {
        return usage();
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return usage();
  }
  if (o.wl == nullptr || o.seconds <= 0 || o.limit_ms <= 0) return usage();
  g_tracer.set(o.trace);
  try {
    const int rc = run(o);
    std::fflush(stdout);
    return rc;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}

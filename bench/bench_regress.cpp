// Machine-readable regression bench for the hot-path kernels and the
// end-to-end engines. Unlike the figure benches this one exists for the
// CI gate: it emits BENCH_<name>.json with median-of-N wall times, the
// naive-vs-optimised speedup per kernel, and deterministic work
// counters (MACs, bytes, simulated cycles). tools/bench_compare.py
// gates on the *speedups* and the deterministic counters — absolute
// wall times vary across runners and are recorded for humans only.
//
// Usage: bench_regress [--quick] [--out PATH] [--threads N] [--iters N]
//                      [--kernel-isa NAME]
// See docs/PERFORMANCE.md for the baseline-refresh procedure. The JSON
// reports which kernel-registry variant served each op ("kernels"), so
// the gate can key its speedup floors by ISA.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/thread_pool.hpp"
#include "tensor/kernel_registry.hpp"
#include "obs/analyze/ledger.hpp"
#include "obs/live/sampler.hpp"
#include "obs/mem/memtrack.hpp"
#include "obs/telemetry.hpp"
#include "nn/gcn.hpp"
#include "nn/rnn.hpp"
#include "tagnn/accelerator.hpp"
#include "tensor/ops.hpp"

namespace tagnn {
namespace {

struct Entry {
  std::string name;
  bench::TimingStats naive;
  bench::TimingStats opt;
  double macs = 0;    // deterministic work measure
  double bytes = 0;   // deterministic traffic measure
  double cycles = 0;  // simulated cycles (0 when not applicable)
  // Tracked-allocation high-water across the whole bench (naive + opt
  // sides), re-armed between benches. The memory-budget gate compares
  // this against the baseline's mem_ceiling_bytes.
  double mem_high_water = 0;

  double speedup() const {
    return opt.median_sec > 0 ? naive.median_sec / opt.median_sec : 0.0;
  }
};

struct Options {
  bool quick = false;
  std::string out = "BENCH_regress.json";
  std::string ledger;       // "" = no ledger append
  std::size_t threads = 0;  // 0 = leave the global pool alone
  int iters = 0;            // 0 = default per mode
  std::string kernel_isa;   // "" = auto (best supported)
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&](const char* flag) {
      TAGNN_CHECK_MSG(i + 1 < argc, flag << " needs a value");
      return std::string(argv[++i]);
    };
    if (a == "--quick") {
      o.quick = true;
    } else if (a == "--out") {
      o.out = value("--out");
    } else if (a == "--ledger") {
      o.ledger = value("--ledger");
    } else if (a == "--threads") {
      o.threads = static_cast<std::size_t>(std::stoul(value("--threads")));
    } else if (a == "--iters") {
      o.iters = std::stoi(value("--iters"));
    } else if (a == "--kernel-isa") {
      o.kernel_isa = value("--kernel-isa");
    } else {
      std::cerr << "unknown flag " << a << "\n"
                << "usage: bench_regress [--quick] [--out PATH]"
                << " [--ledger PATH] [--threads N] [--iters N]"
                << " [--kernel-isa NAME]\n";
      std::exit(2);
    }
  }
  return o;
}

void check_identical(const Matrix& a, const Matrix& b, const char* what) {
  TAGNN_CHECK_MSG(a == b, what << ": optimised kernel output diverged"
                               << " from the naive reference");
}

// Dense GEMM: the pre-PR i-k-j kernel vs the blocked/packed one.
Entry bench_gemm(const Options& o, int iters) {
  const std::size_t m = o.quick ? 192 : 384;
  const std::size_t k = o.quick ? 128 : 256;
  const std::size_t n = o.quick ? 128 : 256;
  Rng rng(bench::rng_seed());
  const Matrix a = Matrix::random(m, k, rng, 1.0f);
  const Matrix b = Matrix::random(k, n, rng, 1.0f);
  Matrix c_naive, c_opt;

  Entry e;
  e.name = "gemm_" + std::to_string(m) + "x" + std::to_string(k) + "x" +
           std::to_string(n);
  e.naive = bench::time_median([&] { gemm_naive(a, b, c_naive); }, iters);
  e.opt = bench::time_median([&] { ops::gemm(a, b, c_opt); }, iters);
  check_identical(c_naive, c_opt, e.name.c_str());
  e.macs = static_cast<double>(m) * static_cast<double>(k) *
           static_cast<double>(n);
  e.bytes = static_cast<double>((m * k + k * n + m * n) * sizeof(float));
  return e;
}

// GCN layer: the per-vertex path (aggregate_vertex + one gemv per
// vertex, re-streaming W each time) vs gcn_layer_forward, which runs
// aggregation, the register-tile GEMM and ReLU as one pass over 4-row
// tiles.
Entry bench_gcn_layer(const Options& o, int iters) {
  const DynamicGraph g =
      datasets::load("GT", o.quick ? 0.2 : 0.5, /*snapshots=*/2);
  const Snapshot& snap = g.snapshot(0);
  const VertexId nv = g.num_vertices();
  const std::size_t d_in = g.feature_dim();
  const std::size_t d_out = o.quick ? 64 : 128;
  Rng rng(bench::rng_seed());
  const Matrix w = Matrix::random(d_in, d_out, rng, 1.0f);
  const Matrix& h = snap.features;

  Matrix out_naive(nv, d_out), out_opt(nv, d_out);
  std::vector<float> agg(d_in);
  Entry e;
  e.name = "gcn_layer_n" + std::to_string(nv) + "_d" +
           std::to_string(d_in) + "x" + std::to_string(d_out);
  e.naive = bench::time_median(
      [&] {
        for (VertexId v = 0; v < nv; ++v) {
          aggregate_vertex(snap, h, v, agg);
          ops::gemv(agg, w, out_naive.row(v));
          relu(out_naive.row(v));
        }
      },
      iters);
  GcnScratch scratch;
  GcnForwardOptions fwd;
  fwd.scratch = &scratch;
  OpCounts counts;
  e.opt = bench::time_median(
      [&] { gcn_layer_forward(snap, h, w, fwd, out_opt, counts); }, iters);
  check_identical(out_naive, out_opt, e.name.c_str());

  std::size_t edges = 0;
  for (VertexId v = 0; v < nv; ++v) edges += snap.graph.degree(v);
  e.macs = static_cast<double>(nv) * static_cast<double>(d_in) *
           static_cast<double>(d_out);
  e.bytes = static_cast<double>(edges + nv) *
            static_cast<double>(d_in) * sizeof(float);
  return e;
}

// RNN step: one delta_update_rows and one full_update_rows of a T-GCN
// cell, with three of every four rows on the delta path (fk_tgcn sends
// ~73% there) and applied rows drifted so about two thirds of the delta
// lanes are kept. Both legs make the same calls from the same state,
// restored untimed; the naive leg is pinned to the scalar kernels as
// engine_tgcn_gt's is, the optimised leg runs the active ISA.
Entry bench_rnn_rows(const Options& o, int iters) {
  // A call is about a millisecond at the quick shape; sample as densely
  // as the engine benches do.
  iters = std::max(iters, 15);
  const DgnnWeights w = DgnnWeights::init(ModelConfig::preset("T-GCN"),
                                          /*feature_dim=*/16,
                                          bench::rng_seed());
  const RnnCell cell(w);
  const std::size_t n = o.quick ? 2048 : 16384;
  Rng rng(bench::rng_seed());
  const Matrix z = Matrix::random(n, cell.input_dim(), rng, 1.0f);
  const Matrix h0 = Matrix::random(n, cell.hidden(), rng, 1.0f);
  const Matrix c0(n, cell.cell_state_dim());
  const Matrix cache0 = Matrix::random(n, cell.cache_dim(), rng, 1.0f);
  Matrix za0 = z, ha0 = h0;
  for (Matrix* m : {&za0, &ha0}) {
    for (std::size_t i = 0; i < m->size(); ++i) {
      m->data()[i] += rng.uniform(-0.03f, 0.03f);
    }
  }
  std::vector<VertexId> delta_rows, full_rows;
  for (VertexId v = 0; v < n; ++v) {
    (v % 4 == 3 ? full_rows : delta_rows).push_back(v);
  }

  struct State {
    Matrix h, c, cache, za, ha;
    OpCounts counts;
  };
  const auto leg = [&](State& s) {
    const auto reset = [&] {
      s.h = h0;
      s.c = c0;
      s.cache = cache0;
      s.za = za0;
      s.ha = ha0;
      s.counts = OpCounts{};
    };
    RnnBatchScratch ws;
    return bench::time_median(
        [&] {
          cell.delta_update_rows(z, delta_rows, kDeltaEps, s.za, s.ha, s.h,
                                 s.c, s.cache, s.counts);
          cell.full_update_rows(z, full_rows, s.h, s.c, s.cache, ws,
                                s.counts);
        },
        iters, /*warmup=*/1, reset);
  };

  Entry e;
  e.name = "rnn_rows_tgcn";
  State naive, opt;
  const kernels::Isa prev_isa = kernels::registry().active_isa();
  std::string isa_err;
  TAGNN_CHECK_MSG(kernels::registry().force_isa("scalar", &isa_err),
                  "pinning naive RNN rows to scalar: " << isa_err);
  e.naive = leg(naive);
  TAGNN_CHECK_MSG(
      kernels::registry().force_isa(kernels::isa_name(prev_isa), &isa_err),
      "restoring kernel ISA after naive RNN rows: " << isa_err);
  e.opt = leg(opt);
  check_identical(naive.h, opt.h, "rnn_rows_tgcn h");
  check_identical(naive.cache, opt.cache, "rnn_rows_tgcn cache");
  check_identical(naive.za, opt.za, "rnn_rows_tgcn z_applied");
  check_identical(naive.ha, opt.ha, "rnn_rows_tgcn h_applied");
  e.macs = opt.counts.macs;
  e.bytes = opt.counts.feature_bytes + opt.counts.weight_bytes +
            opt.counts.structure_bytes + opt.counts.output_bytes;
  return e;
}

// End-to-end: the snapshot-by-snapshot reference engine vs the
// topology-aware concurrent engine (reuse + skip + window pipelining),
// plus the accelerator cycle model for a deterministic gate value.
Entry bench_engine(const Options& o, int iters) {
  // One engine run is a few milliseconds, so the median needs more
  // samples than the big kernels to sit still on a noisy machine.
  iters = std::max(iters, 15);
  const bench::Workload wl = [&] {
    bench::Workload w;
    w.model = "T-GCN";
    w.dataset = "GT";
    w.g = datasets::load("GT", o.quick ? 0.15 : 0.3, o.quick ? 6u : 8u);
    w.w = DgnnWeights::init(ModelConfig::preset("T-GCN"),
                            w.g.feature_dim(), bench::rng_seed());
    return w;
  }();

  EngineOptions ropts;
  ropts.store_outputs = false;
  ropts.count_redundancy = false;
  EngineOptions copts = ropts;

  Entry e;
  e.name = "engine_tgcn_gt";
  OpCounts counts;
  // The naive side is the scalar per-vertex reference engine — the same
  // frozen-baseline definition as gemm_naive: no registry SIMD, no
  // batching, no topology-aware reuse. The ISA cap is restored before
  // the optimised run so --kernel-isa governs only that side. Counts
  // are ISA-independent (kernels are bit-exact), so the fingerprint is
  // unaffected by the pin.
  const kernels::Isa prev_isa = kernels::registry().active_isa();
  std::string isa_err;
  TAGNN_CHECK_MSG(kernels::registry().force_isa("scalar", &isa_err),
                  "pinning naive engine to scalar: " << isa_err);
  e.naive = bench::time_median(
      [&] {
        const EngineResult r = ReferenceEngine(ropts).run(wl.g, wl.w);
        counts = r.total_counts();
      },
      iters);
  TAGNN_CHECK_MSG(
      kernels::registry().force_isa(kernels::isa_name(prev_isa), &isa_err),
      "restoring kernel ISA after naive engine run: " << isa_err);
  e.macs = counts.macs;
  e.bytes = counts.feature_bytes + counts.weight_bytes +
            counts.structure_bytes + counts.output_bytes;
  e.opt = bench::time_median(
      [&] { ConcurrentEngine(copts).run(wl.g, wl.w); }, iters);

  TagnnConfig cfg;
  const AccelResult ar = TagnnAccelerator(cfg).run(wl.g, wl.w,
                                                   /*store_outputs=*/false);
  e.cycles = static_cast<double>(ar.cycles.total);
  return e;
}

// Live-plane overhead: the same concurrent engine with and without the
// background sampler ticking at 50 ms — ten times the default rate, so
// the gate leaves headroom. "naive" is the sampler-free run, "opt" runs
// under the sampler, so the speedup sits at ~1.0 and the in-binary
// check below enforces the documented promise directly: <= 1% median
// overhead, plus a noise allowance derived from the measured MAD so a
// loaded CI runner doesn't flake the gate.
Entry bench_engine_live_sampler(const Options& o, int iters) {
  iters = std::max(iters, 15);
  const bench::Workload wl = [&] {
    bench::Workload w;
    w.model = "T-GCN";
    w.dataset = "GT";
    w.g = datasets::load("GT", o.quick ? 0.15 : 0.3, o.quick ? 6u : 8u);
    w.w = DgnnWeights::init(ModelConfig::preset("T-GCN"),
                            w.g.feature_dim(), bench::rng_seed());
    return w;
  }();
  EngineOptions opts;
  opts.store_outputs = false;
  opts.count_redundancy = false;

  Entry e;
  e.name = "engine_live_sampler";
  OpCounts counts;
  e.naive = bench::time_median(
      [&] {
        const EngineResult r = ConcurrentEngine(opts).run(wl.g, wl.w);
        counts = r.total_counts();
      },
      iters);
  {
    obs::live::LiveSampler sampler(/*interval_ms=*/50);
    sampler.start();
    e.opt = bench::time_median(
        [&] { ConcurrentEngine(opts).run(wl.g, wl.w); }, iters);
    sampler.stop();
  }
  e.macs = counts.macs;
  e.bytes = counts.feature_bytes + counts.weight_bytes +
            counts.structure_bytes + counts.output_bytes;

  if (obs::telemetry_enabled()) {  // compiled-out telemetry: nothing to gate
    const double overhead =
        e.naive.median_sec > 0
            ? e.opt.median_sec / e.naive.median_sec - 1.0
            : 0.0;
    const double slack =
        3.0 * std::max(e.naive.mad_frac, e.opt.mad_frac);
    TAGNN_CHECK_MSG(
        overhead <= 0.01 + slack,
        "live sampler overhead " << 100.0 * overhead
            << "% exceeds the 1% budget (noise allowance "
            << 100.0 * slack << "%)");
  }
  return e;
}

void write_json(const Options& o, const std::vector<Entry>& entries) {
  std::ostringstream os;
  os << "{\n  \"schema\": \"tagnn.bench_regress.v1\",\n"
     << "  \"quick\": " << (o.quick ? "true" : "false") << ",\n"
     << "  \"threads\": " << o.threads << ",\n  \"kernels\": {";
  const auto variants = kernels::registry().active_variants();
  for (std::size_t i = 0; i < variants.size(); ++i) {
    os << (i == 0 ? "" : ", ") << '"' << json_escape(variants[i].first)
       << "\": \"" << json_escape(variants[i].second) << '"';
  }
  os << "},\n  \"entries\": [";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    os << (i == 0 ? "" : ",") << "\n    {\n"
       << "      \"name\": \"" << json_escape(e.name) << "\",\n"
       << "      \"naive_sec\": " << e.naive.median_sec << ",\n"
       << "      \"opt_sec\": " << e.opt.median_sec << ",\n"
       << "      \"speedup\": " << e.speedup() << ",\n"
       << "      \"mad_frac\": "
       << std::max(e.naive.mad_frac, e.opt.mad_frac) << ",\n"
       << "      \"iters\": " << e.naive.iters << ",\n"
       << "      \"macs\": " << e.macs << ",\n"
       << "      \"bytes\": " << e.bytes << ",\n"
       << "      \"cycles\": " << e.cycles << ",\n"
       << "      \"mem_high_water_bytes\": " << e.mem_high_water
       << "\n    }";
  }
  os << "\n  ]\n}\n";
  std::ofstream f(o.out);
  TAGNN_CHECK_MSG(static_cast<bool>(f), "cannot open --out " << o.out);
  f << os.str();
}

int run(int argc, char** argv) {
  const Options o = parse(argc, argv);
  const int iters = o.iters > 0 ? o.iters : (o.quick ? 5 : 9);
  if (!o.kernel_isa.empty()) {
    std::string error;
    TAGNN_CHECK_MSG(kernels::registry().force_isa(o.kernel_isa, &error),
                    "--kernel-isa: " << error);
  }
  std::optional<ScopedGlobalThreadPool> pool;
  if (o.threads > 0) pool.emplace(o.threads);

  std::cout << "==== bench_regress ====\n"
            << (o.quick ? "quick" : "full") << " mode, " << iters
            << " iters/kernel, threads="
            << (o.threads > 0 ? std::to_string(o.threads) : "default")
            << ", kernels: gemm=" << kernels::registry().active("gemm")
            << " spmm=" << kernels::registry().active("spmm")
            << " vec=" << kernels::registry().active("vec") << "\n\n";

  // CI negative self-test: TAGNN_MEM_BALLAST_MB charges that many MB of
  // kBallast bytes for the life of the run. reserve() keeps the pages
  // untouched (no RSS cost), but the tracked accounting sees them — so
  // the memory gate must flag the run, proving the ceiling is live.
  obs::mem::vec<char> ballast =
      obs::mem::tagged<char>(obs::mem::Subsystem::kBallast);
  if (const char* env = std::getenv("TAGNN_MEM_BALLAST_MB")) {
    const unsigned long mb = std::strtoul(env, nullptr, 10);
    if (mb > 0) {
      ballast.reserve(mb * 1024ull * 1024ull);
      std::cout << "ballast: charged " << mb
                << " MB to the ballast subsystem (negative self-test)\n\n";
    }
  }

  // Each bench reads the tracked high-water over exactly its own run:
  // re-arm, run, snapshot. The ballast stays live across all of them.
  const auto with_mem = [](Entry e) {
    e.mem_high_water = static_cast<double>(
        obs::mem::MemRegistry::global().snapshot().total_high_water_bytes());
    return e;
  };
  std::vector<Entry> entries;
  obs::mem::MemRegistry::global().reset_high_water();
  entries.push_back(with_mem(bench_gemm(o, iters)));
  obs::mem::MemRegistry::global().reset_high_water();
  entries.push_back(with_mem(bench_gcn_layer(o, iters)));
  obs::mem::MemRegistry::global().reset_high_water();
  entries.push_back(with_mem(bench_rnn_rows(o, iters)));
  obs::mem::MemRegistry::global().reset_high_water();
  entries.push_back(with_mem(bench_engine(o, std::max(1, iters / 2))));
  obs::mem::MemRegistry::global().reset_high_water();
  entries.push_back(
      with_mem(bench_engine_live_sampler(o, std::max(1, iters / 2))));

  Table tab({"kernel", "naive ms", "opt ms", "speedup", "mad %"});
  for (const Entry& e : entries) {
    tab.add_row({e.name, Table::num(1e3 * e.naive.median_sec, 3),
                 Table::num(1e3 * e.opt.median_sec, 3),
                 Table::num(e.speedup(), 2) + "x",
                 Table::num(100.0 * std::max(e.naive.mad_frac,
                                             e.opt.mad_frac), 1)});
  }
  tab.print(std::cout);

  write_json(o, entries);
  std::cout << "\nwrote " << o.out << "\n";

  if (!o.ledger.empty()) {
    obs::analyze::RunRecord rec;
    rec.workload =
        o.quick ? "bench_regress.quick" : "bench_regress.full";
    const char* sha = std::getenv("TAGNN_GIT_SHA");
    rec.git_sha = sha != nullptr ? sha : "";
    rec.env = "bench";
    std::ostringstream canonical;
    canonical << "bench_regress;quick=" << o.quick
              << ";threads=" << o.threads
              << ";isa=" << kernels::registry().active("gemm");
    for (const Entry& e : entries) {
      canonical << ";" << e.name;
      rec.set(e.name + ".naive_sec", e.naive.median_sec);
      rec.set(e.name + ".opt_sec", e.opt.median_sec);
      rec.set(e.name + ".speedup", e.speedup());
      rec.set(e.name + ".macs", e.macs);
      rec.set(e.name + ".bytes", e.bytes);
      rec.set(e.name + ".cycles", e.cycles);
      rec.set(e.name + ".mem_high_water_bytes", e.mem_high_water);
    }
    rec.config_fingerprint = obs::analyze::fingerprint(canonical.str());
    obs::analyze::append_run_record(o.ledger, rec);
    std::cout << "appended " << rec.workload << " to " << o.ledger << "\n";
  }
  return 0;
}

}  // namespace
}  // namespace tagnn

int main(int argc, char** argv) { return tagnn::run(argc, argv); }

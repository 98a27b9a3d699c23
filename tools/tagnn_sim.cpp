// tagnn_sim — command-line driver for the TaGNN accelerator simulator.
//
// Runs DGNN inference on a synthetic dataset or a .tgt trace file and
// reports simulated time, energy, traffic, and skip statistics; can
// emit a single CSV row for scripting sweeps.
//
// Usage:
//   tagnn_sim [--dataset HP|GT|ML|EP|FK] [--trace file.tgt]
//             [--model CD-GCN|GC-LSTM|T-GCN] [--scale S]
//             [--snapshots N] [--window K] [--dcus N] [--macs-per-dcu N]
//             [--format ocsr|csr|pma] [--no-oadl] [--no-adsc]
//             [--theta-s X] [--theta-e X] [--engine accel|reference|
//             concurrent] [--csv] [--seed N] [--self-check]
//
// --self-check raises the invariant-audit level to its maximum: every
// loaded snapshot is validated up front and all dynamic structures
// (PMA, O-CSR, deltas) audit themselves after every mutation for the
// whole run.
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/json_escape.hpp"
#include "graph/datasets.hpp"
#include "graph/trace_io.hpp"
#include "nn/engine.hpp"
#include "obs/analyze/ledger.hpp"
#include "obs/cli.hpp"
#include "obs/live/live.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tagnn/accelerator.hpp"
#include "tagnn/report.hpp"
#include "tensor/kernel_registry.hpp"

namespace {

using namespace tagnn;

struct Options {
  std::string dataset = "GT";
  std::string trace;
  std::string model = "T-GCN";
  std::string engine = "accel";
  double scale = 0.3;
  std::size_t snapshots = 8;
  TagnnConfig cfg;
  std::uint64_t seed = 42;
  std::string kernel_isa;  // "" = auto (best supported)
  bool csv = false;
  bool json = false;
  bool self_check = false;
  obs::TelemetryCliOptions tel;
};

[[noreturn]] void usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0
      << " [--dataset HP|GT|ML|EP|FK] [--trace file.tgt]\n"
         "       [--model CD-GCN|GC-LSTM|T-GCN] [--scale S] [--snapshots N]\n"
         "       [--window K] [--dcus N] [--macs-per-dcu N]\n"
         "       [--format ocsr|csr|pma] [--no-oadl] [--no-adsc]\n"
         "       [--theta-s X] [--theta-e X]\n"
         "       [--engine accel|reference|concurrent] [--csv] [--seed N]\n"
         "       [--kernel-isa scalar|avx2|auto]\n"
         "       [--self-check] [--json] [--report]\n"
      << obs::telemetry_usage();
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  const std::vector<std::string> args = obs::split_eq_flags(argc, argv);
  auto need = [&](std::size_t& i) -> const std::string& {
    if (i + 1 >= args.size()) usage(argv[0]);
    return args[++i];
  };
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (obs::consume_telemetry_flag(args, i, o.tel)) {
      // handled (value, if any, already consumed)
    } else if (a == "--dataset") {
      o.dataset = need(i);
    } else if (a == "--trace") {
      o.trace = need(i);
    } else if (a == "--model") {
      o.model = need(i);
    } else if (a == "--engine") {
      o.engine = need(i);
    } else if (a == "--scale") {
      o.scale = std::atof(need(i).c_str());
    } else if (a == "--snapshots") {
      o.snapshots = static_cast<std::size_t>(std::atoi(need(i).c_str()));
    } else if (a == "--window") {
      o.cfg.window = static_cast<SnapshotId>(std::atoi(need(i).c_str()));
    } else if (a == "--dcus") {
      o.cfg.num_dcus = static_cast<std::size_t>(std::atoi(need(i).c_str()));
    } else if (a == "--macs-per-dcu") {
      o.cfg.cpes_per_dcu = static_cast<std::size_t>(std::atoi(need(i).c_str()));
      o.cfg.apes_per_dcu = o.cfg.cpes_per_dcu / 2;
    } else if (a == "--format") {
      const std::string f = need(i);
      o.cfg.format = f == "csr"   ? StorageFormat::kCsr
                     : f == "pma" ? StorageFormat::kPma
                                  : StorageFormat::kOcsr;
    } else if (a == "--no-oadl") {
      o.cfg.enable_oadl = false;
    } else if (a == "--no-adsc") {
      o.cfg.enable_adsc = false;
    } else if (a == "--theta-s") {
      o.cfg.thresholds.theta_s = static_cast<float>(std::atof(need(i).c_str()));
    } else if (a == "--theta-e") {
      o.cfg.thresholds.theta_e = static_cast<float>(std::atof(need(i).c_str()));
    } else if (a == "--seed") {
      o.seed = static_cast<std::uint64_t>(std::atoll(need(i).c_str()));
    } else if (a == "--kernel-isa") {
      o.kernel_isa = need(i);
    } else if (a == "--self-check") {
      o.self_check = true;
    } else if (a == "--csv") {
      o.csv = true;
    } else if (a == "--json" || a == "--report") {
      // --report is the diagnosis-oriented alias: the JSON report
      // includes the "diagnosis" object either way.
      o.json = true;
    } else if (a == "--help" || a == "-h") {
      usage(argv[0]);
    } else {
      std::cerr << "unknown flag: " << a << "\n";
      usage(argv[0]);
    }
  }
  return o;
}

// Canonical knob string hashed into the run-ledger config fingerprint:
// two runs share a fingerprint iff these knobs match.
std::string config_canonical(const Options& o) {
  std::ostringstream s;
  s << "engine=" << o.engine << ";model=" << o.model
    << ";dcus=" << o.cfg.num_dcus << ";cpes=" << o.cfg.cpes_per_dcu
    << ";window=" << o.cfg.window << ";format=" << to_string(o.cfg.format)
    << ";oadl=" << o.cfg.enable_oadl << ";adsc=" << o.cfg.enable_adsc
    << ";theta_s=" << o.cfg.thresholds.theta_s
    << ";theta_e=" << o.cfg.thresholds.theta_e
    << ";clock_mhz=" << o.cfg.clock_mhz
    << ";hbm_gbps=" << o.cfg.hbm.bandwidth_gbps
    << ";isa=" << kernels::registry().active("gemm");
  return s.str();
}

obs::analyze::RunRecord make_run_record(const Options& o,
                                        const std::string& workload) {
  obs::analyze::RunRecord rec;
  rec.workload = workload;
  const char* sha = std::getenv("TAGNN_GIT_SHA");
  rec.git_sha = sha != nullptr ? sha : "";
  rec.config_fingerprint = obs::analyze::fingerprint(config_canonical(o));
  rec.env = "tagnn_sim";
  return rec;
}

int run_impl(const Options& o) {
  if (!o.kernel_isa.empty()) {
    std::string error;
    TAGNN_CHECK_MSG(kernels::registry().force_isa(o.kernel_isa, &error),
                    "--kernel-isa: " << error);
  }
  if (o.self_check) set_invariant_check_level(2);
  const DynamicGraph g = [&] {
    obs::ScopedTrace span("load_dataset", "host");
    return o.trace.empty() ? datasets::load(o.dataset, o.scale, o.snapshots)
                           : read_trace_file(o.trace);
  }();
  if (o.self_check) {
    for (SnapshotId t = 0; t < g.num_snapshots(); ++t) {
      g.snapshot(t).validate();
    }
    std::cerr << "self-check: input snapshots valid; structural audits "
                 "enabled at level 2\n";
  }
  const DgnnWeights w = [&] {
    obs::ScopedTrace span("init_weights", "host");
    return DgnnWeights::init(ModelConfig::preset(o.model), g.feature_dim(),
                             o.seed);
  }();

  if (o.engine == "reference" || o.engine == "concurrent") {
    EngineOptions eo;
    eo.window_size = o.cfg.window;
    eo.gnn_reuse = o.cfg.enable_oadl;
    eo.cell_skip = o.cfg.enable_adsc;
    eo.thresholds = o.cfg.thresholds;
    eo.store_outputs = false;
    const EngineResult r = [&] {
      obs::ScopedTrace span("simulate", "host");
      return o.engine == "reference" ? ReferenceEngine(eo).run(g, w)
                                     : ConcurrentEngine(eo).run(g, w);
    }();
    const OpCounts c = r.total_counts();
    if (o.csv) {
      std::cout << o.engine << ',' << g.name() << ',' << o.model << ','
                << c.macs << ',' << c.total_bytes() << ','
                << c.redundant_bytes << ',' << r.seconds.total() << '\n';
    } else {
      std::cout << o.engine << " engine on " << g.name() << " / " << o.model
                << ": " << c.macs / 1e6 << " MMACs, "
                << c.total_bytes() / 1e6 << " MB traffic, wall "
                << r.seconds.total() << " s\n";
    }
    if (o.tel.wants_report()) {
      std::ofstream f(o.tel.report_out);
      if (!f) {
        throw std::runtime_error("cannot open report output file: " +
                                 o.tel.report_out);
      }
      f << "{\n  \"schema\": \"tagnn.engine_report.v1\",\n"
        << "  \"workload\": \"" << json_escape(g.name() + "/" + o.model)
        << "\",\n  \"engine\": \"" << json_escape(o.engine)
        << "\",\n  \"kernels\": {";
      const auto variants = kernels::registry().active_variants();
      for (std::size_t vi = 0; vi < variants.size(); ++vi) {
        f << (vi == 0 ? "" : ", ") << '"' << json_escape(variants[vi].first)
          << "\": \"" << json_escape(variants[vi].second) << '"';
      }
      f << "},\n  \"macs\": " << c.macs
        << ",\n  \"bytes\": " << c.total_bytes()
        << ",\n  \"redundant_bytes\": " << c.redundant_bytes
        << ",\n  \"seconds\": " << r.seconds.total() << "\n}\n";
    }
    if (o.tel.wants_ledger()) {
      obs::analyze::RunRecord rec =
          make_run_record(o, o.engine + "." + g.name() + "/" + o.model);
      rec.set("seconds", r.seconds.total());
      rec.set("macs", c.macs);
      rec.set("bytes", c.total_bytes());
      rec.set("redundant_bytes", c.redundant_bytes);
      obs::analyze::append_run_record(o.tel.ledger, rec);
    }
    return 0;
  }

  o.cfg.validate();
  const AccelResult r = [&] {
    obs::ScopedTrace span("simulate", "host");
    return TagnnAccelerator(o.cfg).run(g, w);
  }();
  // Shape for diagnosis.memory: the edge basis is edges summed across
  // snapshots (the amount of topology the run actually churned).
  MemReportContext mem_ctx;
  mem_ctx.vertices = g.num_vertices();
  for (SnapshotId t = 0; t < g.num_snapshots(); ++t) {
    mem_ctx.edges += g.snapshot(t).graph.num_edges();
  }
  mem_ctx.snapshots = g.num_snapshots();
  mem_ctx.scale = o.scale;
  mem_ctx.target_scale = 1.0;
  const OpCounts c = r.functional.total_counts();
  if (o.json) {
    write_json_report(std::cout, g.name() + "/" + o.model, o.cfg, r, mem_ctx);
  } else if (o.csv) {
    std::cout << "tagnn," << g.name() << ',' << o.model << ','
              << to_string(o.cfg.format) << ',' << o.cfg.num_dcus << ','
              << o.cfg.window << ',' << r.cycles.total << ',' << r.seconds
              << ',' << r.dram_bytes << ',' << r.energy.total() << ','
              << c.rnn_skip << ',' << c.rnn_delta << ',' << c.rnn_full
              << '\n';
  } else {
    std::cout << "TaGNN accelerator on " << g.name() << " / " << o.model
              << " (window " << o.cfg.window << ", " << o.cfg.num_dcus
              << " DCUs, " << to_string(o.cfg.format) << ")\n"
              << "  cycles:  " << r.cycles.total << " ("
              << r.seconds * 1e3 << " ms @" << o.cfg.clock_mhz << " MHz)\n"
              << "    msdl " << r.cycles.msdl << " | gnn " << r.cycles.gnn
              << " | rnn " << r.cycles.rnn << " | mem " << r.cycles.memory
              << "\n"
              << "  HBM:     " << r.dram_bytes / 1e6 << " MB\n"
              << "  energy:  " << r.energy.total() * 1e3 << " mJ (compute "
              << r.energy.compute_j * 1e3 << ", sram "
              << r.energy.sram_j * 1e3 << ", dram "
              << r.energy.dram_j * 1e3 << ", static "
              << r.energy.static_j * 1e3 << ")\n"
              << "  DCU util " << 100 * r.dcu_utilization << "% | RNN "
              << c.rnn_skip << " skip / " << c.rnn_delta << " delta / "
              << c.rnn_full << " full\n";
  }
  if (o.tel.wants_report()) {
    std::ofstream f(o.tel.report_out);
    if (!f) {
      throw std::runtime_error("cannot open report output file: " +
                               o.tel.report_out);
    }
    write_json_report(f, g.name() + "/" + o.model, o.cfg, r, mem_ctx);
  }
  if (o.tel.wants_ledger()) {
    obs::analyze::RunRecord rec =
        make_run_record(o, "tagnn_sim." + g.name() + "/" + o.model);
    rec.set("cycles.total", static_cast<double>(r.cycles.total));
    rec.set("cycles.msdl", static_cast<double>(r.cycles.msdl));
    rec.set("cycles.gnn", static_cast<double>(r.cycles.gnn));
    rec.set("cycles.rnn", static_cast<double>(r.cycles.rnn));
    rec.set("cycles.memory", static_cast<double>(r.cycles.memory));
    rec.set("seconds", r.seconds);
    rec.set("dram_bytes", r.dram_bytes);
    rec.set("energy_j", r.energy.total());
    rec.set("macs", c.macs);
    rec.set("dcu_utilization", r.dcu_utilization);
    obs::analyze::append_run_record(o.tel.ledger, rec);
  }
  return 0;
}

int run(const Options& o) {
  if (o.tel.disable_telemetry) obs::set_telemetry_enabled(false);
  // Start each invocation from a clean slate so --metrics-out reflects
  // exactly this run.
  obs::MetricsRegistry::global().reset();
  std::unique_ptr<obs::TraceCollector> tc;
  if (o.tel.wants_trace()) {
    tc = std::make_unique<obs::TraceCollector>(o.cfg.clock_mhz);
    obs::TraceCollector::set_active(tc.get());
  }
  // The live plane comes up before the workload so scrapes see the run
  // in flight, and lingers after it (released early by GET /quit).
  std::unique_ptr<obs::live::LivePlane> live;
  if (o.tel.wants_live()) {
    obs::live::LiveOptions lo;
    lo.port = o.tel.live_port;
    lo.interval_ms = o.tel.live_interval_ms;
    lo.flight_recorder_path = o.tel.flight_recorder;
    live = std::make_unique<obs::live::LivePlane>(lo);
    std::string error;
    if (!live->start(&error)) {
      throw std::runtime_error("live plane: " + error);
    }
  }
  const int rc = run_impl(o);
  if (live != nullptr) live->wait_linger(o.tel.live_linger_ms);
  obs::TraceCollector::set_active(nullptr);
  if (o.tel.wants_metrics()) {
    obs::write_metrics_file(o.tel,
                            obs::MetricsRegistry::global().snapshot());
  }
  if (tc != nullptr) obs::write_trace_file(o.tel, *tc);
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

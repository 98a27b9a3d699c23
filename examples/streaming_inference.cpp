// Streaming inference: snapshots arrive one at a time (as they would
// from a live graph feed); windows are processed as they fill, with
// bounded memory. Since the serving layer landed, this example is a
// thin in-process client of serve::Tenant — the same code path
// tagnn_serve runs per tenant. The windowing/carry mechanics live in
// serve::Tenant + nn/streaming.hpp; nothing is duplicated here.
//
// Takes the shared telemetry flags (obs/cli.hpp), so it doubles as the
// smallest host of the live telemetry plane:
//   streaming_inference --live-port 0 --live-linger-ms 30000
// serves /metrics and /snapshot.json while the stream runs.
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "nn/engine.hpp"
#include "obs/cli.hpp"
#include "obs/live/live.hpp"
#include "obs/telemetry.hpp"
#include "serve/tenant.hpp"
#include "tensor/ops.hpp"

int main(int argc, char** argv) {
  using namespace tagnn;
  obs::TelemetryCliOptions tel;
  try {
    const std::vector<std::string> args = obs::split_eq_flags(argc, argv);
    for (std::size_t i = 1; i < args.size(); ++i) {
      if (!obs::consume_telemetry_flag(args, i, tel)) {
        std::cerr << "usage: " << argv[0] << "\n" << obs::telemetry_usage();
        return 2;
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  if (tel.disable_telemetry) obs::set_telemetry_enabled(false);
  std::unique_ptr<obs::live::LivePlane> live;
  if (tel.wants_live()) {
    obs::live::LiveOptions lo;
    lo.port = tel.live_port;
    lo.interval_ms = tel.live_interval_ms;
    lo.flight_recorder_path = tel.flight_recorder;
    live = std::make_unique<obs::live::LivePlane>(lo);
    std::string error;
    if (!live->start(&error)) {
      std::cerr << "live plane: " << error << "\n";
      return 1;
    }
  }

  serve::TenantConfig cfg;
  cfg.name = "demo";
  cfg.dataset = "HP";
  cfg.scale = 0.25;
  cfg.stream_snapshots = 12;
  cfg.model = "T-GCN";
  cfg.weight_seed = 3;
  serve::Tenant tenant(cfg);
  const DynamicGraph& g = tenant.stream();
  std::cout << "Streaming " << g.num_snapshots() << " snapshots of "
            << g.num_vertices() << " vertices (window "
            << cfg.engine.window_size << ")...\n";

  for (SnapshotId t = 0; t < g.num_snapshots(); ++t) {
    serve::IngestCommand step;
    step.advance = 1;
    const serve::Reply r = tenant.ingest(step);
    std::cout << "t=" << t << ": " << serve::to_string(r.status)
              << ", buffered " << (r.snapshots - r.processed)
              << " of a window\n";
  }
  // Inference flushes the trailing partial window and digests the
  // final features — exactly what POST /v1/infer does on the server.
  const serve::Reply final = tenant.infer({});
  std::cout << "infer: processed " << final.processed
            << " snapshots, state digest " << final.digest << "\n";

  // Verify the served stream matches a batch run over the same trace.
  const DgnnWeights w = DgnnWeights::init(ModelConfig::preset(cfg.model),
                                          g.feature_dim(), cfg.weight_seed);
  const EngineResult batch = ConcurrentEngine().run(g, w);
  std::cout << "stream vs batch final-feature max diff: "
            << max_abs_diff(tenant.state(), batch.final_hidden)
            << " (must be 0)\n";
  std::cout << "total work: " << tenant.total_counts().macs / 1e6
            << " MMACs across " << tenant.snapshots_processed()
            << " snapshots\n";
  if (live != nullptr) live->wait_linger(tel.live_linger_ms);
  return 0;
}

// LivePlane: the one-call facade wiring the live telemetry plane —
// background sampler, embedded HTTP endpoints, and (optionally) the
// crash-time flight recorder — into a host process (tagnn_sim, the
// streaming example, or any tool that links tagnn_obs).
//
// Endpoints (loopback only):
//   /metrics        OpenMetrics text exposition of the latest sample
//   /snapshot.json  the latest tagnn.live.v1 document
//   /memory.json    tagnn.mem.v1: per-subsystem/domain byte accounting
//                   plus process RSS (fresh read, works when telemetry
//                   is gated off)
//   /healthz        "ok\n" liveness probe
//   /quit           releases wait_linger() so CI can shut a host down
//                   deterministically ("ok, quitting\n")
//
// On start the plane prints "live: listening on 127.0.0.1:<port>" to
// stderr so scripts can discover an ephemeral (--live-port 0) port.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>

#include "obs/live/http.hpp"
#include "obs/live/sampler.hpp"

namespace tagnn::obs::live {

struct LiveOptions {
  /// Port for the HTTP server; 0 = kernel-assigned ephemeral port,
  /// negative = no server (sampler/recorder only).
  int port = -1;
  int interval_ms = 500;
  /// Non-empty: install the flight recorder onto this path.
  std::string flight_recorder_path;
  /// Announce the bound port on stderr (off in unit tests).
  bool announce = true;
  /// HTTP connection-handling threads. 1 = the classic serial scrape
  /// loop; the serving layer raises this so requests can block inside
  /// handlers concurrently (see HttpServer::set_concurrency).
  int http_concurrency = 1;
};

class LivePlane {
 public:
  explicit LivePlane(LiveOptions opts);
  ~LivePlane();

  LivePlane(const LivePlane&) = delete;
  LivePlane& operator=(const LivePlane&) = delete;

  /// Installs the recorder (when configured), starts the sampler, and
  /// brings up the HTTP server (when port >= 0). False + *error if the
  /// recorder or server cannot start; the sampler alone cannot fail.
  bool start(std::string* error = nullptr);

  /// Stops the server and sampler; idempotent, called by the dtor.
  void stop();

  /// Registers an extra endpoint on the embedded server (before
  /// start()). Hosts like tagnn_serve mount their request plane
  /// (/v1/*, /slo.json) next to the built-in telemetry endpoints.
  void handle(std::string path, HttpHandler handler);
  void handle_request(std::string path, HttpRequestHandler handler);

  /// The bound HTTP port (0 when no server is running).
  std::uint16_t port() const { return server_.port(); }

  LiveSampler& sampler() { return sampler_; }
  const LiveSampler& sampler() const { return sampler_; }

  bool quit_requested() const {
    return quit_.load(std::memory_order_acquire);
  }

  /// Blocks up to linger_ms (after the host's main work) so scrapers
  /// can take a final look; returns early when /quit is hit. No-op for
  /// linger_ms <= 0.
  void wait_linger(int linger_ms);

 private:
  HttpResponse on_metrics();
  HttpResponse on_snapshot();
  HttpResponse on_quit();

  const LiveOptions opts_;
  LiveSampler sampler_;
  HttpServer server_;
  bool started_ = false;

  std::atomic<bool> quit_{false};
  std::mutex quit_mu_;
  std::condition_variable quit_cv_;
};

}  // namespace tagnn::obs::live

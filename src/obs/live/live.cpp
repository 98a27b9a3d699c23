#include "obs/live/live.hpp"

#include <chrono>
#include <cstdio>
#include <sstream>
#include <utility>

#include "obs/jsonv.hpp"
#include "obs/live/flight_recorder.hpp"
#include "obs/live/openmetrics.hpp"
#include "obs/mem/memtrack.hpp"
#include "obs/metrics.hpp"

namespace tagnn::obs::live {

LivePlane::LivePlane(LiveOptions opts)
    : opts_(std::move(opts)),
      sampler_(opts_.interval_ms) {}

LivePlane::~LivePlane() { stop(); }

void LivePlane::handle(std::string path, HttpHandler handler) {
  server_.handle(std::move(path), std::move(handler));
}

void LivePlane::handle_request(std::string path, HttpRequestHandler handler) {
  server_.handle_request(std::move(path), std::move(handler));
}

bool LivePlane::start(std::string* error) {
  if (started_) return true;
  if (!opts_.flight_recorder_path.empty()) {
    if (!FlightRecorder::global().install(opts_.flight_recorder_path, error)) {
      return false;
    }
  }
  sampler_.start();
  if (opts_.port >= 0) {
    if (opts_.http_concurrency > 1) {
      server_.set_concurrency(opts_.http_concurrency);
    }
    server_.handle("/metrics", [this](const std::string&) {
      return on_metrics();
    });
    server_.handle("/snapshot.json", [this](const std::string&) {
      return on_snapshot();
    });
    server_.handle("/memory.json", [](const std::string&) {
      // Fresh registry read (not the sampler's tick): byte accounting is
      // always on, so /memory.json works even with telemetry gated off.
      std::ostringstream os;
      mem::write_memory_json(os, mem::MemRegistry::global().snapshot(),
                             mem::read_process_mem());
      os << "\n";
      return HttpResponse{200, "application/json; charset=utf-8", os.str()};
    });
    server_.handle("/healthz", [](const std::string&) {
      return HttpResponse{200, "text/plain; charset=utf-8", "ok\n"};
    });
    server_.handle("/quit", [this](const std::string&) { return on_quit(); });
    if (!server_.start(static_cast<std::uint16_t>(opts_.port), error)) {
      sampler_.stop();
      return false;
    }
    if (opts_.announce) {
      std::fprintf(stderr, "live: listening on 127.0.0.1:%u\n",
                   static_cast<unsigned>(server_.port()));
    }
  }
  started_ = true;
  return true;
}

void LivePlane::stop() {
  if (!started_) return;
  server_.stop();
  sampler_.stop();
  started_ = false;
}

HttpResponse LivePlane::on_metrics() {
  // Serve the sampler's latest tick so /metrics and /snapshot.json stay
  // consistent with each other; fall back to a direct scrape when the
  // sampler is gated off (--no-telemetry) and has no tick.
  LiveSample s;
  if (!sampler_.latest(&s)) {
    s.snapshot = MetricsRegistry::global().snapshot();
  }
  return {200, kOpenMetricsContentType, to_openmetrics(s.snapshot, s.rates)};
}

HttpResponse LivePlane::on_snapshot() {
  std::ostringstream os;
  LiveSample s;
  if (sampler_.latest(&s)) {
    os << s.json;
  } else {
    os << "{\"schema\": \"tagnn.live.v1\", \"seq\": 0, \"wall_unix_ms\": 0, "
          "\"uptime_s\": 0, \"interval_s\": 0, \"rates\": {}, \"metrics\": ";
    MetricsRegistry::global().snapshot().write_metrics_object_compact(os);
    os << "}";
  }
  os << "\n";
  return {200, "application/json; charset=utf-8", os.str()};
}

HttpResponse LivePlane::on_quit() {
  {
    std::lock_guard<std::mutex> lock(quit_mu_);
    quit_.store(true, std::memory_order_release);
  }
  quit_cv_.notify_all();
  return {200, "text/plain; charset=utf-8", "ok, quitting\n"};
}

void LivePlane::wait_linger(int linger_ms) {
  if (linger_ms <= 0) return;
  std::unique_lock<std::mutex> lock(quit_mu_);
  quit_cv_.wait_for(lock, std::chrono::milliseconds(linger_ms),
                    [this] { return quit_.load(std::memory_order_acquire); });
}

}  // namespace tagnn::obs::live

#include "obs/live/sampler.hpp"

#include <chrono>
#include <sstream>
#include <utility>

#include "common/json_escape.hpp"
#include "obs/jsonv.hpp"
#include "obs/live/flight_recorder.hpp"
#include "obs/mem/memtrack.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"

namespace tagnn::obs::live {
namespace {

double mono_seconds() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

std::uint64_t wall_unix_ms() {
  using namespace std::chrono;
  return static_cast<std::uint64_t>(
      duration_cast<milliseconds>(system_clock::now().time_since_epoch())
          .count());
}

// Publishes the memory registry + process figures as tagnn.mem.*
// gauges so they ride the regular metrics snapshot (→ /metrics,
// /snapshot.json, tagnn_top), and pushes the same numbers into the
// flight recorder for the async-signal-safe crash dump. Returns the
// top subsystems by live bytes for the live.v1 line's "mem" object.
struct MemTick {
  mem::ProcessMemStats proc;
  std::uint64_t tracked_live = 0;
  std::size_t top_count = 0;
  std::uint32_t top_sub[FlightRecorder::kMemTop] = {};
  std::uint64_t top_bytes[FlightRecorder::kMemTop] = {};
};

MemTick publish_mem_tick() {
  MemTick t;
  const mem::MemSnapshot snap = mem::MemRegistry::global().snapshot();
  t.proc = mem::read_process_mem();
  t.tracked_live = snap.total_live_bytes();
  for (std::size_t i = 0; i < mem::kNumSubsystems; ++i) {
    const auto sub = static_cast<mem::Subsystem>(i);
    const mem::SubsystemStats& st = snap.subsystems[i];
    // Never-used subsystems stay out of the registry (no gauge noise);
    // once seen, a gauge keeps reporting even at live == 0.
    if (st.high_water_bytes == 0) continue;
    const std::string base =
        std::string("tagnn.mem.") + mem::subsystem_name(sub);
    gauge_set(base + ".live_bytes", static_cast<double>(st.live_bytes));
    gauge_set(base + ".high_water_bytes",
              static_cast<double>(st.high_water_bytes));
    // Insertion sort into the top-N by live bytes.
    std::size_t pos = t.top_count;
    while (pos > 0 && t.top_bytes[pos - 1] < st.live_bytes) --pos;
    if (pos < FlightRecorder::kMemTop && st.live_bytes > 0) {
      const std::size_t end =
          t.top_count < FlightRecorder::kMemTop ? t.top_count
                                                : FlightRecorder::kMemTop - 1;
      for (std::size_t j = end; j > pos; --j) {
        t.top_sub[j] = t.top_sub[j - 1];
        t.top_bytes[j] = t.top_bytes[j - 1];
      }
      t.top_sub[pos] = static_cast<std::uint32_t>(i);
      t.top_bytes[pos] = st.live_bytes;
      if (t.top_count < FlightRecorder::kMemTop) ++t.top_count;
    }
  }
  gauge_set("tagnn.mem.tracked.live_bytes",
            static_cast<double>(t.tracked_live));
  gauge_set("tagnn.mem.tracked.high_water_bytes",
            static_cast<double>(snap.total_high_water_bytes()));
  if (t.proc.ok) {
    gauge_set("tagnn.mem.process.rss_bytes",
              static_cast<double>(t.proc.rss_bytes));
    gauge_set("tagnn.mem.process.maxrss_bytes",
              static_cast<double>(t.proc.maxrss_bytes));
    gauge_set("tagnn.mem.process.vsize_bytes",
              static_cast<double>(t.proc.vsize_bytes));
  }
  FlightRecorder::global().note_memory(t.proc.rss_bytes, t.proc.maxrss_bytes,
                                       t.top_sub, t.top_bytes, t.top_count);
  return t;
}

}  // namespace

LiveSampler::LiveSampler(int interval_ms) : interval_ms_(interval_ms) {}

LiveSampler::~LiveSampler() { stop(); }

void LiveSampler::start() {
  if (!telemetry_enabled()) return;  // the whole plane is gated
  if (running_.exchange(true, std::memory_order_acq_rel)) return;
  start_mono_s_ = mono_seconds();
  sample_once();  // latest() never fails once the sampler is up
  thread_ = std::thread([this] { run(); });
}

void LiveSampler::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    stop_requested_ = true;
  }
  stop_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    stop_requested_ = false;  // allow a later restart in tests
  }
}

void LiveSampler::run() {
  std::unique_lock<std::mutex> lock(stop_mu_);
  const auto interval = std::chrono::milliseconds(interval_ms_);
  while (!stop_requested_) {
    if (stop_cv_.wait_for(lock, interval, [this] { return stop_requested_; }))
      break;
    lock.unlock();
    sample_once();
    lock.lock();
  }
}

LiveSample LiveSampler::make_sample() {
  LiveSample s;
  const double now = mono_seconds();
  s.seq = ++seq_;
  s.wall_unix_ms = wall_unix_ms();
  s.uptime_s = now - start_mono_s_;
  s.interval_s = have_prev_ ? now - prev_mono_s_ : 0.0;
  // Memory gauges go into the registry first so the scrape below picks
  // them up in the same tick.
  const MemTick mem_tick = publish_mem_tick();
  s.snapshot = MetricsRegistry::global().snapshot();

  // Reset-tolerant rates for every counter and every histogram's event
  // count. A registry reset() drops totals below the previous tick; the
  // delta clamps to 0 (obs::counter_delta) instead of wrapping.
  std::unordered_map<std::string, std::uint64_t> counts;
  counts.reserve(s.snapshot.metrics.size());
  for (const MetricValue& m : s.snapshot.metrics) {
    if (m.kind == MetricKind::kCounter) {
      counts.emplace(m.name, m.u64);
    } else if (m.kind == MetricKind::kHistogram) {
      counts.emplace(m.name + ".count", m.hist.count);
    }
  }
  if (have_prev_) {
    s.rates.reserve(counts.size());
    for (const MetricValue& m : s.snapshot.metrics) {
      const std::string key =
          m.kind == MetricKind::kHistogram ? m.name + ".count" : m.name;
      if (m.kind == MetricKind::kGauge) continue;
      const auto prev = prev_counts_.find(key);
      const std::uint64_t prev_v =
          prev == prev_counts_.end() ? 0 : prev->second;
      s.rates.emplace_back(key, rate(prev_v, counts.at(key), s.interval_s));
    }
  }
  prev_counts_ = std::move(counts);
  prev_mono_s_ = now;
  have_prev_ = true;

  // Pre-render the compact tagnn.live.v1 line (single line, no '\n') so
  // the flight recorder can replay it from a signal handler.
  std::ostringstream os;
  os << "{\"schema\": \"tagnn.live.v1\", \"seq\": " << s.seq
     << ", \"wall_unix_ms\": " << s.wall_unix_ms << ", \"uptime_s\": ";
  write_json_number(os, s.uptime_s);
  os << ", \"interval_s\": ";
  write_json_number(os, s.interval_s);
  os << ", \"rates\": {";
  for (std::size_t i = 0; i < s.rates.size(); ++i) {
    if (i > 0) os << ", ";
    os << '"' << json_escape(s.rates[i].first) << "\": ";
    write_json_number(os, s.rates[i].second);
  }
  os << "}, \"mem\": {\"rss_bytes\": " << mem_tick.proc.rss_bytes
     << ", \"maxrss_bytes\": " << mem_tick.proc.maxrss_bytes
     << ", \"tracked_live_bytes\": " << mem_tick.tracked_live
     << ", \"top\": [";
  for (std::size_t i = 0; i < mem_tick.top_count; ++i) {
    if (i > 0) os << ", ";
    os << "{\"subsystem\": \""
       << mem::subsystem_name(
              static_cast<mem::Subsystem>(mem_tick.top_sub[i]))
       << "\", \"live_bytes\": " << mem_tick.top_bytes[i] << "}";
  }
  os << "]}, \"metrics\": ";
  s.snapshot.write_metrics_object_compact(os);
  os << "}";
  s.json = os.str();
  return s;
}

void LiveSampler::sample_once() {
  std::lock_guard<std::mutex> lock(sample_mu_);
  LiveSample s = make_sample();
  FlightRecorder& fr = FlightRecorder::global();
  if (fr.installed()) fr.record_line(s.json);
  {
    std::lock_guard<std::mutex> slot(latest_mu_);
    latest_ = std::move(s);
  }
  ticks_.fetch_add(1, std::memory_order_relaxed);
}

bool LiveSampler::latest(LiveSample* out) const {
  std::lock_guard<std::mutex> lock(latest_mu_);
  if (latest_.seq == 0) return false;
  *out = latest_;
  return true;
}

}  // namespace tagnn::obs::live

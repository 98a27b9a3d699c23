#include "obs/trace.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <ostream>

#include "common/json_escape.hpp"

namespace tagnn::obs {
namespace {

std::atomic<TraceCollector*> g_active{nullptr};

// Fixed-precision formatting keeps the emitted JSON deterministic (the
// golden-file test depends on it) and avoids locale surprises.
std::string format_us(double v) {
  if (!std::isfinite(v) || v < 0) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

void write_args(std::ostream& os, const std::vector<TraceArg>& args) {
  os << "{";
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (i) os << ",";
    os << '"' << json_escape(args[i].key) << "\":" << args[i].value;
  }
  os << "}";
}

}  // namespace

TraceCollector::TraceCollector(double sim_clock_mhz)
    : sim_clock_mhz_(sim_clock_mhz),
      origin_(std::chrono::steady_clock::now()) {}

double TraceCollector::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int TraceCollector::host_tid_locked(std::thread::id id) {
  const auto it = host_tids_.find(id);
  if (it != host_tids_.end()) return it->second;
  const int tid = static_cast<int>(host_tids_.size()) + 1;
  host_tids_.emplace(id, tid);
  return tid;
}

void TraceCollector::host_span(std::string name, std::string category,
                               double start_us, double dur_us,
                               std::vector<TraceArg> args) {
  std::lock_guard<std::mutex> lock(mu_);
  TraceEvent e;
  e.name = std::move(name);
  e.category = std::move(category);
  e.ts_us = start_us;
  e.dur_us = dur_us;
  e.pid = kHostPid;
  e.tid = host_tid_locked(std::this_thread::get_id());
  e.args = std::move(args);
  events_.push_back(std::move(e));
}

int TraceCollector::sim_track(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [n, tid] : sim_tracks_) {
    if (n == name) return tid;
  }
  const int tid = static_cast<int>(sim_tracks_.size()) + 1;
  sim_tracks_.emplace_back(name, tid);
  return tid;
}

void TraceCollector::sim_span(int track_tid, std::string name,
                              std::string category, Cycle start_cycle,
                              Cycle dur_cycles, std::vector<TraceArg> args) {
  std::lock_guard<std::mutex> lock(mu_);
  TraceEvent e;
  e.name = std::move(name);
  e.category = std::move(category);
  e.ts_us = static_cast<double>(start_cycle) / sim_clock_mhz_;
  e.dur_us = static_cast<double>(dur_cycles) / sim_clock_mhz_;
  e.pid = kSimPid;
  e.tid = track_tid;
  e.args = std::move(args);
  events_.push_back(std::move(e));
}

void TraceCollector::write_json(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  const auto sep = [&] {
    if (!first) os << ",\n";
    first = false;
  };
  // Metadata: process names, then host / sim track names.
  sep();
  os << R"({"ph":"M","pid":1,"tid":0,"name":"process_name",)"
     << R"("args":{"name":"host"}})";
  sep();
  os << R"({"ph":"M","pid":2,"tid":0,"name":"process_name",)"
     << R"("args":{"name":"sim accelerator timeline"}})";
  for (const auto& [id, tid] : host_tids_) {
    (void)id;
    sep();
    os << R"({"ph":"M","pid":1,"tid":)" << tid
       << R"(,"name":"thread_name","args":{"name":"host-thread-)" << tid
       << "\"}}";
  }
  for (const auto& [name, tid] : sim_tracks_) {
    sep();
    os << R"({"ph":"M","pid":2,"tid":)" << tid
       << R"(,"name":"thread_name","args":{"name":")" << json_escape(name)
       << "\"}}";
    sep();
    os << R"({"ph":"M","pid":2,"tid":)" << tid
       << R"(,"name":"thread_sort_index","args":{"sort_index":)" << tid
       << "}}";
  }
  for (const TraceEvent& e : events_) {
    sep();
    os << R"({"ph":"X","pid":)" << e.pid << R"(,"tid":)" << e.tid
       << R"(,"ts":)" << format_us(e.ts_us) << R"(,"dur":)"
       << format_us(e.dur_us) << R"(,"cat":")" << json_escape(e.category)
       << R"(","name":")" << json_escape(e.name) << R"(","args":)";
    write_args(os, e.args);
    os << "}";
  }
  os << "\n]}\n";
}

std::string TraceCollector::quote(const std::string& s) {
  return "\"" + json_escape(s) + "\"";
}

TraceCollector* TraceCollector::active() {
  return g_active.load(std::memory_order_acquire);
}

TraceCollector* TraceCollector::set_active(TraceCollector* tc) {
  return g_active.exchange(tc, std::memory_order_acq_rel);
}

ScopedTrace::ScopedTrace(const char* name, const char* category)
    : tc_(TraceCollector::active()), name_(name), category_(category) {
  if (tc_ != nullptr) start_us_ = tc_->now_us();
}

ScopedTrace::~ScopedTrace() {
  if (tc_ != nullptr) {
    tc_->host_span(name_, category_, start_us_, tc_->now_us() - start_us_);
  }
}

}  // namespace tagnn::obs

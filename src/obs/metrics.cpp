#include "obs/metrics.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <ostream>
#include <sstream>

#include "common/check.hpp"
#include "common/json_escape.hpp"
#include "common/metrics_sink.hpp"
#include "obs/jsonv.hpp"

namespace tagnn::obs {
namespace {

// Fixed shard capacities: cells are pre-allocated so hot-path updates
// never race with container growth. ~40 metrics exist today; the caps
// leave an order of magnitude of headroom and creation checks them.
constexpr std::size_t kMaxCounters = 512;
constexpr std::size_t kMaxGauges = 256;
constexpr std::size_t kMaxHistograms = 64;

constexpr double kSqrtHalf = 0.70710678118654752440;

std::uint64_t bits(double d) {
  std::uint64_t u;
  static_assert(sizeof(u) == sizeof(d));
  __builtin_memcpy(&u, &d, sizeof(u));
  return u;
}

double from_bits(std::uint64_t u) {
  double d;
  __builtin_memcpy(&d, &u, sizeof(d));
  return d;
}

// Atomic double accumulation / extrema over the bit representation
// (atomic<double>::fetch_add is C++20 but spotty; CAS loops are portable
// and contention here is per-thread-shard anyway).
void atomic_add_double(std::atomic<std::uint64_t>& cell, double v) {
  std::uint64_t cur = cell.load(std::memory_order_relaxed);
  while (!cell.compare_exchange_weak(cur, bits(from_bits(cur) + v),
                                     std::memory_order_relaxed)) {
  }
}

void atomic_min_double(std::atomic<std::uint64_t>& cell, double v) {
  std::uint64_t cur = cell.load(std::memory_order_relaxed);
  while (from_bits(cur) > v &&
         !cell.compare_exchange_weak(cur, bits(v),
                                     std::memory_order_relaxed)) {
  }
}

void atomic_max_double(std::atomic<std::uint64_t>& cell, double v) {
  std::uint64_t cur = cell.load(std::memory_order_relaxed);
  while (from_bits(cur) < v &&
         !cell.compare_exchange_weak(cur, bits(v),
                                     std::memory_order_relaxed)) {
  }
}

std::atomic<std::uint64_t>& next_registry_uid() {
  static std::atomic<std::uint64_t> uid{1};
  return uid;
}

}  // namespace

const char* to_string(MetricKind k) {
  switch (k) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "?";
}

std::size_t histogram_bucket(double v) {
  if (!(v > 0.0)) return 0;  // non-positive and NaN
  int exp = 0;
  const double m = std::frexp(v, &exp);  // v = m * 2^exp, m in [0.5, 1)
  const int sub = m < kSqrtHalf ? 0 : 1;
  const long idx = (static_cast<long>(exp) + kHistogramExpOffset) * 2 + sub;
  if (idx < 0) return 0;
  if (idx >= static_cast<long>(kHistogramBuckets)) {
    return kHistogramBuckets - 1;
  }
  return static_cast<std::size_t>(idx);
}

double histogram_bucket_lower(std::size_t idx) {
  // Inverse of histogram_bucket: bucket idx holds v = m * 2^exp with
  // exp = idx/2 - offset and m in [0.5, sqrt(1/2)) or [sqrt(1/2), 1).
  const int exp = static_cast<int>(idx / 2) - kHistogramExpOffset;
  const double base = (idx % 2) ? kSqrtHalf : 0.5;
  return std::ldexp(base, exp);
}

double HistogramStats::quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  if (q <= 0.0) return min;
  if (q >= 1.0) return max;
  const double rank = q * static_cast<double>(count);
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
    const std::uint64_t cb = buckets[b];
    if (cb == 0) continue;
    if (static_cast<double>(cum + cb) >= rank) {
      const double lower = histogram_bucket_lower(b);
      const double upper = histogram_bucket_lower(b + 1);
      const double frac =
          (rank - static_cast<double>(cum)) / static_cast<double>(cb);
      const double est = lower + frac * (upper - lower);
      return std::clamp(est, min, max);
    }
    cum += cb;
  }
  return max;
}

const MetricValue* MetricsSnapshot::find(std::string_view name) const {
  for (const MetricValue& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

namespace {

// JSON has no Inf/NaN literals; write_json_number serialises non-finite
// values as null and bumps obs::json_nonfinite_warnings().
void write_number(std::ostream& os, double v) { write_json_number(os, v); }

// CSV cell for a double: empty when non-finite (still counted as a
// dropped value), so downstream parsers never see "nan"/"inf" tokens.
void write_csv_number(std::ostream& os, double v) {
  if (std::isfinite(v)) {
    os << v;
  } else {
    std::ostringstream sink;
    write_json_number(sink, v);  // counts the warning, emits "null"
  }
}

void write_metric_json(std::ostream& os, const MetricValue& m,
                       const std::string& pad) {
  os << pad << '"' << json_escape(m.name) << "\": {\"kind\": \""
     << to_string(m.kind) << "\"";
  switch (m.kind) {
    case MetricKind::kCounter:
      os << ", \"value\": " << m.u64;
      break;
    case MetricKind::kGauge:
      os << ", \"value\": ";
      write_number(os, m.value);
      break;
    case MetricKind::kHistogram:
      os << ", \"count\": " << m.hist.count << ", \"sum\": ";
      write_number(os, m.hist.sum);
      os << ", \"min\": ";
      write_number(os, m.hist.count ? m.hist.min : 0);
      os << ", \"max\": ";
      write_number(os, m.hist.count ? m.hist.max : 0);
      os << ", \"mean\": ";
      write_number(os, m.hist.mean());
      os << ", \"p50\": ";
      write_number(os, m.hist.p50());
      os << ", \"p90\": ";
      write_number(os, m.hist.p90());
      os << ", \"p99\": ";
      write_number(os, m.hist.p99());
      break;
  }
  os << "}";
}

}  // namespace

void MetricsSnapshot::write_metrics_object(std::ostream& os,
                                           int indent) const {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  os << "{\n";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    write_metric_json(os, metrics[i], pad);
    if (i + 1 < metrics.size()) os << ',';
    os << '\n';
  }
  os << std::string(static_cast<std::size_t>(indent > 2 ? indent - 2 : 0),
                    ' ')
     << "}";
}

void MetricsSnapshot::write_metrics_object_compact(std::ostream& os) const {
  os << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) os << ", ";
    write_metric_json(os, metrics[i], "");
  }
  os << "}";
}

void MetricsSnapshot::write_json(std::ostream& os) const {
  os << "{\n  \"schema\": \"tagnn.metrics.v1\",\n  \"metrics\": ";
  write_metrics_object(os, 4);
  os << "\n}\n";
}

void MetricsSnapshot::write_csv(std::ostream& os) const {
  os << "# schema: tagnn.metrics_csv.v2\n";
  os << "name,kind,value,count,sum,min,max,p50,p90,p99\n";
  for (const MetricValue& m : metrics) {
    os << m.name << ',' << to_string(m.kind) << ',';
    switch (m.kind) {
      case MetricKind::kCounter:
        os << m.u64 << ",,,,,,,";
        break;
      case MetricKind::kGauge:
        write_csv_number(os, m.value);
        os << ",,,,,,,";
        break;
      case MetricKind::kHistogram:
        os << ',' << m.hist.count << ',';
        write_csv_number(os, m.hist.sum);
        os << ',';
        write_csv_number(os, m.hist.count ? m.hist.min : 0);
        os << ',';
        write_csv_number(os, m.hist.count ? m.hist.max : 0);
        os << ',';
        write_csv_number(os, m.hist.p50());
        os << ',';
        write_csv_number(os, m.hist.p90());
        os << ',';
        write_csv_number(os, m.hist.p99());
        break;
    }
    os << '\n';
  }
}

// ---------------------------------------------------------------------
// Registry internals.

struct MetricsRegistry::GaugeCell {
  std::atomic<std::uint64_t> value_bits{bits(0.0)};
};

namespace {

struct HistCell {
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> sum_bits{bits(0.0)};
  std::atomic<std::uint64_t> min_bits{
      bits(std::numeric_limits<double>::infinity())};
  std::atomic<std::uint64_t> max_bits{
      bits(-std::numeric_limits<double>::infinity())};
  std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets{};
};

}  // namespace

struct MetricsRegistry::Shard {
  std::array<std::atomic<std::uint64_t>, kMaxCounters> counters{};
  std::unique_ptr<HistCell[]> hists{new HistCell[kMaxHistograms]};
};

MetricsRegistry::MetricsRegistry()
    : registry_uid_(
          next_registry_uid().fetch_add(1, std::memory_order_relaxed)),
      gauges_(new GaugeCell[kMaxGauges]) {}

MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry::Shard& MetricsRegistry::local_shard() const {
  // Cache keyed by registry uid: a destroyed registry's uid is never
  // reused, so stale entries simply stop matching.
  thread_local std::vector<std::pair<std::uint64_t, Shard*>> cache;
  for (const auto& [uid, shard] : cache) {
    if (uid == registry_uid_) return *shard;
  }
  std::lock_guard<std::mutex> lock(mu_);
  shards_.push_back(std::make_unique<Shard>());
  Shard* s = shards_.back().get();
  cache.emplace_back(registry_uid_, s);
  return *s;
}

MetricId MetricsRegistry::get_or_create(std::string_view name,
                                        MetricKind kind) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = by_name_.find(std::string(name));
  if (it != by_name_.end()) {
    TAGNN_CHECK_MSG(it->second.kind == kind,
                    "metric '" << name << "' re-registered as "
                               << to_string(kind) << " but is "
                               << to_string(it->second.kind));
    return it->second;
  }
  MetricId id;
  id.kind = kind;
  switch (kind) {
    case MetricKind::kCounter:
      TAGNN_CHECK(counter_names_.size() < kMaxCounters);
      id.index = static_cast<std::uint32_t>(counter_names_.size());
      counter_names_.emplace_back(name);
      break;
    case MetricKind::kGauge:
      TAGNN_CHECK(gauge_names_.size() < kMaxGauges);
      id.index = static_cast<std::uint32_t>(gauge_names_.size());
      gauge_names_.emplace_back(name);
      break;
    case MetricKind::kHistogram:
      TAGNN_CHECK(histogram_names_.size() < kMaxHistograms);
      id.index = static_cast<std::uint32_t>(histogram_names_.size());
      histogram_names_.emplace_back(name);
      break;
  }
  by_name_.emplace(std::string(name), id);
  return id;
}

MetricId MetricsRegistry::counter(std::string_view name) {
  return get_or_create(name, MetricKind::kCounter);
}
MetricId MetricsRegistry::gauge(std::string_view name) {
  return get_or_create(name, MetricKind::kGauge);
}
MetricId MetricsRegistry::histogram(std::string_view name) {
  return get_or_create(name, MetricKind::kHistogram);
}

void MetricsRegistry::add(MetricId id, std::uint64_t delta) {
  if (!telemetry_enabled()) return;
  TAGNN_DCHECK(id.kind == MetricKind::kCounter);
  local_shard().counters[id.index].fetch_add(delta,
                                             std::memory_order_relaxed);
}

void MetricsRegistry::set(MetricId id, double v) {
  if (!telemetry_enabled()) return;
  TAGNN_DCHECK(id.kind == MetricKind::kGauge);
  gauges_[id.index].value_bits.store(bits(v), std::memory_order_relaxed);
}

void MetricsRegistry::set_max(MetricId id, double v) {
  if (!telemetry_enabled()) return;
  TAGNN_DCHECK(id.kind == MetricKind::kGauge);
  atomic_max_double(gauges_[id.index].value_bits, v);
}

void MetricsRegistry::record(MetricId id, double v) {
  if (!telemetry_enabled()) return;
  TAGNN_DCHECK(id.kind == MetricKind::kHistogram);
  HistCell& h = local_shard().hists[id.index];
  h.count.fetch_add(1, std::memory_order_relaxed);
  atomic_add_double(h.sum_bits, v);
  atomic_min_double(h.min_bits, v);
  atomic_max_double(h.max_bits, v);
  h.buckets[histogram_bucket(v)].fetch_add(1, std::memory_order_relaxed);
}

void MetricsRegistry::add(std::string_view name, std::uint64_t delta) {
  if (!telemetry_enabled()) return;
  add(counter(name), delta);
}
void MetricsRegistry::set(std::string_view name, double v) {
  if (!telemetry_enabled()) return;
  set(gauge(name), v);
}
void MetricsRegistry::set_max(std::string_view name, double v) {
  if (!telemetry_enabled()) return;
  set_max(gauge(name), v);
}
void MetricsRegistry::record(std::string_view name, double v) {
  if (!telemetry_enabled()) return;
  record(histogram(name), v);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  snap.metrics.reserve(counter_names_.size() + gauge_names_.size() +
                       histogram_names_.size());
  for (std::size_t i = 0; i < counter_names_.size(); ++i) {
    MetricValue m;
    m.name = counter_names_[i];
    m.kind = MetricKind::kCounter;
    for (const auto& shard : shards_) {
      m.u64 += shard->counters[i].load(std::memory_order_relaxed);
    }
    m.value = static_cast<double>(m.u64);
    snap.metrics.push_back(std::move(m));
  }
  for (std::size_t i = 0; i < gauge_names_.size(); ++i) {
    MetricValue m;
    m.name = gauge_names_[i];
    m.kind = MetricKind::kGauge;
    m.value =
        from_bits(gauges_[i].value_bits.load(std::memory_order_relaxed));
    snap.metrics.push_back(std::move(m));
  }
  for (std::size_t i = 0; i < histogram_names_.size(); ++i) {
    MetricValue m;
    m.name = histogram_names_[i];
    m.kind = MetricKind::kHistogram;
    m.hist.min = std::numeric_limits<double>::infinity();
    m.hist.max = -std::numeric_limits<double>::infinity();
    for (const auto& shard : shards_) {
      const HistCell& h = shard->hists[i];
      m.hist.count += h.count.load(std::memory_order_relaxed);
      m.hist.sum += from_bits(h.sum_bits.load(std::memory_order_relaxed));
      m.hist.min = std::min(
          m.hist.min,
          from_bits(h.min_bits.load(std::memory_order_relaxed)));
      m.hist.max = std::max(
          m.hist.max,
          from_bits(h.max_bits.load(std::memory_order_relaxed)));
      for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
        m.hist.buckets[b] += h.buckets[b].load(std::memory_order_relaxed);
      }
    }
    if (m.hist.count == 0) {
      m.hist.min = 0;
      m.hist.max = 0;
    }
    snap.metrics.push_back(std::move(m));
  }
  std::sort(snap.metrics.begin(), snap.metrics.end(),
            [](const MetricValue& a, const MetricValue& b) {
              return a.name < b.name;
            });
  return snap;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& shard : shards_) {
    for (std::size_t i = 0; i < counter_names_.size(); ++i) {
      shard->counters[i].store(0, std::memory_order_relaxed);
    }
    for (std::size_t i = 0; i < histogram_names_.size(); ++i) {
      HistCell& h = shard->hists[i];
      h.count.store(0, std::memory_order_relaxed);
      h.sum_bits.store(bits(0.0), std::memory_order_relaxed);
      h.min_bits.store(bits(std::numeric_limits<double>::infinity()),
                       std::memory_order_relaxed);
      h.max_bits.store(bits(-std::numeric_limits<double>::infinity()),
                       std::memory_order_relaxed);
      for (auto& b : h.buckets) b.store(0, std::memory_order_relaxed);
    }
  }
  for (std::size_t i = 0; i < gauge_names_.size(); ++i) {
    gauges_[i].value_bits.store(bits(0.0), std::memory_order_relaxed);
  }
}

MetricsRegistry& MetricsRegistry::global() {
  // Leaked on purpose: pool workers may record metrics while statics
  // are torn down; the registry must outlive every thread.
  static MetricsRegistry* r = new MetricsRegistry();
  return *r;
}

namespace {

// Bridges common/'s MetricsSink indirection onto the global registry,
// so the layers below obs/ (thread pool, kernel registry) can publish
// without an upward include (tools/layering.toml). Handles pack a
// MetricId's kind and index into one word.
class RegistrySink final : public MetricsSink {
 public:
  bool enabled() const override { return telemetry_enabled(); }

  std::uint64_t resolve_counter(const char* name) override {
    return encode(MetricsRegistry::global().counter(name));
  }
  std::uint64_t resolve_gauge(const char* name) override {
    return encode(MetricsRegistry::global().gauge(name));
  }
  std::uint64_t resolve_histogram(const char* name) override {
    return encode(MetricsRegistry::global().histogram(name));
  }

  void add(std::uint64_t h, std::uint64_t delta) override {
    MetricsRegistry::global().add(decode(h), delta);
  }
  void set(std::uint64_t h, double v) override {
    MetricsRegistry::global().set(decode(h), v);
  }
  void set_max(std::uint64_t h, double v) override {
    MetricsRegistry::global().set_max(decode(h), v);
  }
  void record(std::uint64_t h, double v) override {
    MetricsRegistry::global().record(decode(h), v);
  }

  void gauge_set(const char* name, double v) override {
    if (telemetry_enabled()) MetricsRegistry::global().set(name, v);
  }

 private:
  static std::uint64_t encode(MetricId id) {
    return (static_cast<std::uint64_t>(id.kind) << 32) | id.index;
  }
  static MetricId decode(std::uint64_t h) {
    MetricId id;
    id.index = static_cast<std::uint32_t>(h & 0xffffffffu);
    id.kind = static_cast<MetricKind>(h >> 32);
    return id;
  }
};

RegistrySink g_registry_sink;

// Installed during static initialization of any binary that links the
// telemetry library and references this TU (every metrics consumer
// does); binaries without obs/ simply leave the sink null and the
// lower layers' instrumentation no-ops.
struct RegistrySinkInstaller {
  RegistrySinkInstaller() { install_metrics_sink(&g_registry_sink); }
};
RegistrySinkInstaller g_registry_sink_installer;

}  // namespace

}  // namespace tagnn::obs

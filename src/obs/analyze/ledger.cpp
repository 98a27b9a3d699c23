#include "obs/analyze/ledger.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <istream>
#include <sstream>
#include <stdexcept>

#include "common/json_escape.hpp"
#include "obs/analyze/jparse.hpp"
#include "obs/jsonv.hpp"

namespace tagnn::obs::analyze {
namespace {

double median_of(std::vector<double> v) {
  const std::size_t n = v.size();
  const std::size_t mid = n / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  const double hi = v[mid];
  if (n % 2 == 1) return hi;
  std::nth_element(v.begin(), v.begin() + (mid - 1), v.begin() + mid);
  return 0.5 * (v[mid - 1] + hi);
}

}  // namespace

double RunRecord::metric(std::string_view name, double fallback) const {
  for (const auto& [k, v] : metrics) {
    if (k == name) return v;
  }
  return fallback;
}

std::string fingerprint(std::string_view canonical) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a 64-bit
  for (const char c : canonical) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  char buf[24];
  std::snprintf(buf, sizeof(buf), "cfg-%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

std::string run_record_json(const RunRecord& rec) {
  std::ostringstream os;
  os << "{\"schema\": \"" << kRunSchema << "\", \"workload\": \""
     << json_escape(rec.workload) << "\", \"git_sha\": \""
     << json_escape(rec.git_sha.empty() ? "unknown" : rec.git_sha)
     << "\", \"config_fingerprint\": \"" << json_escape(rec.config_fingerprint)
     << "\", \"env\": \"" << json_escape(rec.env) << "\", \"timestamp\": \""
     << json_escape(rec.timestamp) << "\", \"metrics\": {";
  for (std::size_t i = 0; i < rec.metrics.size(); ++i) {
    os << (i ? ", " : "") << "\"" << json_escape(rec.metrics[i].first)
       << "\": ";
    write_json_number(os, rec.metrics[i].second);
  }
  os << "}}";
  return os.str();
}

void append_run_record(const std::string& path, const RunRecord& rec) {
  std::ofstream f(path, std::ios::app);
  if (!f) {
    throw std::runtime_error("cannot open ledger for append: " + path);
  }
  f << run_record_json(rec) << '\n';
}

std::vector<RunRecord> parse_ledger(std::istream& is,
                                    std::size_t* skipped) {
  std::vector<RunRecord> out;
  std::size_t bad = 0;
  std::string line;
  while (std::getline(is, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    JsonValue doc;
    if (!json_parse(line, &doc) || !doc.is_object() ||
        doc.string_at("schema") != kRunSchema) {
      ++bad;
      continue;
    }
    RunRecord rec;
    rec.workload = doc.string_at("workload");
    rec.git_sha = doc.string_at("git_sha");
    rec.config_fingerprint = doc.string_at("config_fingerprint");
    rec.env = doc.string_at("env");
    rec.timestamp = doc.string_at("timestamp");
    if (const JsonValue* m = doc.find("metrics");
        m != nullptr && m->is_object()) {
      for (const auto& [name, value] : m->as_object()) {
        if (value.is_number()) rec.set(name, value.as_number());
      }
    }
    out.push_back(std::move(rec));
  }
  if (skipped != nullptr) *skipped = bad;
  return out;
}

std::vector<RunRecord> load_ledger(const std::string& path,
                                   std::size_t* skipped) {
  std::ifstream f(path);
  if (!f) {
    if (skipped != nullptr) *skipped = 0;
    return {};
  }
  return parse_ledger(f, skipped);
}

std::vector<DriftFinding> detect_drift_against(
    const RunRecord& candidate, const std::vector<RunRecord>& history,
    const DriftOptions& opts) {
  std::vector<DriftFinding> findings;
  for (const auto& [name, value] : candidate.metrics) {
    if (!std::isfinite(value)) continue;
    std::vector<double> samples;
    samples.reserve(history.size());
    for (const RunRecord& h : history) {
      for (const auto& [hn, hv] : h.metrics) {
        if (hn == name && std::isfinite(hv)) {
          samples.push_back(hv);
          break;
        }
      }
    }
    if (samples.size() < opts.min_history) continue;
    const double med = median_of(samples);
    std::vector<double> devs;
    devs.reserve(samples.size());
    for (const double s : samples) devs.push_back(std::fabs(s - med));
    const double mad = median_of(std::move(devs));
    const double scale = std::max(
        {mad, opts.rel_floor * std::fabs(med), opts.abs_floor});
    const double threshold = opts.k * scale;
    const double dev = std::fabs(value - med);
    if (dev > threshold) {
      DriftFinding f;
      f.workload = candidate.workload;
      f.metric = name;
      f.value = value;
      f.median = med;
      f.mad = mad;
      f.threshold = threshold;
      f.severity = threshold > 0 ? dev / threshold : 0;
      findings.push_back(std::move(f));
    }
  }
  std::stable_sort(findings.begin(), findings.end(),
                   [](const DriftFinding& a, const DriftFinding& b) {
                     return a.severity > b.severity;
                   });
  return findings;
}

std::vector<DriftFinding> detect_drift(
    const std::vector<RunRecord>& ledger, const DriftOptions& opts) {
  if (ledger.empty()) return {};
  const RunRecord& candidate = ledger.back();
  std::vector<RunRecord> history;
  history.reserve(ledger.size() - 1);
  for (std::size_t i = 0; i + 1 < ledger.size(); ++i) {
    if (ledger[i].workload == candidate.workload) {
      history.push_back(ledger[i]);
    }
  }
  return detect_drift_against(candidate, history, opts);
}

}  // namespace tagnn::obs::analyze

#include "obs/analyze/memfit.hpp"

#include <algorithm>
#include <cstdlib>
#include <ostream>

#include "common/json_escape.hpp"
#include "obs/jsonv.hpp"

namespace tagnn::obs::analyze {

namespace {

using mem::Subsystem;

// The topology stores grow with the edge stream; everything else is
// dominated by per-vertex state (features, hidden states, tenant
// engines, the O-CSR's per-vertex feature-row table). Ballast/untagged
// get a vertex basis for lack of better.
bool edge_scaling(Subsystem s) {
  return s == Subsystem::kCsr || s == Subsystem::kPma ||
         s == Subsystem::kDelta;
}

}  // namespace

std::uint64_t mem_budget_bytes() {
  if (const char* env = std::getenv("TAGNN_MEM_BUDGET_BYTES")) {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(env, &end, 10);
    if (end != env && *end == '\0' && v > 0) return v;
  }
  return kDefaultMemBudgetBytes;
}

MemDiagnosis diagnose_memory(const MemFitInput& in) {
  MemDiagnosis d;
  d.observed_scale = in.scale;
  d.target_scale = in.target_scale;
  d.vertices = in.vertices;
  d.edges = in.edges;
  d.snapshots = in.snapshots;
  d.budget_bytes = in.budget_bytes;
  d.observed_total_bytes = in.snapshot.total_high_water_bytes();
  d.has_fit = in.vertices > 0 && in.edges > 0 && in.scale > 0;

  // Linear extrapolation: generated shapes scale both V and E roughly
  // linearly in TAGNN_SCALE, so a high-water observed at `scale` maps
  // to target_scale by a single factor. When the shape is unknown the
  // projection degenerates to the observed bytes (factor 1).
  const double factor =
      d.has_fit && in.target_scale > 0 ? in.target_scale / in.scale : 1.0;

  if (d.has_fit) {
    d.bytes_per_vertex = static_cast<double>(d.observed_total_bytes) /
                         static_cast<double>(in.vertices);
    d.bytes_per_edge = static_cast<double>(d.observed_total_bytes) /
                       static_cast<double>(in.edges);
  }

  double projected_total = 0;
  for (std::size_t i = 0; i < mem::kNumSubsystems; ++i) {
    const auto s = static_cast<Subsystem>(i);
    const mem::SubsystemStats& stats = in.snapshot.subsystems[i];
    if (stats.high_water_bytes == 0) continue;
    SubsystemFit fit;
    fit.subsystem = mem::subsystem_name(s);
    fit.high_water_bytes = stats.high_water_bytes;
    if (d.has_fit) {
      const std::uint64_t basis_count =
          edge_scaling(s) ? in.edges : in.vertices;
      fit.basis = edge_scaling(s) ? "edges" : "vertices";
      fit.bytes_per_basis = static_cast<double>(stats.high_water_bytes) /
                            static_cast<double>(basis_count);
    }
    fit.projected_bytes = static_cast<std::uint64_t>(
        static_cast<double>(stats.high_water_bytes) * factor);
    projected_total += static_cast<double>(fit.projected_bytes);
    d.fits.push_back(std::move(fit));
  }
  std::sort(d.fits.begin(), d.fits.end(),
            [](const SubsystemFit& a, const SubsystemFit& b) {
              return a.projected_bytes > b.projected_bytes;
            });
  d.projected_total_bytes = static_cast<std::uint64_t>(projected_total);
  d.over_budget = d.projected_total_bytes > d.budget_bytes;
  if (d.over_budget && !d.fits.empty()) {
    d.first_over_budget = d.fits.front().subsystem;
  }
  return d;
}

void write_memory_diagnosis_json(std::ostream& os, const MemDiagnosis& d) {
  os << "{\"has_fit\": " << (d.has_fit ? "true" : "false")
     << ", \"observed_scale\": ";
  write_json_number(os, d.observed_scale);
  os << ", \"target_scale\": ";
  write_json_number(os, d.target_scale);
  os << ", \"vertices\": " << d.vertices << ", \"edges\": " << d.edges
     << ", \"snapshots\": " << d.snapshots << ", \"bytes_per_vertex\": ";
  write_json_number(os, d.bytes_per_vertex);
  os << ", \"bytes_per_edge\": ";
  write_json_number(os, d.bytes_per_edge);
  os << ", \"budget_bytes\": " << d.budget_bytes
     << ", \"observed_total_bytes\": " << d.observed_total_bytes
     << ", \"projected_total_bytes\": " << d.projected_total_bytes
     << ", \"over_budget\": " << (d.over_budget ? "true" : "false")
     << ", \"first_over_budget\": \"" << json_escape(d.first_over_budget)
     << "\", \"subsystems\": [";
  bool first = true;
  for (const SubsystemFit& f : d.fits) {
    if (!first) os << ", ";
    first = false;
    os << "{\"subsystem\": \"" << json_escape(f.subsystem)
       << "\", \"high_water_bytes\": " << f.high_water_bytes
       << ", \"basis\": \"" << json_escape(f.basis)
       << "\", \"bytes_per_basis\": ";
    write_json_number(os, f.bytes_per_basis);
    os << ", \"projected_bytes\": " << f.projected_bytes << "}";
  }
  os << "]}";
}

}  // namespace tagnn::obs::analyze

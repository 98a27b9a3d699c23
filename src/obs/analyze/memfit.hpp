// Memory scale-projection diagnosis ("diagnose_memory" in perf-doctor
// terms): takes the per-subsystem high-water marks from the tracked-
// allocation registry plus the workload shape the run actually used
// (vertices, edges, snapshots, TAGNN_SCALE), fits bytes-per-vertex /
// bytes-per-edge coefficients, and extrapolates the footprint to the
// full-size TAGNN_SCALE=1 shapes — naming which structure blows the
// memory budget first. ROADMAP item 2 (million-vertex refactor) is
// measured against exactly these numbers.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/mem/memtrack.hpp"

namespace tagnn::obs::analyze {

/// Default budget the projection is judged against; override per run
/// with TAGNN_MEM_BUDGET_BYTES (read by `mem_budget_bytes()`).
inline constexpr std::uint64_t kDefaultMemBudgetBytes =
    16ull * 1024 * 1024 * 1024;  // 16 GiB

/// kDefaultMemBudgetBytes unless TAGNN_MEM_BUDGET_BYTES is set to a
/// positive integer in the environment.
std::uint64_t mem_budget_bytes();

struct MemFitInput {
  // Workload shape as observed by the run.
  std::uint64_t vertices = 0;
  std::uint64_t edges = 0;  // summed across snapshots (the churn basis)
  std::uint64_t snapshots = 0;
  double scale = 1.0;  // the TAGNN_SCALE the shape was generated at

  double target_scale = 1.0;  // project to this scale (>= scale usually)
  std::uint64_t budget_bytes = kDefaultMemBudgetBytes;

  mem::MemSnapshot snapshot;  // per-subsystem high-water source
};

struct SubsystemFit {
  std::string subsystem;
  std::uint64_t high_water_bytes = 0;
  // "edges" for the topology stores (csr/pma/delta), "vertices"
  // for everything else; empty when the basis count was zero (no fit).
  std::string basis;
  double bytes_per_basis = 0;
  std::uint64_t projected_bytes = 0;
};

struct MemDiagnosis {
  bool has_fit = false;  // false when the shape was unknown (all zero)
  double observed_scale = 1.0;
  double target_scale = 1.0;
  std::uint64_t vertices = 0;
  std::uint64_t edges = 0;
  std::uint64_t snapshots = 0;
  double bytes_per_vertex = 0;  // total high-water / vertices
  double bytes_per_edge = 0;    // total high-water / edges
  std::uint64_t budget_bytes = kDefaultMemBudgetBytes;
  std::uint64_t observed_total_bytes = 0;   // sum of high-water marks
  std::uint64_t projected_total_bytes = 0;  // at target_scale
  bool over_budget = false;
  // Largest projected subsystem when over budget (the structure that
  // "blows the budget first"); empty otherwise.
  std::string first_over_budget;
  std::vector<SubsystemFit> fits;  // descending by projected bytes
};

MemDiagnosis diagnose_memory(const MemFitInput& in);

/// JSON object (no surrounding document) used for the report's
/// `diagnosis.memory` field.
void write_memory_diagnosis_json(std::ostream& os, const MemDiagnosis& d);

}  // namespace tagnn::obs::analyze

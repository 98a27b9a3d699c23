// Machine-readable run reports.
//
// Serialises an AccelResult (plus its configuration) as JSON so sweeps
// driven through tools/tagnn_sim can be post-processed without parsing
// human-oriented tables. The writer needs no JSON library; strings go
// through the shared json_escape (common/json_escape.hpp).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "obs/analyze/cycle_stack.hpp"
#include "obs/analyze/memfit.hpp"
#include "obs/analyze/roofline.hpp"
#include "tagnn/accelerator.hpp"

namespace tagnn {

/// Roofline placement of the whole run on the configured machine model:
/// functional MACs vs DRAM traffic against cfg.total_macs() MACs/cycle
/// and the sequential-peak HBM bytes/cycle.
obs::analyze::RooflineResult diagnose_roofline(const TagnnConfig& cfg,
                                               const AccelResult& result);

/// Fig. 13-style cycle stack for the whole run: per-unit cycles rescaled
/// onto the overlapped total (components sum to cycles.total exactly).
obs::analyze::CycleStack diagnose_cycle_stack(const AccelResult& result);

/// One stack per simulated window (from telemetry.window_records); each
/// stack's components sum to that window's overlapped latency.
std::vector<obs::analyze::CycleStack> diagnose_window_stacks(
    const AccelResult& result);

/// Workload shape for the memory scale-projection diagnosis
/// (diagnosis.memory). All-zero (the default) means "shape unknown":
/// the section still reports observed high-water marks, but no
/// bytes-per-vertex/edge fit or TAGNN_SCALE projection.
struct MemReportContext {
  std::uint64_t vertices = 0;
  std::uint64_t edges = 0;  // summed across snapshots
  std::uint64_t snapshots = 0;
  double scale = 0.0;         // generator scale the run used
  double target_scale = 1.0;  // project to this scale (TAGNN_SCALE=1)
};

/// diagnosis.memory: per-subsystem high-water marks from the tracked-
/// allocation registry plus the scale projection from `mem` (see
/// obs/analyze/memfit.hpp).
obs::analyze::MemDiagnosis diagnose_memory(const MemReportContext& mem);

/// Writes one JSON object describing the run. `workload` names the
/// dataset/model pair for the report consumer. Includes a "diagnosis"
/// object (roofline verdict + cycle stacks + memory projection) built
/// from the helpers above; all doubles go through
/// obs::write_json_number, so the output is valid JSON even when a
/// value is non-finite.
void write_json_report(std::ostream& os, const std::string& workload,
                       const TagnnConfig& cfg, const AccelResult& result,
                       const MemReportContext& mem = {});

}  // namespace tagnn

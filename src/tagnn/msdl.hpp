// Multiple Snapshots Data Loader (MSDL) — the cycle model of the two
// hardware pipelines described in section 4.1, run over a window plan
// (graph/window_plan.hpp) that already holds the classification,
// affected subgraph and O-CSR:
//   * 6-stage vertex-classification pipeline: Fetch_Vertex,
//     Fetch_Snapshot, Fetch_Offsets, Fetch_Neighbors, Fetch_Features,
//     Identify_Vertices;
//   * 5-stage TFSM traversal pipeline: Fetch_Root, Fetch_Neighbors,
//     Type_Detection, Offsets_Fetching, Neighbors_Selection.
#pragma once

#include "graph/window_plan.hpp"
#include "sim/pipeline.hpp"
#include "tagnn/config.hpp"

namespace tagnn {

struct MsdlResult {
  Cycle classification_cycles = 0;
  Cycle traversal_cycles = 0;
  /// Bytes the loader pulled from HBM (structure + deduplicated
  /// features under the configured storage format).
  double dram_bytes = 0;
  /// Burst-friendliness of those transfers (format dependent).
  double sequential_fraction = 0.9;
  /// Per-stage busy/stall cycles of the two loader pipelines, for the
  /// utilization-attribution report (Fig. 13-style breakdowns).
  std::vector<PipelineSim::StageStats> classify_stages;
  std::vector<PipelineSim::StageStats> traverse_stages;

  Cycle total_cycles() const {
    return classification_cycles + traversal_cycles;
  }
};

class Msdl {
 public:
  explicit Msdl(const TagnnConfig& cfg) : cfg_(cfg) {}

  /// Models the loader pipelines and load traffic of one planned window.
  MsdlResult process_window(const DynamicGraph& g,
                            const WindowPlan& plan) const;

 private:
  const TagnnConfig& cfg_;
};

}  // namespace tagnn

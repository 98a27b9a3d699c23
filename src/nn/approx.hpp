// RNN approximation baselines compared in Table 5. Each method runs the
// exact GNN module and approximates only the RNN phase:
//
//  * TaGNN-DR (DeltaRNN, Gao et al. FPGA'18): per-element delta
//    thresholding on the RNN input — components changing less than a
//    threshold are dropped, a vertex with no surviving component skips
//    its update entirely. Topology-blind.
//  * TaGNN-AM (ALSTM, Jo et al. 2020): approximate LSTM arithmetic —
//    inputs and hidden states quantised to a coarse fixed-point grid
//    before every cell update.
//  * TaGNN-AS (ATLAS, Kress et al. DSD'23): approximate multipliers —
//    a deterministic relative error pattern on the RNN weights plus
//    coarser accumulation.
//  * TaGNN (ours): the similarity-aware cell skipping of the paper
//    (ConcurrentEngine with default thresholds).
//
// None of these baselines sees graph topology, which is exactly the gap
// the paper's similarity score closes (section 2.3, Insight Two).
#pragma once

#include <string>

#include "nn/engine.hpp"

namespace tagnn {

enum class ApproxMethod : int {
  kBaseline = 0,  // exact reference inference
  kTagnn,         // similarity-aware cell skipping (ours)
  kDeltaRnn,      // TaGNN-DR
  kAlstm,         // TaGNN-AM
  kAtlas,         // TaGNN-AS
};

const char* to_string(ApproxMethod m);

struct ApproxOptions {
  /// DeltaRNN per-element threshold.
  float delta_threshold = 0.35f;
};

/// Runs DGNN inference with the chosen RNN approximation. Outputs are
/// stored per snapshot so accuracy can be evaluated.
EngineResult run_with_approximation(const DynamicGraph& g,
                                    const DgnnWeights& weights,
                                    ApproxMethod method,
                                    const ApproxOptions& opts = {});

}  // namespace tagnn

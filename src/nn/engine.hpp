// DGNN inference engines.
//
//  * ReferenceEngine  — the conventional snapshot-by-snapshot execution
//    every baseline framework uses (DGL/PyGT/PiPAD class): each
//    snapshot's GNN stack and RNN cells run in full, features are
//    gathered per edge with no cross-snapshot reuse.
//  * ConcurrentEngine — the paper's topology-aware concurrent execution
//    (TaGNN-S in software): per window it classifies vertices, extracts
//    the affected subgraph, builds the O-CSR, computes unchanged
//    vertices once per layer, and applies similarity-aware cell
//    skipping in the RNN module.
//
// Both engines produce the final features H_t and measured OpCounts;
// with reuse enabled and skipping disabled the ConcurrentEngine output
// is bit-identical to the ReferenceEngine (tested).
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "graph/dynamic_graph.hpp"
#include "graph/window_plan.hpp"
#include "nn/cell_skip.hpp"
#include "nn/op_counts.hpp"
#include "nn/weights.hpp"
#include "tensor/matrix.hpp"

namespace tagnn {

/// Delta components with |d| <= kDeltaEps are condensed away.
inline constexpr float kDeltaEps = 0.01f;

struct EngineOptions {
  /// Snapshots per batch (the paper's sliding window; default 4).
  SnapshotId window_size = 4;
  /// Enable cross-snapshot GNN reuse (topology-aware concurrent part).
  bool gnn_reuse = true;
  /// Enable similarity-aware cell skipping (ADSC part).
  bool cell_skip = true;
  SkipThresholds thresholds{};
  /// Full cell updates are forced for the first snapshots so the RNN
  /// state leaves its cold-start transient before any skipping; the
  /// paper's streams are hundreds of snapshots long, ours are short.
  SnapshotId skip_warmup_snapshots = 2;
  /// Keep every snapshot's final features in the result (memory-heavy
  /// for large graphs; benches that only need counts can disable).
  bool store_outputs = true;
  /// Measure redundant-byte statistics (costs an extra analysis pass).
  bool count_redundancy = true;
  /// Overlap the next window's overhead phase (classification, affected
  /// subgraph, O-CSR build) with the current window's GNN/RNN compute on
  /// a helper thread. Pure analysis of immutable snapshots, so outputs
  /// stay byte-identical to the serial schedule.
  bool pipeline_windows = true;
};

struct PhaseSeconds {
  double load = 0;      // data staging / feature loading
  double gnn = 0;       // aggregation + combination
  double rnn = 0;       // cell updates (+ similarity scores)
  double overhead = 0;  // classification, subgraph, O-CSR build
  double total() const { return load + gnn + rnn + overhead; }
};

struct EngineResult {
  /// H_t per processed snapshot (empty when store_outputs == false).
  std::vector<Matrix> outputs;
  /// Final hidden state after the last snapshot (n x rnn_hidden).
  Matrix final_hidden;
  OpCounts load_counts;
  OpCounts gnn_counts;
  OpCounts rnn_counts;
  PhaseSeconds seconds;
  std::size_t snapshots_processed = 0;

  OpCounts total_counts() const {
    OpCounts c = load_counts;
    c += gnn_counts;
    c += rnn_counts;
    return c;
  }
};

class ReferenceEngine {
 public:
  explicit ReferenceEngine(EngineOptions opts = {}) : opts_(opts) {}
  EngineResult run(const DynamicGraph& g, const DgnnWeights& weights) const;

 private:
  EngineOptions opts_;
};

/// RNN and skip-policy state carried across separate engine runs, so a
/// stream can be processed window by window with results identical to
/// one batch run (see nn/streaming.hpp). Default-constructed = cold
/// start; the engine populates every field on return.
struct StreamCarry {
  Matrix h;          // final features
  Matrix c;          // LSTM cell state (0 cols for GRU)
  Matrix cache;      // gate pre-activation cache
  Matrix z_applied;  // last input folded per vertex
  Matrix h_applied;  // last hidden state folded per vertex
  /// Number of snapshots processed before this run (drives warm-up and
  /// boundary-θ decisions).
  SnapshotId global_offset = 0;
  /// The snapshot immediately before this run's first one (empty
  /// feature matrix on cold start).
  std::optional<Snapshot> prev_snapshot;
};

/// Called once per window with the plan the engine executes, in window
/// order, on the thread that built the plan: with `pipeline_windows`,
/// every window after the first is planned on a prefetch helper, so the
/// hook's work overlaps the previous window's compute. Each call
/// happens-before the next and before run() returns
/// (the prefetch futures order them), so a hook may update its own
/// state without a lock.
using PlanHook = std::function<void(const WindowPlan&)>;

class ConcurrentEngine {
 public:
  explicit ConcurrentEngine(EngineOptions opts = {}) : opts_(opts) {}
  /// With a `carry`, resumes from and updates it (stateful streaming).
  EngineResult run(const DynamicGraph& g, const DgnnWeights& weights,
                   StreamCarry* carry = nullptr,
                   const PlanHook& on_plan = {}) const;

 private:
  EngineOptions opts_;
};

}  // namespace tagnn

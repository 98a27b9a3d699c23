// Generic in-order hardware pipeline cycle model.
//
// An N-item stream flows through S stages; stage s takes latency(s, i)
// cycles for item i. Completion recurrence (1-deep latches between
// stages, no structural hazards beyond stage occupancy):
//     done[s][i] = max(done[s-1][i], done[s][i-1]) + L(s, i)
// Total cycles = done[S-1][N-1]. Per-stage busy cycles are tracked for
// utilisation reporting. O(N*S) time, O(S) memory.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace tagnn {

class PipelineSim {
 public:
  /// `stage_names` fixes the number of stages.
  explicit PipelineSim(std::vector<std::string> stage_names);

  /// Feeds one item whose per-stage latencies are given by `lat`
  /// (lat.size() == num_stages(), each >= 1 cycle enforced). A braced
  /// list, so feeding allocates nothing per item.
  void feed(std::initializer_list<Cycle> lat);

  std::size_t num_stages() const { return names_.size(); }
  std::size_t items_fed() const { return items_; }

  /// Cycle at which the last fed item left the last stage.
  Cycle total_cycles() const;
  /// Busy cycles of one stage (sum of its latencies).
  Cycle stage_busy(std::size_t s) const { return busy_[s]; }
  /// Cycles the stage sat idle or back-pressured while the pipeline ran
  /// (total - busy); the per-stage stall attribution of Fig. 2(d).
  Cycle stage_stall(std::size_t s) const;
  const std::string& stage_name(std::size_t s) const { return names_[s]; }

  /// Per-stage busy/stall rollup for telemetry reports.
  struct StageStats {
    std::string name;
    Cycle busy = 0;
    Cycle stall = 0;
  };
  std::vector<StageStats> stage_stats() const;

 private:
  std::vector<std::string> names_;
  std::vector<Cycle> done_;  // completion time of the last item per stage
  std::vector<Cycle> busy_;
  std::size_t items_ = 0;
};

}  // namespace tagnn

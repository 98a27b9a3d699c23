// Task Dispatcher (paper section 4): assigns per-vertex computation
// tasks to DCUs, balancing by the number of neighbours so that no
// compute unit idles while another drains a hub vertex.
//
// `balanced = true` uses longest-processing-time-first greedy (the
// paper's degree-even division); `false` models a naive dispatcher for
// the Fig. 13(a) ablation that splits the tasks into contiguous
// per-DCU ranges in arrival order.
#pragma once

#include <cstddef>
#include <span>

#include "common/types.hpp"

namespace tagnn {

struct DispatchTask {
  VertexId vertex = 0;
  Cycle cycles = 1;  // DCU cycles this task occupies
};

struct DispatchResult {
  Cycle makespan = 0;        // max per-DCU busy cycles
  Cycle total_work = 0;      // sum of task cycles
  double utilization = 0.0;  // total_work / (makespan * num_dcus)
};

DispatchResult dispatch_tasks(std::span<const DispatchTask> tasks,
                              std::size_t num_dcus, bool balanced);

}  // namespace tagnn

#include "sim/pipeline.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace tagnn {

PipelineSim::PipelineSim(std::vector<std::string> stage_names)
    : names_(std::move(stage_names)),
      done_(names_.size(), 0),
      busy_(names_.size(), 0) {
  TAGNN_CHECK(!names_.empty());
}

void PipelineSim::feed(std::initializer_list<Cycle> lat) {
  TAGNN_CHECK_MSG(lat.size() == names_.size(),
                  "latency list arity " << lat.size() << " vs "
                                        << names_.size() << " stages");
  Cycle prev_stage_done = 0;
  std::size_t s = 0;
  for (const Cycle c : lat) {
    const Cycle l = std::max<Cycle>(1, c);
    const Cycle start = std::max(prev_stage_done, done_[s]);
    done_[s] = start + l;
    busy_[s] += l;
    prev_stage_done = done_[s];
    ++s;
  }
  ++items_;
}

Cycle PipelineSim::total_cycles() const {
  return done_.empty() ? 0 : done_.back();
}

Cycle PipelineSim::stage_stall(std::size_t s) const {
  const Cycle total = total_cycles();
  return total > busy_[s] ? total - busy_[s] : 0;
}

std::vector<PipelineSim::StageStats> PipelineSim::stage_stats() const {
  std::vector<StageStats> out;
  out.reserve(names_.size());
  for (std::size_t s = 0; s < names_.size(); ++s) {
    out.push_back({names_[s], busy_[s], stage_stall(s)});
  }
  return out;
}

}  // namespace tagnn

#include "tagnn/dispatcher.hpp"

#include <algorithm>
#include <functional>
#include <vector>

#include "common/check.hpp"
#include "obs/metrics.hpp"

namespace tagnn {
namespace {

// Task cycles are small integers (a few per neighbour row), so a
// counting sort orders them in O(n + max cycles); wider ranges fall back
// to a comparison sort.
constexpr Cycle kCountingSortMax = Cycle{1} << 20;

// Calls f(cycles, count) for each task length, longest first.
template <class F>
void for_each_length_longest_first(std::span<const DispatchTask> tasks,
                                   F&& f) {
  Cycle longest = 0;
  for (const auto& t : tasks) longest = std::max(longest, t.cycles);
  if (longest <= kCountingSortMax) {
    std::vector<std::size_t> count(longest + 1, 0);
    for (const auto& t : tasks) ++count[t.cycles];
    for (Cycle c = longest + 1; c-- > 0;) {
      if (count[c] > 0) f(c, count[c]);
    }
    return;
  }
  std::vector<Cycle> sorted;
  sorted.reserve(tasks.size());
  for (const auto& t : tasks) sorted.push_back(t.cycles);
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  for (const Cycle c : sorted) f(c, std::size_t{1});
}

// LPT step for `k` tasks of `c` cycles each: every task goes to the
// least-loaded DCU. `load` is kept ascending; only the multiset of loads
// matters, so equal loads may be taken in either order.
void assign_to_least_loaded(std::vector<Cycle>& load, Cycle c,
                            std::size_t k) {
  // While the spread exceeds c, place one task at a time: the least
  // loaded DCU takes it and moves to its sorted place.
  while (k > 0 && load.back() - load.front() > c) {
    const Cycle lifted = load.front() + c;
    const auto pos = std::upper_bound(load.begin() + 1, load.end(), lifted);
    std::move(load.begin() + 1, pos, load.begin());
    *(pos - 1) = lifted;
    --k;
  }
  // Within a spread of c, each task lifts the minimum to at least the
  // maximum, so the rest go round-robin in ascending load order: every
  // DCU takes k / m of them and the k % m least loaded one more.
  const std::size_t m = load.size();
  const std::size_t extra = k % m;
  for (std::size_t i = 0; i < m; ++i) {
    load[i] += c * static_cast<Cycle>(k / m + (i < extra ? 1 : 0));
  }
  std::rotate(load.begin(), load.begin() + static_cast<std::ptrdiff_t>(extra),
              load.end());
}

}  // namespace

DispatchResult dispatch_tasks(std::span<const DispatchTask> tasks,
                              std::size_t num_dcus, bool balanced) {
  TAGNN_CHECK(num_dcus >= 1);
  DispatchResult r;
  if (tasks.empty()) return r;

  std::vector<Cycle> load(num_dcus, 0);
  if (balanced) {
    // LPT greedy: biggest task to the least-loaded DCU. The loads depend
    // only on the sorted sequence of task cycles, not on which of two
    // equal tasks goes first, so tasks of one length are placed as a
    // batch.
    for_each_length_longest_first(tasks, [&](Cycle c, std::size_t k) {
      assign_to_least_loaded(load, c, k);
    });
  } else {
    // Naive: static contiguous range partitioning in arrival order —
    // each DCU owns a fixed slice of the vertex space, so degree mass
    // (hubs cluster in graph regions) lands unevenly.
    const std::size_t per = (tasks.size() + num_dcus - 1) / num_dcus;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      load[std::min(i / std::max<std::size_t>(per, 1), num_dcus - 1)] +=
          tasks[i].cycles;
    }
  }
  for (const auto& t : tasks) r.total_work += t.cycles;
  r.makespan = *std::max_element(load.begin(), load.end());
  r.utilization =
      static_cast<double>(r.total_work) /
      (static_cast<double>(r.makespan) * static_cast<double>(num_dcus));

  if (obs::telemetry_enabled()) {
    auto& reg = obs::MetricsRegistry::global();
    static const obs::MetricId kBalanced =
        reg.counter("tagnn.dispatch.pools_balanced");
    static const obs::MetricId kNaive =
        reg.counter("tagnn.dispatch.pools_naive");
    static const obs::MetricId kTasks =
        reg.counter("tagnn.dispatch.tasks");
    static const obs::MetricId kPoolSize =
        reg.histogram("tagnn.dispatch.pool_tasks");
    static const obs::MetricId kUtil =
        reg.histogram("tagnn.dispatch.pool_utilization");
    reg.add(balanced ? kBalanced : kNaive);
    reg.add(kTasks, tasks.size());
    reg.record(kPoolSize, static_cast<double>(tasks.size()));
    reg.record(kUtil, r.utilization);
  }
  return r;
}

}  // namespace tagnn

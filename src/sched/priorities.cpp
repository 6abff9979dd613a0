#include "sched/priorities.hpp"

#include <algorithm>

namespace hetsched {
namespace {

template <typename Cost>
std::vector<double> bottom_levels(const TaskGraph& g, Cost&& cost) {
  std::vector<double> bl(static_cast<std::size_t>(g.num_tasks()), 0.0);
  const std::vector<int> topo = g.topological_order();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const int id = *it;
    double succ_max = 0.0;
    for (const int s : g.successors(id))
      succ_max = std::max(succ_max, bl[static_cast<std::size_t>(s)]);
    bl[static_cast<std::size_t>(id)] = cost(g.task(id)) + succ_max;
  }
  return bl;
}

}  // namespace

std::vector<double> bottom_levels_fastest(const TaskGraph& g,
                                          const TimingTable& t) {
  return bottom_levels(g, [&](const Task& task) { return t.fastest(task.kernel); });
}

std::vector<double> bottom_levels_fastest(const TaskGraph& g,
                                          const Platform& p) {
  return bottom_levels(
      g, [&](const Task& task) { return p.fastest_time_at(task.kernel, task.nb); });
}
}  // namespace hetsched

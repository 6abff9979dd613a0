// Task priorities for list scheduling.
//
// The paper's dmdas uses the bottom level -- the longest path (in execution
// time) from a task to an exit task -- computed with the *fastest* execution
// time of each task over the resource classes (Section V-A).
#pragma once

#include <vector>

#include "core/task_graph.hpp"
#include "platform/platform.hpp"

namespace hetsched {

/// Bottom level of every task using the fastest per-kernel time.
std::vector<double> bottom_levels_fastest(const TaskGraph& g,
                                          const TimingTable& t);

/// Mixed-nb aware variant: durations come from Platform::fastest_time_at
/// with each task's own Task::nb, so graphs built from a TilePlan get
/// correctly scaled priorities. On uniform graphs (every nb == -1) this
/// produces bit-for-bit the same values as the TimingTable overload.
std::vector<double> bottom_levels_fastest(const TaskGraph& g,
                                          const Platform& p);

}  // namespace hetsched

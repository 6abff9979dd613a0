// Large-neighbourhood / local search improvement of a static schedule.
//
// Stands in for the long CP Optimizer runs of the paper (23 hours on the
// real study; seconds here): starting from an incumbent, it repeatedly
// perturbs the (mapping, per-worker order) representation -- moving a task
// to another worker/position or swapping two tasks -- re-prices the result
// with the earliest-start evaluator, and accepts improvements (plus a small
// simulated-annealing tolerance to escape plateaus).
#pragma once

#include "core/task_graph.hpp"
#include "platform/platform.hpp"
#include "sched/static_schedule.hpp"

namespace hetsched {

struct LnsOptions {
  double time_limit_s = 2.0;
  unsigned seed = 0;
  /// Simulated-annealing start temperature as a fraction of the seed
  /// makespan (0 = pure hill climbing).
  double initial_temperature = 0.02;
};

struct LnsResult {
  StaticSchedule schedule;
  double makespan_s = 0.0;
  long iterations = 0;
  long improvements = 0;
};

/// Improves `seed` (must be valid for g/p). Never returns a worse schedule.
LnsResult lns_improve(const TaskGraph& g, const Platform& p,
                      const StaticSchedule& seed, const LnsOptions& opt = {});

/// Communication-aware variant -- the paper's stated future work ("We are
/// currently extending the CP formulation to partially take data transfers
/// into account", Section V-C3): candidate schedules are priced by
/// replaying them in the full simulator on `p` *with* its PCIe model, so
/// the search optimizes the realizable makespan, transfers included.
/// `makespan_s` of the result is that simulated-with-communications value.
/// A candidate whose replay fails is priced as infeasible.
LnsResult lns_improve_with_comm(const TaskGraph& g, const Platform& p,
                                const StaticSchedule& seed,
                                const LnsOptions& opt = {});

}  // namespace hetsched

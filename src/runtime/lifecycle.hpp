// Task lifecycle bookkeeping shared by every backend: dependency
// countdown, the note_task_queued/pop load accounting schedulers rely on,
// completion tracking, and the starvation message.
//
// The lifecycle is deliberately unsynchronized: the DES backend is
// single-threaded and the wall-clock backends mutate it only under their
// runtime mutex. Methods are inline -- mark_done sits on the hot path of
// every backend.
#pragma once

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/task_graph.hpp"
#include "sim/scheduler.hpp"

namespace hetsched {

class TaskLifecycle {
 public:
  TaskLifecycle(const TaskGraph& g, int num_workers) : graph_(g) {
    pending_.resize(static_cast<std::size_t>(g.num_tasks()));
    noted_.assign(static_cast<std::size_t>(g.num_tasks()), {-1, 0.0});
    done_.assign(static_cast<std::size_t>(g.num_tasks()), 0);
    queued_load_.assign(static_cast<std::size_t>(num_workers), 0.0);
  }

  /// Initializes the dependency counters and pushes every source task to
  /// the scheduler, in task-id order (the order both pre-refactor runtimes
  /// used -- part of the bit-for-bit reproducibility contract).
  void seed(Scheduler& sched, SchedulerHost& host) {
    for (int id = 0; id < graph_.num_tasks(); ++id)
      pending_[static_cast<std::size_t>(id)] = graph_.in_degree(id);
    for (int id = 0; id < graph_.num_tasks(); ++id)
      if (pending_[static_cast<std::size_t>(id)] == 0)
        sched.on_task_ready(host, id);
  }

  /// A scheduler committed `task` to `worker`'s queue with estimate `est`.
  void note_queued(int task, int worker, double est) {
    queued_load_[static_cast<std::size_t>(worker)] += est;
    noted_[static_cast<std::size_t>(task)] = {worker, est};
  }

  /// Undoes the queued-load accounting made at push time (the task left
  /// the queue it was noted on).
  void on_pop(int task) {
    auto& note = noted_[static_cast<std::size_t>(task)];
    if (note.first >= 0) {
      auto& load = queued_load_[static_cast<std::size_t>(note.first)];
      load = std::max(0.0, load - note.second);
      note.first = -1;
    }
  }

  double queued_load(int worker) const {
    return queued_load_[static_cast<std::size_t>(worker)];
  }

  /// Marks `task` finished and appends every successor whose dependencies
  /// are now satisfied to `newly_ready` (in successor order). The caller
  /// pushes them to the scheduler -- keeping the push loop at the call
  /// site preserves the exact on_task_ready sequence of the pre-refactor
  /// runtimes.
  void mark_done(int task, std::vector<int>& newly_ready) {
    ++finished_;
    done_[static_cast<std::size_t>(task)] = 1;
    for (const int succ : graph_.successors(task))
      if (--pending_[static_cast<std::size_t>(succ)] == 0)
        newly_ready.push_back(succ);
  }

  bool done(int task) const {
    return done_[static_cast<std::size_t>(task)] != 0;
  }
  int finished() const { return finished_; }
  bool all_done() const { return finished_ == graph_.num_tasks(); }

  /// The starvation message both backends report: the policy, the
  /// ready-set size, one stuck task and the per-worker noted-queue depths.
  /// `running(id)` must tell whether task `id` is currently being
  /// attempted by some worker.
  template <typename RunningPred>
  std::string starvation_error(const std::string& policy, int num_workers,
                               RunningPred running) const {
    std::vector<int> depths(static_cast<std::size_t>(num_workers), 0);
    for (const auto& note : noted_)
      if (note.first >= 0) ++depths[static_cast<std::size_t>(note.first)];
    int stuck = -1;
    int ready = 0;
    for (int id = 0; id < graph_.num_tasks(); ++id) {
      if (done_[static_cast<std::size_t>(id)]) continue;
      if (pending_[static_cast<std::size_t>(id)] != 0) continue;
      if (running(id)) continue;
      ++ready;
      if (stuck < 0) stuck = id;
    }
    std::ostringstream os;
    os << "scheduler starvation (policy '" << policy << "'): " << ready
       << " ready task(s) will never run";
    if (stuck >= 0) os << ", first stuck task " << stuck;
    os << "; queue depths [";
    for (std::size_t w = 0; w < depths.size(); ++w)
      os << (w ? " " : "") << depths[w];
    os << "]";
    return os.str();
  }

 private:
  const TaskGraph& graph_;
  std::vector<int> pending_;
  std::vector<std::pair<int, double>> noted_;  // (worker, est) per task
  std::vector<double> queued_load_;            // per worker
  std::vector<char> done_;
  int finished_ = 0;
};

}  // namespace hetsched

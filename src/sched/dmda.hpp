// StarPU's dmda / dmdas policies (Section V-A).
//
// dmda ("deque model data aware"): every ready task is committed at push
// time to the worker with the minimum estimated completion time, counting
// the worker's expected availability, the data transfers the task would
// need on that worker, and the calibrated kernel time. Workers drain their
// queue in FIFO order.
//
// dmdas ("... sorted") additionally keeps each worker queue ordered by
// task priority (bottom level at fastest times), which makes it the paper's
// representative of HEFT.
//
// dmdar ("... ready") pops, among the queued tasks of a worker, the one
// whose inputs are closest to being resident on that worker's memory node
// (fewest estimated transfer seconds), reducing stalls on PCIe.
//
// All variants accept a WorkerFilter carrying static knowledge (§V-C3).
#pragma once

#include <deque>
#include <vector>

#include "sched/static_hints.hpp"
#include "sim/scheduler.hpp"

namespace hetsched {

class DmdaScheduler : public Scheduler {
 public:
  struct Options {
    /// Sort worker queues by priority (dmdas) instead of FIFO (dmda).
    bool sorted = false;
    /// Pop the most data-ready queued task first (dmdar). Mutually
    /// exclusive with `sorted`.
    bool data_ready = false;
    /// Per-task priorities; required when sorted (bottom levels).
    std::vector<double> priorities;
    /// Static-knowledge restriction of admissible workers.
    WorkerFilter filter;
  };

  DmdaScheduler() = default;
  explicit DmdaScheduler(Options opt) : opt_(std::move(opt)) {}

  void initialize(SchedulerHost& host) override;
  void on_task_ready(SchedulerHost& host, int task) override;
  std::vector<int> on_worker_dead(SchedulerHost& host, int worker) override;
  int pop_task(SchedulerHost& host, int worker) override;
  std::string name() const override {
    if (opt_.sorted) return "dmdas";
    return opt_.data_ready ? "dmdar" : "dmda";
  }

 private:
  double priority_of(int task) const {
    const auto id = static_cast<std::size_t>(task);
    return id < opt_.priorities.size() ? opt_.priorities[id] : 0.0;
  }

  Options opt_;
  std::vector<std::deque<int>> queues_;  // per worker
  std::vector<double> class_time_;  // on_task_ready scratch, per class
};

/// Convenience factory for the paper's dmdas: bottom-level priorities at
/// fastest times, optional static-knowledge filter.
DmdaScheduler make_dmdas(const TaskGraph& g, const Platform& p,
                         WorkerFilter filter = {});

/// Convenience factory for plain dmda with an optional filter.
DmdaScheduler make_dmda(WorkerFilter filter = {});

/// Convenience factory for dmdar (data-ready pops).
DmdaScheduler make_dmdar(WorkerFilter filter = {});

}  // namespace hetsched

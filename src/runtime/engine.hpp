// RunEngine: the backend-agnostic core of every run.
//
// One engine instance owns one run: it validates the (graph, platform,
// fault plan) triple, seeds the task lifecycle, hands control to a Backend
// (virtual-clock DES, wall-clock compute, wall-clock emulation) and
// assembles the RunReport. The public entry points in runtime/api.cpp
// (`simulate`, `emulate_with_scheduler`, `execute_with_scheduler`,
// `execute_plan_with_scheduler` and the two thread-pool forwarders) are
// thin wrappers over this class; the serving layer drives it directly
// with a serve::BatchComputeBackend.
#pragma once

#include "core/task_graph.hpp"
#include "obs/stream.hpp"
#include "platform/platform.hpp"
#include "runtime/backend.hpp"
#include "runtime/lifecycle.hpp"
#include "runtime/options.hpp"
#include "runtime/run_report.hpp"
#include "runtime/trace.hpp"
#include "sim/scheduler.hpp"

namespace hetsched {

class RunEngine {
 public:
  RunEngine(const TaskGraph& g, const Platform& p, Scheduler& sched,
            const RunOptions& opt);

  /// Validates, drives `backend` to completion and returns the report.
  /// Throws std::invalid_argument for uncalibrated kernels or a bad fault
  /// plan; backends may additionally throw SchedulerError / NumericError /
  /// FaultError (the DES backend does) or report failure through the
  /// RunReport taxonomy (the wall-clock backends do).
  RunReport run(Backend& backend);

  // ---- services for backends ----
  const TaskGraph& graph() const { return graph_; }
  const Platform& platform() const { return platform_; }
  Scheduler& scheduler() { return sched_; }
  const RunOptions& options() const { return opt_; }
  TaskLifecycle& lifecycle() { return lifecycle_; }
  Trace& trace() { return trace_; }
  RunReport& report() { return report_; }
  /// Streaming observability, or nullptr. Backends emit TraceEvents at the
  /// same sites where they record into the post-run trace / FaultStats.
  /// Producer lanes: worker w -> lane w; any driver/service thread -> lane
  /// num_workers (the engine opens num_workers + 1 lanes).
  obs::TraceStreamer* stream() { return opt_.stream; }
  /// Cooperative cancellation of this run, or nullptr (see
  /// runtime/cancel.hpp). Backends poll it at task boundaries.
  CancelToken* cancel() { return opt_.cancel; }

 private:
  void validate(const Backend& backend) const;

  const TaskGraph& graph_;
  const Platform& platform_;
  Scheduler& sched_;
  RunOptions opt_;
  TaskLifecycle lifecycle_;
  Trace trace_;
  RunReport report_;
};

}  // namespace hetsched

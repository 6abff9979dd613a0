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
//
// A backend tells the engine two kinds of things, each through one call:
//  - every compute, transfer and fault event goes through record(), which
//    tallies, traces and streams it;
//  - every run failure goes through fail(), which fills the report's
//    error_kind and error. No run failure is thrown.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "core/task_graph.hpp"
#include "obs/event.hpp"
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

  /// Validates, drives `backend` to completion or failure and returns the
  /// report. Throws std::invalid_argument for uncalibrated kernels or a
  /// bad fault plan; a run failure (starvation, numeric, fault, cancel)
  /// comes back as success = false with error_kind and error filled.
  RunReport run(Backend& backend);

  // ---- services for backends ----
  const TaskGraph& graph() const { return graph_; }
  const Platform& platform() const { return platform_; }
  Scheduler& scheduler() { return sched_; }
  const RunOptions& options() const { return opt_; }
  TaskLifecycle& lifecycle() { return lifecycle_; }
  RunReport& report() { return report_; }

  /// Records one event produced on streaming `lane`: worker w uses lane w;
  /// the DES loop and the fault-service thread use lane num_workers. A
  /// fault event is tallied into report().faults; a compute or transfer
  /// event is appended to the lane's trace buffer when record_trace is
  /// on; every event goes to the streamer when one is attached. One
  /// thread per lane at a time; wall-clock backends record fault events
  /// under their runtime lock (the tally is shared).
  void record(int lane, const obs::TraceEvent& e) {
    const auto l = static_cast<std::size_t>(lane);
    switch (e.kind) {
      case obs::TraceEvent::Kind::Compute:
        if (opt_.record_trace)
          lanes_[l].record_compute(
              {e.worker, e.task, e.kernel, e.start, e.end});
        break;
      case obs::TraceEvent::Kind::Transfer:
        if (opt_.record_trace)
          lanes_[l].record_transfer(
              {e.tile, e.from_node, e.to_node, e.start, e.end});
        break;
      case obs::TraceEvent::Kind::Fault:
        obs::tally_fault(report_.faults, e);
        break;
    }
    if (obs::TraceStreamer* const s = opt_.stream) s->emit(lane, e);
  }

  /// True when record() keeps or forwards compute and transfer events. A
  /// site that builds such an event only to record it checks this first,
  /// so an untraced, unstreamed run does no work for it.
  bool recording() const {
    return opt_.record_trace || opt_.stream != nullptr;
  }

  /// Ends the run as failed. The first call fills report().error_kind and
  /// error; later calls are ignored, so the root cause survives the
  /// cascade it triggers. The backend then stops driving; the engine
  /// keeps the partial counters, tallies and trace. Wall-clock backends
  /// call it under their runtime lock.
  void fail(RunErrorKind kind, std::string message) {
    if (failed()) return;
    report_.error_kind = kind;
    report_.error = std::move(message);
  }
  bool failed() const { return report_.error_kind != RunErrorKind::None; }

  /// Polls RunOptions::cancel: once the token has fired, fails the run as
  /// Cancelled or DeadlineExceeded and returns true.
  bool cancel_fired() {
    const CancelReason why =
        opt_.cancel != nullptr ? opt_.cancel->status() : CancelReason::kNone;
    if (why == CancelReason::kNone) return false;
    if (why == CancelReason::kDeadline)
      fail(RunErrorKind::DeadlineExceeded, "deadline exceeded: run aborted");
    else
      fail(RunErrorKind::Cancelled, "cancelled: run aborted");
    return true;
  }

 private:
  void validate(const Backend& backend) const;
  Trace merged_trace();

  const TaskGraph& graph_;
  const Platform& platform_;
  Scheduler& sched_;
  RunOptions opt_;
  TaskLifecycle lifecycle_;
  std::vector<Trace> lanes_;  ///< per-lane trace buffers, num_workers + 1
  RunReport report_;
};

/// The message of an exhausted retry budget, the same on every backend:
/// `task` failed `attempts` times, the last time because of `last_cause`.
std::string retry_budget_message(int task, int attempts,
                                 const char* last_cause);

/// The message of a run whose every worker died before it finished.
inline constexpr const char* kAllWorkersDeadMessage =
    "every worker died with unfinished tasks remaining";

}  // namespace hetsched

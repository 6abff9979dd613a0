// Real execution driven by the *same* Scheduler plug-ins as the simulator:
// a wall-clock SchedulerHost feeds push/pop decisions to worker threads
// that run the numeric Cholesky kernels. This is the StarPU experience in
// miniature -- one policy object, multiple backends (virtual and real
// time), all driven by the same RunEngine (see docs/runtime.md).
//
// The calibration platform provides the completion-time estimates the
// policy reasons with; execution itself is genuine wall-clock compute on
// shared memory (estimated_transfer_seconds is therefore 0, and the
// platform should be a homogeneous CPU profile whose worker count is at
// least `num_threads`).
#pragma once

#include "core/task_graph.hpp"
#include "core/tile_matrix.hpp"
#include "platform/platform.hpp"
#include "runtime/options.hpp"
#include "runtime/run_report.hpp"
#include "sim/scheduler.hpp"

namespace hetsched {

/// Factorizes `a` in place, executing the tasks of `g` on `num_threads`
/// real threads whose scheduling decisions come from `sched` (estimates
/// from `calibration`). The calibration platform must model exactly
/// `num_threads` workers -- a policy may queue tasks on any worker it can
/// see, and every modeled worker must exist for the queue to drain.
///
/// With a non-empty `opt.faults` plan, a watchdog thread injects the
/// planned worker deaths (cooperative: the numeric kernels are
/// non-idempotent, so a dying worker finishes its in-flight task before
/// retiring; deaths planned at time 0 land before any worker starts) and
/// pre-execution transient failures absorbed by the retry policy; the
/// watchdog per-task timeout only applies to emulated runs. An empty plan
/// (the default) takes exactly the plain code path.
///
/// Failures are reported through the result, not thrown: success = false
/// with error_kind Numeric (non-SPD pivot), Fault (recovery machinery
/// exhausted) or Scheduler (the policy starved ready tasks).
///
/// The wall-clock backend honours record_trace, faults, pack_cache,
/// stream and cancel of `opt` and ignores the DES modeling knobs.
RunReport execute_with_scheduler(TileMatrix& a, const TaskGraph& g,
                                 const Platform& calibration,
                                 Scheduler& sched, int num_threads,
                                 const RunOptions& opt = {});

/// Timing-emulation run: every worker thread *sleeps* for its calibrated
/// task duration (scaled by `time_scale`) instead of computing, so a
/// heterogeneous platform -- GPUs included -- can be "executed" with real
/// threads, real OS jitter and real lock contention, no numeric work.
/// This is the closest thing to the paper's actual heterogeneous runs that
/// is possible without the hardware (transfers are not emulated; compare
/// against no-communication simulations). One thread per platform worker.
/// The report's makespan_s is wall_seconds / time_scale, i.e. emulated
/// seconds directly comparable to a DES makespan.
///
/// With a non-empty `opt.faults` plan, the watchdog additionally cancels
/// attempts overrunning calibrated-duration x watchdog_timeout_factor
/// (emulated sleeps are sliced, hence cancellable) and deaths abort the
/// in-flight attempt, which is re-enqueued through the live scheduler.
RunReport emulate_with_scheduler(const TaskGraph& g,
                                 const Platform& calibration,
                                 Scheduler& sched, double time_scale,
                                 const RunOptions& opt = {});

}  // namespace hetsched

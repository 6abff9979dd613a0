// Discrete-event simulation of a task-based runtime on a heterogeneous
// node -- the paper's StarPU + SimGrid stand-in, now a thin wrapper over
// the runtime engine (see src/runtime/ and docs/runtime.md): a RunEngine
// driven by the DiscreteEventBackend. Workers execute tasks for their
// calibrated duration, tiles move across PCIe links (full-duplex, one h2d
// and one d2h channel per accelerator, staged through RAM for
// device-to-device), transfers overlap computation via prefetch on push,
// and the scheduling policy is an arbitrary Scheduler plug-in.
//
// Two execution flavours of the paper map to the options:
//   * "simulation mode": default options -- deterministic, zero overhead;
//   * "actual execution": per_task_overhead_s > 0 and noise_cv > 0 emulate
//     runtime overhead and system noise (10 seeded runs give the avg +/-
//     stddev error bars of Figures 3, 6 and 11).
#pragma once

#include "core/task_graph.hpp"
#include "platform/platform.hpp"
#include "runtime/options.hpp"
#include "runtime/run_report.hpp"
#include "sim/scheduler.hpp"

namespace hetsched {

/// Simulates the execution of `g` on `p` under policy `sched`.
///
/// A run that cannot finish comes back with success = false (check it
/// before reading makespan_s): RunErrorKind::Scheduler when the policy
/// starves ready tasks; with a fault plan, Fault on an unrecoverable
/// injected fault (retry budget exhausted, every worker dead, unrecoverable
/// sole-copy data loss) and Numeric for a forced POTRF failure; Cancelled
/// or DeadlineExceeded once RunOptions::cancel fires. makespan_s then
/// holds the virtual time reached. Throws std::invalid_argument only for
/// bad inputs (uncalibrated kernel, bad fault plan).
RunReport simulate(const TaskGraph& g, const Platform& p, Scheduler& sched,
                   const RunOptions& opt = {});

}  // namespace hetsched

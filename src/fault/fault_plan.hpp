// Fault model shared by the simulator and the real/emulated executors.
//
// A FaultPlan is a seeded, declarative description of everything that can
// go wrong during one run: permanent worker deaths, transient slowdown
// windows, per-task transient failure probability, and a forced POTRF
// numeric failure. The plan is *consumed* by the runtime (RunOptions /
// the scheduled executor); recovery semantics -- retry with exponential
// backoff, orphan re-enqueueing, static-knowledge remapping, sole-copy
// recomputation -- live in the runtimes themselves (see docs/faults.md).
//
// Default-off guarantee: an empty plan (the default) must leave every
// runtime bit-for-bit identical to a run without the fault subsystem; the
// runtimes guard every fault code path behind FaultPlan::empty().
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace hetsched {

/// Permanent failure: `worker` stops executing at `time_s` and never comes
/// back. In the simulator an accelerator worker's private memory node dies
/// with it (replicas are lost); in the executor the death is cooperative
/// for numeric work and immediate for emulated (slept) tasks.
struct WorkerDeath {
  int worker = -1;
  double time_s = 0.0;
};

/// Transient degradation: tasks *starting* on `worker` inside
/// [start_s, end_s) run `factor` times slower (factor > 1).
struct SlowdownWindow {
  int worker = -1;
  double start_s = 0.0;
  double end_s = 0.0;
  double factor = 1.0;
};

/// Retry budget and exponential backoff applied to transient task failures
/// (injected failures and watchdog timeouts).
struct RetryPolicy {
  int max_retries = 3;             ///< attempts beyond the first
  double backoff_base_s = 1e-3;    ///< delay before retry #1
  double backoff_multiplier = 2.0; ///< delay *= multiplier per retry
};

/// Everything injected into one run. Seeded: two runs with equal plans and
/// equal schedulers produce identical fault sequences in the simulator.
struct FaultPlan {
  std::vector<WorkerDeath> deaths;
  std::vector<SlowdownWindow> slowdowns;
  /// Probability that any single task attempt fails transiently.
  double transient_failure_prob = 0.0;
  /// Force a numeric (non-SPD) failure of the POTRF at this panel step
  /// (-1 = never). Numeric failures are not retryable: the run fails with
  /// RunErrorKind::Numeric and the tile and pivot in its error.
  int potrf_fail_step = -1;
  /// Seed of the transient-failure draw (independent of RunOptions noise).
  unsigned seed = 0;
  RetryPolicy retry;
  /// Executor watchdog: a task attempt exceeding calibrated duration x
  /// this factor is cancelled and retried (0 = watchdog timeout disabled).
  double watchdog_timeout_factor = 0.0;
  /// Rebuild sole-copy tiles lost with a dead memory node by replaying
  /// their writer lineage (recursively; assumes the initial tile contents
  /// are checkpointed in host RAM at submission, as fault-tolerant dense
  /// solvers do). When false, any needed sole-copy loss fails the run
  /// (RunErrorKind::Fault) instead.
  bool allow_recompute = true;

  /// True iff the plan injects nothing (the default).
  bool empty() const;

  /// Checks the plan against a worker count; returns "" or a description
  /// of the first problem (bad worker id, non-positive factor, ...).
  std::string validate(int num_workers) const;

  /// Product of the factors of every slowdown window of `worker` covering
  /// `time_s` (1.0 when none does).
  double slowdown_factor(int worker, double time_s) const;

  /// Backoff delay before retry number `failed_attempts` (1-based).
  double backoff_s(int failed_attempts) const;
};

/// Fault/recovery accounting, reported by RunReport::faults.
struct FaultStats {
  std::int64_t worker_deaths = 0;
  std::int64_t transient_failures = 0;  ///< failed attempts (injected)
  std::int64_t retries = 0;             ///< re-executions scheduled
  std::int64_t tasks_requeued = 0;      ///< orphaned by a death, re-pushed
  std::int64_t slowdown_hits = 0;       ///< attempts stretched by a window
  std::int64_t watchdog_timeouts = 0;   ///< attempts cancelled as overdue
  std::int64_t sole_copy_losses = 0;    ///< tiles lost with a dead node
  std::int64_t recomputations = 0;      ///< lost tiles rebuilt from lineage
  double recovery_time_s = 0.0;         ///< backoff delays + recompute time
  bool degraded = false;                ///< at least one permanent death
};

}  // namespace hetsched

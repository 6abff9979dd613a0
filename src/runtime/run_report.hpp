// Unified outcome of one run of a task graph through any runtime backend.
//
// Historically the simulator returned a SimResult and the executors an
// ExecResult, with overlapping-but-diverging fields. runtime::RunReport
// merges them: every backend fills the subset it can measure (the DES
// backend has no meaningful wall clock beyond host overhead; the compute
// backend moves no modeled tiles). The legacy SimResult / ExecResult
// spellings are gone; everything speaks RunReport.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "fault/fault_plan.hpp"
#include "runtime/trace.hpp"

namespace hetsched {
namespace runtime {

/// Coarse taxonomy of run failures, aligned with the CLI exit codes
/// (Scheduler -> 3, Numeric -> 4, Fault -> 5, Cancelled/DeadlineExceeded
/// -> 6). Every backend, the DES included, reports each kind the same way:
/// through the returned report, never by throwing.
enum class RunErrorKind {
  None,              ///< success (or not yet run)
  Scheduler,         ///< the policy starved ready tasks
  Numeric,           ///< a kernel failed numerically (non-SPD POTRF pivot)
  Fault,             ///< an injected fault exhausted the recovery machinery
  Cancelled,         ///< RunOptions::cancel fired (explicit cancel)
  DeadlineExceeded,  ///< RunOptions::cancel tripped its wall-clock deadline
};

/// Outcome of one run (any backend).
struct RunReport {
  /// True iff every task completed. On false, error_kind and error say
  /// why, and makespan_s, the counters, fault tallies and trace describe
  /// the partial run up to the failure.
  bool success = false;
  /// Virtual makespan, seconds: simulated time for the DES backend,
  /// wall_seconds for the compute backend, wall_seconds / time_scale for
  /// the emulation backend. On a failed run, the time the run reached.
  double makespan_s = 0.0;
  /// Host wall-clock duration of the run (drive + join overhead).
  double wall_seconds = 0.0;
  Trace trace{0};
  std::int64_t transfer_hops = 0;
  double bytes_transferred = 0.0;
  /// LRU evictions performed under accel_memory_bytes pressure (DES only).
  std::int64_t evictions = 0;
  /// Times the capacity had to be exceeded (nothing evictable; DES only).
  std::int64_t capacity_overflows = 0;
  /// Fault injection / recovery accounting (all zero without a plan).
  FaultStats faults;
  /// Always zero: tile kernels pack per call into worker scratch and no
  /// packed-operand cache exists (see docs/kernels.md). Kept only because
  /// benchmark/hetsched_bench.cpp still reads them.
  std::int64_t pack_hits = 0;
  std::int64_t pack_misses = 0;
  std::int64_t pack_evictions = 0;
  std::int64_t pack_bytes = 0;
  /// Events the streaming observability layer dropped because a ring was
  /// full (0 when no streamer was attached; see docs/observability.md).
  /// When 0, the streamed event set equals the post-run trace.
  std::int64_t dropped_events = 0;
  /// makespan_s / bound_s per bound model requested through
  /// RunOptions::bound_models (>= 1 for a valid lower bound; empty when no
  /// models were selected or the run failed). The ratio is the same double
  /// division the MetricsAggregator's streamed bound_ratios and any
  /// post-run recomputation perform, so the three agree bit-for-bit
  /// whenever dropped_events == 0.
  std::map<std::string, double> bound_ratios;
  /// Per-policy observability counters drained from Scheduler::stats()
  /// after the run (ws steal count, hybrid static-pool hits / boundary
  /// crossings, ...). Empty for policies with nothing to report.
  std::map<std::string, std::int64_t> scheduler_stats;
  /// Structured description of the failure ("" on success).
  std::string error;
  RunErrorKind error_kind = RunErrorKind::None;
  /// Which backend produced this report ("des", "compute", "emulation").
  std::string backend;
};

}  // namespace runtime

// RunReport predates the runtime namespace at most call sites; the
// unqualified names remain first-class citizens of hetsched.
using runtime::RunErrorKind;
using runtime::RunReport;

}  // namespace hetsched

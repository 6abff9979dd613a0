// Knobs of one run through the RunEngine (formerly SimOptions, before the
// runtime unification): the DES backend consumes every field; the
// wall-clock backends consume record_trace, faults and stream and ignore
// the modeling knobs. Prefetch is not a knob: the DES always fetches a
// task's inputs when it is queued on a worker, as StarPU does.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "fault/fault_plan.hpp"
#include "runtime/cancel.hpp"

namespace hetsched {

namespace obs {
class TraceStreamer;
}

struct RunOptions {
  /// Fixed runtime overhead added to every task duration (seconds).
  double per_task_overhead_s = 0.0;
  /// Coefficient of variation of multiplicative Gaussian noise on task
  /// durations (0 = deterministic).
  double noise_cv = 0.0;
  /// Seed for the noise generator.
  unsigned noise_seed = 0;
  /// Record per-task Gantt data (cheap; disable for huge sweeps). The
  /// post-run trace is O(tasks); for arbitrarily long runs turn it off and
  /// attach a streamer instead (memory bounded by ring capacity).
  bool record_trace = true;
  /// Byte capacity of each accelerator memory node (0 = unlimited). Under
  /// pressure, least-recently-used clean replicas are evicted; sole copies
  /// and pinned inputs of committed tasks never are (overflows of the
  /// capacity are counted instead of modeled -- see DataManager).
  std::size_t accel_memory_bytes = 0;
  /// Injected faults and the retry policy absorbing them (see
  /// fault/fault_plan.hpp and docs/faults.md). An empty plan -- the
  /// default -- leaves the run bit-for-bit identical to one without the
  /// fault subsystem.
  FaultPlan faults;
  /// Streaming observability (see src/obs and docs/observability.md):
  /// when non-null, every compute/transfer/fault event a backend records
  /// goes into the streamer's lock-free rings as it happens; the engine runs
  /// begin_run/end_run around the drive and reports ring overflow through
  /// RunReport::dropped_events. Not owned; must outlive the run.
  obs::TraceStreamer* stream = nullptr;
  /// Cooperative cancellation / deadline of this run (see runtime/cancel.hpp
  /// and docs/serving.md): backends poll the token at task boundaries (and
  /// inside sliced emulated attempts) and fail the run with
  /// RunErrorKind::Cancelled / DeadlineExceeded once it fires. In-flight
  /// numeric kernels finish their current tile first -- cancellation never
  /// tears a half-written tile. Not owned; must outlive the run. nullptr
  /// (the default) leaves every run bit-for-bit unchanged.
  CancelToken* cancel = nullptr;
  /// Bound models (bounds/bound_model.hpp registry names, e.g. "mixed",
  /// "alap") to evaluate against this run: the engine validates the names
  /// up front (std::invalid_argument on an unknown one), evaluates each
  /// model on this run's graph and platform after a successful drive, and
  /// fills RunReport::bound_ratios with makespan_s / bound_s per model.
  /// Empty (the default) skips bound evaluation entirely.
  std::vector<std::string> bound_models;
};

}  // namespace hetsched

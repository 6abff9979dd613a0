// The unit of the streaming observability layer: one flat, fixed-size,
// trivially-copyable event. Workers move these through lock-free SPSC
// rings (obs/ring.hpp) to a sink thread, so the type must stay POD -- no
// strings, no heap, no destructors on the hot path.
//
// Three kinds mirror what the runtime records:
//  * Compute  -- one executed task attempt (== runtime::ComputeRecord);
//  * Transfer -- one completed link hop   (== runtime::TransferRecord);
//  * Fault    -- one fault/recovery occurrence, one event per FaultStats
//                counter increment; RunReport::faults and the streamed
//                MetricsAggregator tally both count them through
//                tally_fault(), so the two agree exactly.
//
// Backends hand every event to RunEngine::record (runtime/engine.hpp),
// which tallies, traces and streams it; nothing else records an event.
#pragma once

#include <cstdint>

#include "core/kernel_types.hpp"

namespace hetsched {
struct FaultStats;
}

namespace hetsched::obs {

/// Fault sub-kinds, one per FaultStats counter. `value` carries the
/// seconds added to FaultStats::recovery_time_s (backoff delay of a
/// Retry, replay time of a Recomputation; 0 elsewhere).
enum class FaultEventKind : std::uint8_t {
  WorkerDeath,
  TransientFailure,
  Retry,
  TaskRequeued,
  SlowdownHit,
  WatchdogTimeout,
  SoleCopyLoss,
  Recomputation,
};

/// Stable lower-case name ("worker_death", "retry", ...).
const char* to_string(FaultEventKind k) noexcept;

struct TraceEvent {
  enum class Kind : std::uint8_t { Compute, Transfer, Fault };

  Kind kind = Kind::Compute;
  FaultEventKind fault = FaultEventKind::WorkerDeath;  ///< Fault only
  Kernel kernel = Kernel::POTRF;                       ///< Compute only
  std::int32_t worker = -1;  ///< Compute / Fault (-1 when not applicable)
  std::int32_t task = -1;    ///< Compute / Fault
  std::int32_t tile = -1;    ///< Transfer / Fault (lost or rebuilt tile)
  std::int32_t from_node = -1;  ///< Transfer
  std::int32_t to_node = -1;    ///< Transfer
  double start = 0.0;  ///< Compute/Transfer start; Fault occurrence time
  double end = 0.0;    ///< Compute/Transfer end
  double value = 0.0;  ///< Fault: seconds counted into recovery_time_s

  static TraceEvent compute(int worker, int task, Kernel k, double start,
                            double end) noexcept {
    TraceEvent e;
    e.kind = Kind::Compute;
    e.kernel = k;
    e.worker = worker;
    e.task = task;
    e.start = start;
    e.end = end;
    return e;
  }

  static TraceEvent transfer(int tile, int from_node, int to_node,
                             double start, double end) noexcept {
    TraceEvent e;
    e.kind = Kind::Transfer;
    e.tile = tile;
    e.from_node = from_node;
    e.to_node = to_node;
    e.start = start;
    e.end = end;
    return e;
  }

  static TraceEvent fault_event(FaultEventKind fk, double when,
                                int worker = -1, int task = -1, int tile = -1,
                                double value = 0.0) noexcept {
    TraceEvent e;
    e.kind = Kind::Fault;
    e.fault = fk;
    e.worker = worker;
    e.task = task;
    e.tile = tile;
    e.start = when;
    e.end = when;
    e.value = value;
    return e;
  }
};

/// Counts fault event `e` into `stats`: one counter increment, plus
/// `e.value` into recovery_time_s for Retry and Recomputation (and the
/// degraded flag for WorkerDeath). Non-fault events are ignored.
void tally_fault(FaultStats& stats, const TraceEvent& e) noexcept;

}  // namespace hetsched::obs

// Backend interface of the RunEngine: a time source plus a drive loop.
//
// The engine owns everything backend-agnostic (validation, task lifecycle,
// the event and failure paths into the report); a Backend supplies the
// clock and the execution substrate -- virtual-clock discrete events, a
// wall-clock thread pool running numeric kernels, or a wall-clock thread
// pool sleeping calibrated durations. See docs/runtime.md for the full
// contract.
#pragma once

namespace hetsched {

class RunEngine;

class Backend {
 public:
  virtual ~Backend() = default;

  /// Report label ("des", "compute", "emulation").
  virtual const char* name() const = 0;

  /// Context prefix of validation/exception messages ("simulate",
  /// "scheduled executor") -- kept per-backend so pre-refactor error
  /// strings survive the refactor.
  virtual const char* error_prefix() const = 0;

  /// Runs the engine's graph to completion or failure. Events go through
  /// RunEngine::record and failures through RunEngine::fail; nothing a run
  /// can fail of is thrown. The backend fills report().makespan_s (the
  /// time reached, on failure too) and any backend-specific stats; the
  /// engine fills success, wall_seconds, trace, fault tallies and the
  /// backend label.
  virtual void drive(RunEngine& engine) = 0;
};

}  // namespace hetsched

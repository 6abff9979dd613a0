// Wall-clock backends: a thread pool of one OS thread per modeled worker,
// driven by the same Scheduler/TaskLifecycle machinery as the DES backend.
//
// Two substrates share one drive loop:
//  - ComputeBackend, the one numeric backend, runs the kernels on the
//    blocks of a PlanStorage: tile matrices, TilePlans and serving
//    batches alike (the "actual execution" curves of the paper,
//    homogeneous CPU only);
//  - EmulationBackend sleeps each task's calibrated duration scaled by
//    `time_scale` (heterogeneous platforms without the hardware), with
//    cancellable attempts so the fault watchdog can abort overruns.
//
// Unlike the DES backend, wall-clock failures (numeric, starvation, fault
// budget) are reported through RunReport::error_kind instead of thrown:
// exceptions cannot cross the worker threads.
#pragma once

#include <atomic>
#include <string>

#include "core/plan_storage.hpp"
#include "kernels/pack_cache.hpp"
#include "runtime/backend.hpp"

namespace hetsched {

class ThreadedBackend : public Backend {
 public:
  void drive(RunEngine& engine) final;

 protected:
  /// Substrate setup before the worker pool starts / teardown after it
  /// joins and the report is assembled (the compute backend resolves its
  /// pack cache here and writes the cache counters into the report).
  virtual void on_drive_start(RunEngine&) {}
  virtual void on_drive_end(RunEngine&) {}

  /// True when in-flight attempts can be aborted mid-run (sliced sleeps
  /// can; non-idempotent numeric kernels cannot).
  virtual bool cancellable() const = 0;

  /// One task attempt on `worker`. `cancel` is non-null only for
  /// cancellable attempts. A numeric failure is reported through `error`
  /// and a false return. Must be called WITHOUT the runtime lock.
  virtual bool run_task(RunEngine& engine, int worker, int task,
                        const std::atomic<bool>* cancel,
                        std::string* error) = 0;

  /// Maps the measured wall-clock duration to the reported makespan.
  virtual double makespan_from(double elapsed_s) const = 0;
};

/// Executes the numeric kernels on the blocks of `blocks` (factorized in
/// place).
class ComputeBackend : public ThreadedBackend {
 public:
  explicit ComputeBackend(PlanStorage& blocks) : blocks_(blocks) {}
  const char* name() const override { return "compute"; }
  const char* error_prefix() const override { return "scheduled executor"; }

 protected:
  void on_drive_start(RunEngine& engine) override;
  void on_drive_end(RunEngine& engine) override;
  bool cancellable() const override { return false; }
  bool run_task(RunEngine& engine, int worker, int task,
                const std::atomic<bool>* cancel, std::string* error) override;
  double makespan_from(double elapsed_s) const override { return elapsed_s; }

 private:
  PlanStorage& blocks_;
  /// Resolved per run from RunOptions::pack_cache (nullptr = disabled).
  kernels::PackedTileCache* cache_ = nullptr;
  kernels::PackCacheStats cache_baseline_;
};

/// Sleeps each task's calibrated duration scaled by `time_scale`.
class EmulationBackend final : public ThreadedBackend {
 public:
  explicit EmulationBackend(double time_scale) : time_scale_(time_scale) {}
  const char* name() const override { return "emulation"; }
  const char* error_prefix() const override { return "scheduled executor"; }

 protected:
  bool cancellable() const override { return true; }
  bool run_task(RunEngine& engine, int worker, int task,
                const std::atomic<bool>* cancel, std::string* error) override;
  double makespan_from(double elapsed_s) const override {
    return elapsed_s / time_scale_;
  }

 private:
  double time_scale_;
};

}  // namespace hetsched

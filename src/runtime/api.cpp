// The public entry points, each a thin wrapper: construct a RunEngine,
// pick a Backend, run. Both numeric routes drive the one ComputeBackend,
// over the caller's tiles or a TilePlan's own blocks, and the two
// thread-pool variants forward to them. Argument validation that predates
// the engine (thread counts, time scale, calibration shape) stays here so
// the original error messages survive. The plan executor also keeps the
// last plan's lowered graph and one idle PlanStorage across calls.
#include <memory>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "exec/parallel_executor.hpp"
#include "exec/plan_executor.hpp"
#include "exec/scheduled_executor.hpp"
#include "platform/calibration.hpp"
#include "runtime/des_backend.hpp"
#include "runtime/engine.hpp"
#include "runtime/threaded_backend.hpp"
#include "sched/priority_sched.hpp"
#include "sim/simulator.hpp"

namespace hetsched {

RunReport simulate(const TaskGraph& g, const Platform& p, Scheduler& sched,
                   const RunOptions& opt) {
  RunEngine engine(g, p, sched, opt);
  DiscreteEventBackend backend;
  return engine.run(backend);
}

RunReport execute_with_scheduler(TileMatrix& a, const TaskGraph& g,
                                 const Platform& calibration, Scheduler& sched,
                                 int num_threads, const RunOptions& opt) {
  if (num_threads <= 0)
    throw std::invalid_argument("execute_with_scheduler: num_threads <= 0");
  if (calibration.num_workers() != num_threads)
    throw std::invalid_argument(
        "execute_with_scheduler: calibration platform must model exactly "
        "num_threads workers (policies may queue tasks on any modeled "
        "worker)");
  PlanStorage blocks({&a});
  RunEngine engine(g, calibration, sched, opt);
  ComputeBackend backend(blocks);
  return engine.run(backend);
}

RunReport emulate_with_scheduler(const TaskGraph& g,
                                 const Platform& calibration, Scheduler& sched,
                                 double time_scale, const RunOptions& opt) {
  if (time_scale <= 0.0)
    throw std::invalid_argument("emulate_with_scheduler: time_scale <= 0");
  RunEngine engine(g, calibration, sched, opt);
  EmulationBackend backend(time_scale);
  return engine.run(backend);
}

namespace {

/// The run options of the thread-pool entry points, which pair them with
/// a homogeneous calibration sized to the pool (every kernel calibrated)
/// and the historical central priority queue.
RunOptions pool_options(const ExecOptions& opt) {
  RunOptions ropt;
  ropt.record_trace = opt.record_trace;
  ropt.cancel = opt.cancel;
  return ropt;
}

/// The lowering of one TilePlan: its graph and the handle directory its
/// storage is laid out by. Immutable once built, so calls share it.
struct LoweredPlan {
  explicit LoweredPlan(const TilePlan& p)
      : plan(p), graph(build_cholesky_dag_plan(p, &layout)) {}
  TilePlan plan;
  PlanLayout layout;
  TaskGraph graph;
};

/// The process-wide plan slot: the last returned plan's lowering and one
/// idle PlanStorage sized for it. A storage above glibc's mmap threshold
/// is mapped, page-faulted, zeroed and unmapped on every allocation, which
/// costs as much as a small factorization; the slot keeps one alive.
struct PlanSlot {
  std::mutex mu;
  std::shared_ptr<const LoweredPlan> lowered;
  std::unique_ptr<PlanStorage> idle;
};

PlanSlot& plan_slot() {
  static PlanSlot slot;
  return slot;
}

/// Checks the slot's storage out for one call when the slot holds `plan`
/// and its storage is idle; otherwise lowers and allocates privately
/// (reusing the slot's lowering when only the storage is busy). The
/// destructor hands the storage back on every exit path: whichever
/// storage returns last replaces the slot's.
class PlanLease {
 public:
  explicit PlanLease(const TilePlan& plan) {
    PlanSlot& slot = plan_slot();
    {
      std::lock_guard<std::mutex> lock(slot.mu);
      if (slot.lowered && slot.lowered->plan == plan) {
        lowered_ = slot.lowered;
        storage_ = std::move(slot.idle);
      }
    }
    if (!lowered_) lowered_ = std::make_shared<const LoweredPlan>(plan);
    if (!storage_) storage_ = std::make_unique<PlanStorage>(lowered_->layout);
  }
  ~PlanLease() {
    PlanSlot& slot = plan_slot();
    std::lock_guard<std::mutex> lock(slot.mu);
    std::swap(slot.lowered, lowered_);
    std::swap(slot.idle, storage_);
    // The displaced lowering and storage are freed after the unlock.
  }
  PlanLease(const PlanLease&) = delete;
  PlanLease& operator=(const PlanLease&) = delete;

  const TaskGraph& graph() const { return lowered_->graph; }
  PlanStorage& storage() { return *storage_; }

 private:
  std::shared_ptr<const LoweredPlan> lowered_;
  std::unique_ptr<PlanStorage> storage_;
};

}  // namespace

RunReport execute_plan_with_scheduler(TileMatrix& a, const TilePlan& plan,
                                      const Platform& calibration,
                                      Scheduler& sched, int num_threads,
                                      const RunOptions& opt) {
  if (num_threads <= 0)
    throw std::invalid_argument("execute_plan_with_scheduler: num_threads <= 0");
  if (calibration.num_workers() != num_threads)
    throw std::invalid_argument(
        "execute_plan_with_scheduler: calibration platform must model "
        "exactly num_threads workers");
  PlanLease lease(plan);
  PlanStorage& storage = lease.storage();
  storage.import_from(a);
  RunEngine engine(lease.graph(), calibration, sched, opt);
  ComputeBackend backend(storage);
  RunReport report = engine.run(backend);
  // A failed run leaves `a` at its input contents: the plan blocks hold a
  // partial factorization nothing downstream should consume.
  if (report.success) storage.export_to(a);
  return report;
}

RunReport execute_plan_parallel(TileMatrix& a, const TilePlan& plan,
                                const ExecOptions& opt) {
  if (opt.num_threads <= 0)
    throw std::invalid_argument("execute_plan_parallel: num_threads <= 0");
  const Platform calibration = homogeneous_platform(opt.num_threads);
  CentralPriorityScheduler sched(opt.priorities);
  return execute_plan_with_scheduler(a, plan, calibration, sched,
                                     opt.num_threads, pool_options(opt));
}

RunReport execute_parallel(TileMatrix& a, const TaskGraph& g,
                           const ExecOptions& opt) {
  if (opt.num_threads <= 0)
    throw std::invalid_argument("execute_parallel: num_threads <= 0");
  const Platform calibration = homogeneous_platform(opt.num_threads);
  CentralPriorityScheduler sched(opt.priorities);
  return execute_with_scheduler(a, g, calibration, sched, opt.num_threads,
                                pool_options(opt));
}

}  // namespace hetsched

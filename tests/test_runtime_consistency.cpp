// Cross-backend consistency of the unified runtime: the discrete-event
// backend must reproduce its golden makespans bit-for-bit, and the
// wall-clock emulation backend must agree with it on the task-to-worker
// mapping (exactly, under a fixed schedule) and on the makespan (within a
// jitter envelope). Also pins the failure contract every backend shares
// (the same RunErrorKind and message in the report, never an exception)
// and the backend labels stamped into every RunReport.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/cholesky_dag.hpp"
#include "cp/list_schedule.hpp"
#include "exec/scheduled_executor.hpp"
#include "obs/sink.hpp"
#include "obs/stream.hpp"
#include "platform/calibration.hpp"
#include "runtime/experiment.hpp"
#include "sched/eager_sched.hpp"
#include "sched/fixed_sched.hpp"
#include "sched/scheduler_registry.hpp"
#include "sim/simulator.hpp"

namespace hetsched {
namespace {

// Reference makespans of the DES backend on the mirage platform with
// default options, recorded from the pre-refactor simulator. These are
// EXPECT_EQ on doubles on purpose: the engine extraction must not perturb
// a single floating-point operation.
struct Golden {
  int n;
  const char* sched;
  double makespan_s;
};
constexpr Golden kGolden[] = {
    {10, "random", 1.6135425857246219},
    {10, "dmda", 0.53937724345309834},
    {10, "dmdas", 0.50469137950325538},
    {20, "random", 7.4342167577525977},
    {20, "dmda", 2.8806076134072667},
    {20, "dmdas", 2.8328393825898157},
};

TEST(RuntimeConsistency, DesReproducesGoldenMakespansBitForBit) {
  const Platform p = mirage_platform();
  for (const Golden& gold : kGolden) {
    const TaskGraph g = build_cholesky_dag(gold.n);
    auto s = sched::make_scheduler(gold.sched, g, p, /*seed=*/0);
    const RunReport r = simulate(g, p, *s);
    EXPECT_EQ(r.makespan_s, gold.makespan_s)
        << "n=" << gold.n << " sched=" << gold.sched;
    EXPECT_EQ(r.backend, "des");
  }
}

TEST(RuntimeConsistency, EmulationMatchesDesMappingUnderFixedSchedule) {
  // Same static schedule driven through both clocks: the virtual-clock
  // backend and the wall-clock emulation backend must place every task on
  // the worker the schedule names, and land on comparable makespans.
  const int n = 5;
  const TaskGraph g = build_cholesky_dag(n);
  const Platform p = mirage_platform().without_communication();
  const StaticSchedule plan = list_schedule(g, p);
  ASSERT_TRUE(plan.validate(g, p).empty());

  FixedScheduleScheduler des_sched(plan);
  const RunReport sim = simulate(g, p, des_sched);
  ASSERT_EQ(sim.trace.compute().size(),
            static_cast<std::size_t>(g.num_tasks()));
  for (const ComputeRecord& c : sim.trace.compute())
    EXPECT_EQ(c.worker, plan.entry_for(c.task).worker) << "task " << c.task;

  const double scale = 0.05;
  FixedScheduleScheduler emu_sched(plan);
  const RunReport r = emulate_with_scheduler(g, p, emu_sched, scale);
  ASSERT_TRUE(r.success) << r.error;
  ASSERT_EQ(r.trace.compute().size(), static_cast<std::size_t>(g.num_tasks()));
  for (const ComputeRecord& c : r.trace.compute())
    EXPECT_EQ(c.worker, plan.entry_for(c.task).worker) << "task " << c.task;

  // Virtual-time makespan (wall / scale): sleeps cannot undershoot the
  // calibrated durations, and the upper envelope absorbs OS jitter even
  // on a loaded machine.
  EXPECT_GT(r.makespan_s, sim.makespan_s * 0.9);
  EXPECT_LT(r.makespan_s, sim.makespan_s * 3.0 + 0.5 / scale);
}

// A policy that accepts ready tasks and never hands them out: the engine's
// starvation detector, not a deadlock, must end the run.
class BlackHoleScheduler final : public Scheduler {
 public:
  void on_task_ready(SchedulerHost&, int) override {}
  std::vector<int> on_worker_dead(SchedulerHost&, int) override { return {}; }
  int pop_task(SchedulerHost&, int) override { return -1; }
  std::string name() const override { return "black-hole"; }
};

// The three public routes of one run: the DES, the emulation backend and
// the compute backend (which factorizes `a`).
enum class Route { Simulate, Emulate, Execute };

const char* route_name(Route r) {
  switch (r) {
    case Route::Simulate: return "simulate";
    case Route::Emulate: return "emulate_with_scheduler";
    case Route::Execute: return "execute_with_scheduler";
  }
  return "?";
}

// A 3x3-tile Cholesky on two homogeneous workers through `route`, its
// events streamed into `agg`.
RunReport run_route(Route route, Scheduler& sched, RunOptions opt,
                    TileMatrix& a, obs::MetricsAggregator& agg) {
  constexpr int kWorkers = 2;
  const TaskGraph g = build_cholesky_dag(a.n_tiles(), a.nb());
  const Platform p = homogeneous_platform(kWorkers);
  obs::TraceStreamer streamer;
  streamer.add_sink(&agg);
  opt.stream = &streamer;
  switch (route) {
    case Route::Simulate: return simulate(g, p, sched, opt);
    case Route::Emulate:
      return emulate_with_scheduler(g, p, sched, /*time_scale=*/1e-3, opt);
    case Route::Execute:
      return execute_with_scheduler(a, g, p, sched, kWorkers, opt);
  }
  return {};
}

struct FailureCase {
  const char* name;
  std::vector<Route> routes;
  RunErrorKind kind;
  std::string error;  ///< the message every route must report
  bool starve = false;          ///< run under BlackHoleScheduler
  FaultPlan faults;
  bool cancelled = false;       ///< a CancelToken fired before the run
  bool indefinite = false;      ///< tile (1, 1) of the input is not SPD
};

std::vector<FailureCase> failure_cases() {
  const std::vector<Route> all = {Route::Simulate, Route::Emulate,
                                  Route::Execute};
  std::vector<FailureCase> cases;
  {
    FailureCase c{"starvation", all, RunErrorKind::Scheduler,
                  "scheduler starvation (policy 'black-hole'): 1 ready "
                  "task(s) will never run, first stuck task 0; queue depths "
                  "[0 0]"};
    c.starve = true;
    cases.push_back(c);
  }
  {
    FailureCase c{"every worker dead at t = 0", all, RunErrorKind::Fault,
                  "every worker died with unfinished tasks remaining"};
    c.faults.deaths = {{0, 0.0}, {1, 0.0}};
    cases.push_back(c);
  }
  {
    // Only the first POTRF is ready: it fails its first attempt and both
    // retries.
    FailureCase c{"retry budget exhausted", all, RunErrorKind::Fault,
                  "retry budget exhausted: task 0 failed 3 time(s) (last: "
                  "injected transient failure)"};
    c.faults.transient_failure_prob = 1.0;
    c.faults.retry.max_retries = 2;
    cases.push_back(c);
  }
  {
    FailureCase c{"cancelled", all, RunErrorKind::Cancelled,
                  "cancelled: run aborted"};
    c.cancelled = true;
    cases.push_back(c);
  }
  {
    FailureCase c{"forced POTRF failure", {Route::Simulate},
                  RunErrorKind::Numeric,
                  "POTRF on tile (1, 1): non-positive-definite pivot 1"};
    c.faults.potrf_fail_step = 1;
    cases.push_back(c);
  }
  {
    FailureCase c{"non-SPD tile", {Route::Execute}, RunErrorKind::Numeric,
                  "POTRF on tile (1, 1): non-positive-definite pivot 1"};
    c.indefinite = true;
    cases.push_back(c);
  }
  return cases;
}

// One failure taxonomy on every backend: each failure comes back as
// success == false with the same RunErrorKind and message on every route
// that can produce it, and the report's fault tally equals the streamed
// one.
TEST(RuntimeConsistency, EveryBackendReportsTheSameFailureTaxonomy) {
  for (const FailureCase& c : failure_cases()) {
    for (const Route route : c.routes) {
      SCOPED_TRACE(std::string(c.name) + " via " + route_name(route));
      std::unique_ptr<Scheduler> sched;
      if (c.starve)
        sched = std::make_unique<BlackHoleScheduler>();
      else
        sched = std::make_unique<EagerScheduler>();
      RunOptions opt;
      opt.faults = c.faults;
      CancelToken token;
      if (c.cancelled) {
        token.cancel();
        opt.cancel = &token;
      }
      TileMatrix a = TileMatrix::synthetic_spd(3, 16, 5);
      if (c.indefinite) a.tile(1, 1)[0] = -1.0;
      obs::MetricsAggregator agg;
      const RunReport r = run_route(route, *sched, opt, a, agg);
      EXPECT_FALSE(r.success);
      EXPECT_EQ(r.error_kind, c.kind);
      EXPECT_EQ(r.error, c.error);
      EXPECT_TRUE(r.bound_ratios.empty());
      ASSERT_EQ(r.dropped_events, 0);
      const FaultStats streamed = agg.snapshot().faults;
      EXPECT_EQ(r.faults.worker_deaths, streamed.worker_deaths);
      EXPECT_EQ(r.faults.transient_failures, streamed.transient_failures);
      EXPECT_EQ(r.faults.retries, streamed.retries);
      EXPECT_EQ(r.faults.tasks_requeued, streamed.tasks_requeued);
      EXPECT_EQ(r.faults.slowdown_hits, streamed.slowdown_hits);
      EXPECT_EQ(r.faults.watchdog_timeouts, streamed.watchdog_timeouts);
      EXPECT_EQ(r.faults.sole_copy_losses, streamed.sole_copy_losses);
      EXPECT_EQ(r.faults.recomputations, streamed.recomputations);
      EXPECT_DOUBLE_EQ(r.faults.recovery_time_s, streamed.recovery_time_s);
      EXPECT_EQ(r.faults.degraded, streamed.degraded);
    }
  }
}

TEST(RuntimeConsistency, BackendLabelsIdentifyTheDriver) {
  const int n = 3, nb = 16;
  const TaskGraph g = build_cholesky_dag(n, nb);

  {
    const Platform p = mirage_platform();
    auto s = sched::make_scheduler("dmda", g, p);
    EXPECT_EQ(simulate(g, p, *s).backend, "des");
  }
  {
    const int threads = 2;
    const Platform p = homogeneous_platform(threads);
    TileMatrix a = TileMatrix::random_spd(n, nb, 11);
    auto s = sched::make_scheduler("eager", g, p);
    const RunReport r = execute_with_scheduler(a, g, p, *s, threads);
    ASSERT_TRUE(r.success);
    EXPECT_EQ(r.backend, "compute");
  }
  {
    const Platform p = mirage_platform().without_communication();
    auto s = sched::make_scheduler("dmda", g, p);
    const RunReport r = emulate_with_scheduler(g, p, *s, 0.02);
    ASSERT_TRUE(r.success);
    EXPECT_EQ(r.backend, "emulation");
  }
}

}  // namespace
}  // namespace hetsched

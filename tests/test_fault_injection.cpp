// Fault injection and recovery: the default-off guarantee, worker deaths
// with orphan re-enqueueing and sole-copy lineage recomputation, transient
// failures against the retry budget, forced numeric failures, the degraded
// static-knowledge paths, and the emulated-executor watchdog.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "core/cholesky_dag.hpp"
#include "core/numeric_error.hpp"
#include "exec/scheduled_executor.hpp"
#include "fault/fault_error.hpp"
#include "fault/fault_plan.hpp"
#include "fault/recovery.hpp"
#include "platform/calibration.hpp"
#include "sched/dmda.hpp"
#include "sched/eager_sched.hpp"
#include "sched/fixed_sched.hpp"
#include "sched/static_hints.hpp"
#include "sim/simulator.hpp"
#include "tests/test_util.hpp"

namespace hetsched {
namespace {

using testutil::chain4;
using testutil::fork_join;
using testutil::independent_gemms;
using testutil::tiny_hetero;
using testutil::tiny_homog;

/// Rebuilds a StaticSchedule from the last (i.e. successful) compute
/// record of every task, so a recovered run can be checked against the
/// schedule validator: no overlap per worker, dependencies respected.
StaticSchedule schedule_from_trace(const Trace& tr, int num_tasks) {
  std::vector<const ComputeRecord*> last(static_cast<std::size_t>(num_tasks),
                                         nullptr);
  for (const ComputeRecord& r : tr.compute())
    last[static_cast<std::size_t>(r.task)] = &r;
  StaticSchedule s;
  for (int t = 0; t < num_tasks; ++t) {
    EXPECT_NE(last[static_cast<std::size_t>(t)], nullptr)
        << "task " << t << " never completed";
    if (last[static_cast<std::size_t>(t)] == nullptr) continue;
    const ComputeRecord& r = *last[static_cast<std::size_t>(t)];
    s.entries.push_back({t, r.worker, r.start});
  }
  return s;
}

// ---- FaultPlan basics ------------------------------------------------------

TEST(FaultPlan, EmptyDetection) {
  FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  // Retry policy and the recompute switch describe *recovery*, not
  // injection; changing them must not arm the fault paths.
  plan.retry.max_retries = 9;
  plan.allow_recompute = false;
  EXPECT_TRUE(plan.empty());
  plan.deaths.push_back({0, 1.0});
  EXPECT_FALSE(plan.empty());
}

TEST(FaultPlan, ValidateRejectsBadPlans) {
  FaultPlan plan;
  EXPECT_EQ(plan.validate(2), "");
  plan.deaths.push_back({5, 1.0});
  EXPECT_NE(plan.validate(2), "");
  plan.deaths.clear();
  plan.slowdowns.push_back({0, 2.0, 1.0, 2.0});  // end <= start
  EXPECT_NE(plan.validate(2), "");
  plan.slowdowns.clear();
  plan.transient_failure_prob = 1.5;
  EXPECT_NE(plan.validate(2), "");
}

TEST(FaultPlan, SlowdownFactorsCompose) {
  FaultPlan plan;
  plan.slowdowns.push_back({0, 0.0, 10.0, 2.0});
  plan.slowdowns.push_back({0, 5.0, 10.0, 3.0});
  EXPECT_DOUBLE_EQ(plan.slowdown_factor(0, 1.0), 2.0);
  EXPECT_DOUBLE_EQ(plan.slowdown_factor(0, 7.0), 6.0);
  EXPECT_DOUBLE_EQ(plan.slowdown_factor(0, 10.0), 1.0);  // end exclusive
  EXPECT_DOUBLE_EQ(plan.slowdown_factor(1, 7.0), 1.0);
}

TEST(FaultPlan, BackoffGrowsExponentially) {
  FaultPlan plan;  // base 1e-3, multiplier 2
  EXPECT_DOUBLE_EQ(plan.backoff_s(1), 1e-3);
  EXPECT_DOUBLE_EQ(plan.backoff_s(3), 4e-3);
}

// ---- Default-off guarantee -------------------------------------------------

TEST(FaultInjection, EmptyPlanIsBitForBitIdentical) {
  const TaskGraph g = build_cholesky_dag(8);
  const Platform p = mirage_platform();
  DmdaScheduler base = make_dmdas(g, p);
  const RunReport ref = simulate(g, p, base);

  DmdaScheduler with_empty = make_dmdas(g, p);
  RunOptions opt;
  opt.faults = FaultPlan{};  // explicit empty plan
  const RunReport r = simulate(g, p, with_empty, opt);

  EXPECT_EQ(r.makespan_s, ref.makespan_s);  // bit-for-bit, not NEAR
  EXPECT_EQ(r.transfer_hops, ref.transfer_hops);
  ASSERT_EQ(r.trace.compute().size(), ref.trace.compute().size());
  for (std::size_t i = 0; i < r.trace.compute().size(); ++i) {
    EXPECT_EQ(r.trace.compute()[i].task, ref.trace.compute()[i].task);
    EXPECT_EQ(r.trace.compute()[i].worker, ref.trace.compute()[i].worker);
    EXPECT_EQ(r.trace.compute()[i].start, ref.trace.compute()[i].start);
    EXPECT_EQ(r.trace.compute()[i].end, ref.trace.compute()[i].end);
  }
  EXPECT_EQ(r.faults.worker_deaths, 0);
  EXPECT_EQ(r.faults.retries, 0);
  EXPECT_FALSE(r.faults.degraded);
}

TEST(FaultInjection, PostCompletionDeathChangesNothing) {
  const TaskGraph g = build_cholesky_dag(8);
  const Platform p = mirage_platform();
  DmdaScheduler base = make_dmdas(g, p);
  const RunReport ref = simulate(g, p, base);

  DmdaScheduler sched = make_dmdas(g, p);
  RunOptions opt;
  opt.faults.deaths.push_back({0, 10.0 * ref.makespan_s});
  const RunReport r = simulate(g, p, sched, opt);
  EXPECT_EQ(r.makespan_s, ref.makespan_s);
  EXPECT_EQ(r.faults.worker_deaths, 0);  // the run ends before the death
}

// ---- Permanent deaths in the simulator -------------------------------------

TEST(FaultInjection, GpuDeathBeforeSteadyStateRecovers) {
  const TaskGraph g = build_cholesky_dag(8);
  const Platform p = mirage_platform();
  DmdaScheduler base = make_dmdas(g, p);
  const double healthy = simulate(g, p, base).makespan_s;

  DmdaScheduler sched = make_dmdas(g, p);
  RunOptions opt;
  opt.faults.deaths.push_back({9, 0.1 * healthy});  // first GPU, early
  const RunReport r = simulate(g, p, sched, opt);

  EXPECT_EQ(r.faults.worker_deaths, 1);
  EXPECT_TRUE(r.faults.degraded);
  const StaticSchedule s = schedule_from_trace(r.trace, g.num_tasks());
  EXPECT_EQ(s.validate(g, p), "");
  // The recovered makespan is bounded below by the degraded-platform
  // mixed bound -- the yardstick reported by the bench and the CLI.
  EXPECT_GE(r.makespan_s, degraded_mixed_bound_s(8, p, {9}) - 1e-9);
}

TEST(FaultInjection, GpuDeathInSteadyStateRecomputesSoleCopies) {
  const TaskGraph g = build_cholesky_dag(8);
  const Platform p = mirage_platform();
  DmdaScheduler base = make_dmdas(g, p);
  const double healthy = simulate(g, p, base).makespan_s;

  DmdaScheduler sched = make_dmdas(g, p);
  RunOptions opt;
  opt.faults.deaths.push_back({9, 0.7 * healthy});  // deep in the run
  const RunReport r = simulate(g, p, sched, opt);

  EXPECT_EQ(r.faults.worker_deaths, 1);
  // Mid-run the GPU memory holds sole copies; losing the node forces
  // lineage recomputation, which the accounting must show.
  EXPECT_GT(r.faults.sole_copy_losses, 0);
  EXPECT_GE(r.faults.recomputations, r.faults.sole_copy_losses);
  EXPECT_GT(r.faults.recovery_time_s, 0.0);
  const StaticSchedule s = schedule_from_trace(r.trace, g.num_tasks());
  EXPECT_EQ(s.validate(g, p), "");
}

TEST(FaultInjection, CpuDeathLosesNoData) {
  const TaskGraph g = build_cholesky_dag(8);
  const Platform p = mirage_platform();
  DmdaScheduler base = make_dmdas(g, p);
  const double healthy = simulate(g, p, base).makespan_s;

  DmdaScheduler sched = make_dmdas(g, p);
  RunOptions opt;
  opt.faults.deaths.push_back({0, 0.3 * healthy});  // CPU: shared RAM node
  const RunReport r = simulate(g, p, sched, opt);
  EXPECT_EQ(r.faults.worker_deaths, 1);
  EXPECT_EQ(r.faults.sole_copy_losses, 0);
  EXPECT_EQ(r.faults.recomputations, 0);
  const StaticSchedule s = schedule_from_trace(r.trace, g.num_tasks());
  EXPECT_EQ(s.validate(g, p), "");
}

TEST(FaultInjection, AllWorkersDeadAborts) {
  const TaskGraph g = chain4();
  const Platform p = tiny_homog(2);
  EagerScheduler sched;
  RunOptions opt;
  opt.faults.deaths.push_back({0, 1.0});
  opt.faults.deaths.push_back({1, 1.5});
  try {
    simulate(g, p, sched, opt);
    FAIL() << "expected FaultError";
  } catch (const FaultError& e) {
    EXPECT_EQ(e.kind(), FaultError::Kind::AllWorkersDead);
  }
}

TEST(FaultInjection, RecomputeDisabledAbortsOnSoleCopyLoss) {
  const TaskGraph g = build_cholesky_dag(8);
  const Platform p = mirage_platform();
  DmdaScheduler base = make_dmdas(g, p);
  const double healthy = simulate(g, p, base).makespan_s;

  DmdaScheduler sched = make_dmdas(g, p);
  RunOptions opt;
  opt.faults.deaths.push_back({9, 0.7 * healthy});
  opt.faults.allow_recompute = false;
  try {
    simulate(g, p, sched, opt);
    FAIL() << "expected FaultError";
  } catch (const FaultError& e) {
    EXPECT_EQ(e.kind(), FaultError::Kind::UnrecoverableDataLoss);
    EXPECT_GE(e.tile(), 0);
  }
}

// ---- Static knowledge under degradation ------------------------------------

TEST(FaultInjection, HintedKernelsFallBackWhenGpuClassDies) {
  const TaskGraph g = build_cholesky_dag(8);
  const Platform p = mirage_platform();
  // Force GEMMs onto the GPU class (class 1), then kill every GPU: the
  // hint becomes unsatisfiable and dmda must fall back to the CPUs.
  DmdaScheduler sched = make_dmda(hints::force_kernel_to_class(
      Kernel::GEMM, /*cls=*/1));
  const double healthy = [&] {
    DmdaScheduler h = make_dmda(
        hints::force_kernel_to_class(Kernel::GEMM, 1));
    return simulate(g, p, h).makespan_s;
  }();
  RunOptions opt;
  opt.faults.deaths.push_back({9, 0.2 * healthy});
  opt.faults.deaths.push_back({10, 0.2 * healthy});
  opt.faults.deaths.push_back({11, 0.2 * healthy});
  const RunReport r = simulate(g, p, sched, opt);
  EXPECT_EQ(r.faults.worker_deaths, 3);
  const StaticSchedule s = schedule_from_trace(r.trace, g.num_tasks());
  EXPECT_EQ(s.validate(g, p), "");
  // Every compute after the deaths must be on a CPU worker.
  for (const ComputeRecord& c : r.trace.compute())
    if (c.start > 0.2 * healthy + 1e-9) EXPECT_LT(c.worker, 9);
}

TEST(FaultInjection, FixedScheduleRemapsDeadWorkerSequence) {
  const TaskGraph g = build_cholesky_dag(4);
  const Platform p = tiny_hetero();
  DmdaScheduler capture = make_dmdas(g, p);
  const RunReport healthy = simulate(g, p, capture);
  const StaticSchedule plan = schedule_from_trace(healthy.trace,
                                                  g.num_tasks());
  ASSERT_EQ(plan.validate(g, p), "");

  FixedScheduleScheduler replay(plan);
  RunOptions opt;
  opt.faults.deaths.push_back({2, 0.3 * healthy.makespan_s});  // the GPU
  const RunReport r = simulate(g, p, replay, opt);
  EXPECT_EQ(r.faults.worker_deaths, 1);
  const StaticSchedule s = schedule_from_trace(r.trace, g.num_tasks());
  EXPECT_EQ(s.validate(g, p), "");
  // The dead worker's remaining prescribed tasks ran on survivors.
  for (const StaticSchedule::Entry& e : s.entries) {
    if (e.start > 0.3 * healthy.makespan_s + 1e-9) EXPECT_NE(e.worker, 2);
  }
}

// ---- Transient failures and retry budget -----------------------------------

TEST(FaultInjection, TransientFailuresRetryToCompletion) {
  const TaskGraph g = build_cholesky_dag(8);
  const Platform p = mirage_platform();
  DmdaScheduler sched = make_dmdas(g, p);
  RunOptions opt;
  opt.faults.transient_failure_prob = 0.2;
  opt.faults.seed = 42;
  opt.faults.retry.max_retries = 50;
  const RunReport r = simulate(g, p, sched, opt);
  EXPECT_GT(r.faults.transient_failures, 0);
  // Under a generous budget every injected failure earns one retry.
  EXPECT_EQ(r.faults.retries, r.faults.transient_failures);
  EXPECT_GT(r.faults.recovery_time_s, 0.0);
  EXPECT_FALSE(r.faults.degraded);  // no permanent loss
  const StaticSchedule s = schedule_from_trace(r.trace, g.num_tasks());
  EXPECT_EQ(s.validate(g, p), "");
}

TEST(FaultInjection, RetryBudgetExhaustionAborts) {
  const TaskGraph g = chain4();
  const Platform p = tiny_homog(2);
  EagerScheduler sched;
  RunOptions opt;
  opt.faults.transient_failure_prob = 1.0;  // every attempt fails
  opt.faults.retry.max_retries = 2;
  try {
    simulate(g, p, sched, opt);
    FAIL() << "expected FaultError";
  } catch (const FaultError& e) {
    EXPECT_EQ(e.kind(), FaultError::Kind::RetryBudgetExhausted);
    EXPECT_GE(e.task(), 0);
    EXPECT_EQ(e.attempts(), 3);  // initial attempt + 2 retries
  }
}

TEST(FaultInjection, FaultSequencesAreSeeded) {
  const TaskGraph g = build_cholesky_dag(6);
  const Platform p = mirage_platform();
  RunOptions opt;
  opt.faults.transient_failure_prob = 0.15;
  opt.faults.seed = 7;
  opt.faults.retry.max_retries = 50;
  DmdaScheduler a = make_dmdas(g, p);
  DmdaScheduler b = make_dmdas(g, p);
  const RunReport ra = simulate(g, p, a, opt);
  const RunReport rb = simulate(g, p, b, opt);
  EXPECT_EQ(ra.makespan_s, rb.makespan_s);
  EXPECT_EQ(ra.faults.transient_failures, rb.faults.transient_failures);
}

// ---- Forced numeric failure ------------------------------------------------

TEST(FaultInjection, ForcedPotrfFailureReportsTile) {
  const TaskGraph g = build_cholesky_dag(8);
  const Platform p = mirage_platform();
  DmdaScheduler sched = make_dmdas(g, p);
  RunOptions opt;
  opt.faults.potrf_fail_step = 3;
  try {
    simulate(g, p, sched, opt);
    FAIL() << "expected NumericError";
  } catch (const NumericError& e) {
    EXPECT_EQ(e.kernel(), Kernel::POTRF);
    EXPECT_EQ(e.tile_i(), 3);
    EXPECT_EQ(e.tile_j(), 3);
    EXPECT_GE(e.pivot(), 1);  // 1-based, LAPACK info convention
  }
}

// ---- Structured starvation diagnostics -------------------------------------

class NullScheduler final : public Scheduler {
 public:
  void on_task_ready(SchedulerHost&, int) override {}
  int pop_task(SchedulerHost&, int) override { return -1; }
  std::string name() const override { return "null"; }
};

TEST(FaultInjection, SchedulerErrorCarriesDiagnostics) {
  const TaskGraph g = chain4();
  const Platform p = tiny_homog(2);
  NullScheduler sched;
  try {
    simulate(g, p, sched);
    FAIL() << "expected SchedulerError";
  } catch (const SchedulerError& e) {
    EXPECT_EQ(e.policy(), "null");
    EXPECT_GE(e.ready_count(), 1);
    EXPECT_EQ(e.queue_depths().size(), 2u);
    EXPECT_NE(std::string(e.what()).find("null"), std::string::npos);
  }
  // Backward compatibility: SchedulerError still is a std::logic_error.
  EXPECT_THROW(simulate(g, p, sched), std::logic_error);
}

// ---- Emulated executor: watchdog, deaths, retries --------------------------

TEST(FaultInjection, EmulatedTransientFailuresRecover) {
  const TaskGraph g = fork_join(6);
  const Platform p = tiny_homog(2);
  EagerScheduler sched;
  FaultPlan plan;
  plan.transient_failure_prob = 0.3;
  plan.seed = 7;
  plan.retry.max_retries = 50;
  RunOptions opt;
  opt.faults = plan;
  const RunReport r =
      emulate_with_scheduler(g, p, sched, /*time_scale=*/1e-3, opt);
  EXPECT_TRUE(r.success) << r.error;
  // Every injected failure is absorbed by exactly one retry; equality
  // holds whatever the thread interleaving (and trivially when both are
  // zero), so the assertion is flake-free.
  EXPECT_EQ(r.faults.retries, r.faults.transient_failures);
  EXPECT_EQ(r.faults.watchdog_timeouts, 0);
}

TEST(FaultInjection, EmulatedWorkerDeathRecovers) {
  const TaskGraph g = independent_gemms(6);
  const Platform p = tiny_homog(2);
  EagerScheduler sched;
  FaultPlan plan;
  plan.deaths.push_back({1, 0.004});  // mid-first-task at time_scale 1e-3
  RunOptions opt;
  opt.faults = plan;
  const RunReport r =
      emulate_with_scheduler(g, p, sched, /*time_scale=*/1e-3, opt);
  EXPECT_TRUE(r.success) << r.error;
  EXPECT_EQ(r.faults.worker_deaths, 1);
  EXPECT_TRUE(r.faults.degraded);
  // Every task completed despite the death; the trace's last record per
  // task is its successful attempt.
  const StaticSchedule s = schedule_from_trace(r.trace, g.num_tasks());
  EXPECT_EQ(s.entries.size(), static_cast<std::size_t>(g.num_tasks()));
}

TEST(FaultInjection, EmulatedWatchdogTimeoutExhaustsBudget) {
  const TaskGraph g = chain4();
  const Platform p = tiny_homog(2);
  EagerScheduler sched;
  FaultPlan plan;
  // Deadline = calibrated x factor = microseconds, while the emulated
  // attempt sleeps calibrated x time_scale = tens of milliseconds: every
  // attempt times out and the budget runs dry.
  plan.watchdog_timeout_factor = 1e-4;
  plan.retry.max_retries = 2;
  RunOptions opt;
  opt.record_trace = false;
  opt.faults = plan;
  const RunReport r =
      emulate_with_scheduler(g, p, sched, /*time_scale=*/1e-2, opt);
  EXPECT_FALSE(r.success);
  EXPECT_GT(r.faults.watchdog_timeouts, 0);
  EXPECT_NE(r.error.find("retry budget exhausted"), std::string::npos)
      << r.error;
}

// ---- Wall-clock compute: deaths planned at the start ----------------------

// A death planned at t = 0 is injected before any worker starts, so it can
// never lose a race against the pool: with every worker dead at 0.0 no
// task runs and the run ends as a Fault. Looped to catch a reintroduced
// race.
TEST(FaultInjection, DeathsAtTimeZeroPrecedeEveryWorker) {
  const TaskGraph g = build_cholesky_dag(4, 32);
  const Platform calib = homogeneous_platform(2);
  RunOptions opt;
  opt.faults.deaths.push_back({0, 0.0});
  opt.faults.deaths.push_back({1, 0.0});
  for (int iter = 0; iter < 50; ++iter) {
    TileMatrix a = TileMatrix::synthetic_spd(4, 32, 1);
    EagerScheduler sched;
    const RunReport r = execute_with_scheduler(a, g, calib, sched, 2, opt);
    ASSERT_FALSE(r.success) << "iteration " << iter;
    EXPECT_EQ(r.error_kind, RunErrorKind::Fault) << "iteration " << iter;
    EXPECT_TRUE(r.trace.compute().empty()) << "iteration " << iter;
  }
}

// ---- Property test: seeded random plans stay valid -------------------------

TEST(FaultInjection, SeededRandomPlansCompleteValidatorClean) {
  const TaskGraph g = build_cholesky_dag(8);
  const Platform p = mirage_platform();
  for (unsigned seed = 0; seed < 5; ++seed) {
    std::mt19937 r(seed);
    DmdaScheduler base = make_dmdas(g, p);
    const double healthy = simulate(g, p, base).makespan_s;

    RunOptions opt;
    opt.faults.seed = seed;
    opt.faults.retry.max_retries = 50;
    std::uniform_real_distribution<double> frac(0.05, 0.95);
    std::uniform_int_distribution<int> gpu(9, 11);
    opt.faults.deaths.push_back({gpu(r), frac(r) * healthy});
    std::uniform_int_distribution<int> cpu(0, 8);
    const double s0 = frac(r) * healthy;
    opt.faults.slowdowns.push_back({cpu(r), s0, s0 + 0.3 * healthy, 3.0});
    std::uniform_real_distribution<double> prob(0.0, 0.08);
    opt.faults.transient_failure_prob = prob(r);

    DmdaScheduler sched = make_dmdas(g, p);
    const RunReport res = simulate(g, p, sched, opt);
    EXPECT_EQ(res.faults.worker_deaths, 1) << "seed " << seed;
    const StaticSchedule sfi = schedule_from_trace(res.trace, g.num_tasks());
    EXPECT_EQ(sfi.validate(g, p), "") << "seed " << seed;
  }
}

}  // namespace
}  // namespace hetsched

// Hybrid static/dynamic scheduler: exact degeneration to dmda (fraction 0)
// and to the fixed-schedule replay (fraction 1, stealing off), validity and
// bound-consistency of the mid fractions, boundary-crossing stealing, the
// stats surface, and worker-death remapping of both halves.
#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bounds/bound_model.hpp"
#include "core/cholesky_dag.hpp"
#include "cp/cp_solver.hpp"
#include "fault/fault_plan.hpp"
#include "platform/calibration.hpp"
#include "sched/fixed_sched.hpp"
#include "sched/hybrid_sched.hpp"
#include "sched/scheduler_registry.hpp"
#include "sim/simulator.hpp"
#include "tests/test_util.hpp"

namespace hetsched {
namespace {

/// Rebuilds a StaticSchedule from the last (successful) compute record of
/// every task so a run can be checked by the schedule validator.
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

void expect_identical_traces(const RunReport& a, const RunReport& b,
                             const std::string& what) {
  EXPECT_EQ(a.makespan_s, b.makespan_s) << what;  // bit-for-bit, not NEAR
  ASSERT_EQ(a.trace.compute().size(), b.trace.compute().size()) << what;
  for (std::size_t i = 0; i < a.trace.compute().size(); ++i) {
    EXPECT_EQ(a.trace.compute()[i].task, b.trace.compute()[i].task) << what;
    EXPECT_EQ(a.trace.compute()[i].worker, b.trace.compute()[i].worker)
        << what;
    EXPECT_EQ(a.trace.compute()[i].start, b.trace.compute()[i].start) << what;
  }
}

// ---- Exact degeneration endpoints ------------------------------------------

TEST(HybridScheduler, FractionZeroIsBitForBitDmda) {
  for (const int n : {4, 6, 8, 10}) {
    const TaskGraph g = build_cholesky_dag(n);
    const Platform p = mirage_platform().without_communication();
    auto dmda = sched::make_scheduler("dmda", g, p);
    auto hyb = sched::make_scheduler("hybrid:static_fraction=0", g, p);
    expect_identical_traces(simulate(g, p, *dmda), simulate(g, p, *hyb),
                            "n=" + std::to_string(n));
  }
}

TEST(HybridScheduler, FractionOneWithoutStealingIsFixedReplay) {
  for (const int n : {4, 6, 8}) {
    const TaskGraph g = build_cholesky_dag(n);
    const Platform p = mirage_platform().without_communication();
    CpOptions copt;
    copt.time_limit_s = 0.2;
    const CpResult cp = cp_solve(g, p, copt);
    ASSERT_EQ(cp.schedule.validate(g, p), "");

    FixedScheduleScheduler replay(cp.schedule);
    sched::HybridScheduler::Options hopt;
    hopt.static_fraction = 1.0;
    hopt.steal_static = false;
    sched::HybridScheduler hybrid(g, p, cp.schedule, hopt);
    expect_identical_traces(simulate(g, p, replay), simulate(g, p, hybrid),
                            "n=" + std::to_string(n));
    EXPECT_EQ(hybrid.static_count(), g.num_tasks());
    EXPECT_EQ(hybrid.static_pool_hits() + hybrid.boundary_crossings(),
              g.num_tasks());
    EXPECT_EQ(hybrid.steals(), 0);
  }
}

// ---- Mid fractions ---------------------------------------------------------

TEST(HybridScheduler, MidFractionsProduceValidBoundConsistentSchedules) {
  const TaskGraph g = build_cholesky_dag(8);
  const Platform p = mirage_platform().without_communication();
  const double bound = bounds::evaluate_bound_s("mixed", g, p);
  for (const double f : {0.25, 0.5, 0.75}) {
    for (const bool steal : {false, true}) {
      sched::HybridScheduler::Options opt;
      opt.static_fraction = f;
      opt.steal_static = steal;
      sched::HybridScheduler hyb(g, p, opt);  // built-in greedy EFT plan
      const RunReport r = simulate(g, p, hyb);
      const std::string what =
          "f=" + std::to_string(f) + " steal=" + std::to_string(steal);
      EXPECT_EQ(static_cast<int>(r.trace.compute().size()), g.num_tasks())
          << what;
      EXPECT_GE(r.makespan_s, bound * (1.0 - 1e-9)) << what;
      const StaticSchedule s = schedule_from_trace(r.trace, g.num_tasks());
      EXPECT_EQ(s.validate(g, p), "") << what;
      // Every pinned task was handed out exactly once, through either its
      // own worker or a boundary crossing; the rest went the dmda way.
      EXPECT_EQ(hyb.static_pool_hits() + hyb.boundary_crossings(),
                hyb.static_count())
          << what;
    }
  }
}

TEST(HybridScheduler, StealStaticCrossesTheBoundary) {
  // Across the fraction sweep with stealing on, some idle worker must find
  // it profitable to claim another worker's pinned task at least once.
  const TaskGraph g = build_cholesky_dag(8);
  const Platform p = mirage_platform().without_communication();
  std::int64_t crossings = 0;
  for (const double f : {0.4, 0.5, 0.6, 0.75, 1.0}) {
    sched::HybridScheduler::Options opt;
    opt.static_fraction = f;
    opt.steal_static = true;
    sched::HybridScheduler hyb(g, p, opt);
    simulate(g, p, hyb);
    crossings += hyb.boundary_crossings();
  }
  EXPECT_GT(crossings, 0);
}

// ---- Stats surface ---------------------------------------------------------

TEST(HybridScheduler, StatsReachTheRunReport) {
  const TaskGraph g = build_cholesky_dag(6);
  const Platform p = mirage_platform().without_communication();
  auto hyb = sched::make_scheduler(
      "hybrid:static_fraction=0.5,steal_static=on", g, p);
  const RunReport r = simulate(g, p, *hyb);
  for (const char* key : {"static_tasks", "static_pool_hits", "dynamic_pops",
                          "steals", "boundary_crossings"}) {
    EXPECT_TRUE(r.scheduler_stats.count(key)) << key;
  }
  EXPECT_GT(r.scheduler_stats.at("static_tasks"), 0);
  EXPECT_EQ(r.scheduler_stats.at("static_pool_hits") +
                r.scheduler_stats.at("boundary_crossings"),
            r.scheduler_stats.at("static_tasks"));
}

// ---- Fault tolerance -------------------------------------------------------

TEST(HybridScheduler, SurvivesWorkerDeathInBothHalves) {
  // Property sweep: kill one worker early or mid-run under several
  // fraction / stealing settings; the run must still complete every task
  // with a validator-clean trace and nothing scheduled on the corpse.
  const TaskGraph g = build_cholesky_dag(8);
  const Platform p = mirage_platform().without_communication();
  for (const double f : {0.0, 0.5, 1.0}) {
    for (const bool steal : {false, true}) {
      for (const int victim : {0, p.num_workers() - 1}) {
        for (const double when : {0.0, 0.05}) {
          sched::HybridScheduler::Options opt;
          opt.static_fraction = f;
          opt.steal_static = steal;
          sched::HybridScheduler hyb(g, p, opt);
          RunOptions ropt;
          ropt.faults.deaths.push_back({victim, when});
          const RunReport r = simulate(g, p, hyb, ropt);
          const std::string what = "f=" + std::to_string(f) +
                                   " steal=" + std::to_string(steal) +
                                   " victim=" + std::to_string(victim) +
                                   " t=" + std::to_string(when);
          EXPECT_EQ(r.faults.worker_deaths, 1) << what;
          const StaticSchedule s = schedule_from_trace(r.trace, g.num_tasks());
          EXPECT_EQ(s.validate(g, p), "") << what;
          for (const StaticSchedule::Entry& e : s.entries)
            EXPECT_TRUE(e.worker != victim || e.start < when) << what;
        }
      }
    }
  }
}

// ---- Spine selection -------------------------------------------------------

TEST(HybridScheduler, TrsmDistSpinePinsPanelTasksFirst) {
  // With spine=trsm-dist the pinned set must be a prefix of the
  // tile-diagonal-distance ordering: no dynamic task may sit strictly
  // closer to the diagonal than a pinned one (ties may straddle the cut).
  const TaskGraph g = build_cholesky_dag(8);
  const Platform p = mirage_platform().without_communication();
  sched::HybridScheduler::Options opt;
  opt.static_fraction = 0.3;
  opt.spine = sched::HybridOptions::Spine::kTrsmDist;
  const sched::HybridScheduler hyb(g, p, opt);
  ASSERT_GT(hyb.static_count(), 0);
  ASSERT_LT(hyb.static_count(), g.num_tasks());
  int max_static = 0, min_dynamic = 1 << 30;
  for (int t = 0; t < g.num_tasks(); ++t) {
    const int d = tile_diagonal_distance(g.task(t));
    if (hyb.is_static(t))
      max_static = std::max(max_static, d);
    else
      min_dynamic = std::min(min_dynamic, d);
  }
  EXPECT_LE(max_static, min_dynamic);
}

TEST(HybridScheduler, SpineOptionResolvesThroughRegistry) {
  const TaskGraph g = build_cholesky_dag(6);
  const Platform p = testutil::tiny_hetero();
  // Default and explicit alap spines are the same scheduler bit-for-bit.
  RunOptions ropt;
  auto a = sched::make_scheduler("hybrid:static_fraction=0.4", g, p);
  auto b =
      sched::make_scheduler("hybrid:static_fraction=0.4,spine=alap", g, p);
  expect_identical_traces(simulate(g, p, *a, ropt), simulate(g, p, *b, ropt),
                          "spine=alap default");
  // trsm-dist parses and completes a valid run.
  auto c = sched::make_scheduler(
      "hybrid:static_fraction=0.4,spine=trsm-dist", g, p);
  const RunReport r = simulate(g, p, *c, ropt);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(schedule_from_trace(r.trace, g.num_tasks()).validate(g, p), "");
  // Unknown spine values are rejected up front, naming the choices.
  EXPECT_THROW(sched::make_scheduler("hybrid:spine=bogus", g, p),
               std::invalid_argument);
}

}  // namespace
}  // namespace hetsched

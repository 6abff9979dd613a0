// Plan executor: factorizing through execute_plan_parallel (in place on
// the caller's tiles, SPLIT/MERGE repacks into view blocks, per-region
// pack geometry) matches the sequential tiled reference, a failed run --
// non-SPD pivot, cancellation, exhausted fault budget -- leaves its input
// bit-identical, and reusing the process-wide plan slot never shows in the
// result -- a warm call, a call after a failure, alternating plans,
// concurrent callers and a call after the previous matrix is gone all
// produce the bit-identical factor of a cold first call.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/dense_matrix.hpp"
#include "core/tile_matrix.hpp"
#include "core/tile_plan.hpp"
#include "core/tiled_cholesky.hpp"
#include "exec/plan_executor.hpp"
#include "platform/calibration.hpp"
#include "runtime/cancel.hpp"
#include "sched/priority_sched.hpp"
#include "tests/test_util.hpp"

namespace hetsched {
namespace {

using testutil::mixed_plan;

RunReport factorize(TileMatrix& m, const TilePlan& plan, int threads = 3) {
  ExecOptions opt;
  opt.num_threads = threads;
  opt.record_trace = false;
  return execute_plan_parallel(m, plan, opt);
}

/// Points the plan slot at a throwaway one-tile plan, so the next call
/// with any real plan lowers and allocates afresh.
void evict_plan_slot() {
  TileMatrix one = TileMatrix::from_dense(DenseMatrix::random_spd(8, 1), 1, 8);
  ASSERT_TRUE(factorize(one, TilePlan::uniform(1, 8), 1).success);
}

/// The factor of `a` under `plan` from a freshly allocated PlanStorage.
TileMatrix cold_factor(const DenseMatrix& a, const TilePlan& plan) {
  evict_plan_slot();
  TileMatrix m = TileMatrix::from_dense(a, plan.n_tiles, plan.base_nb);
  const RunReport rep = factorize(m, plan);
  EXPECT_TRUE(rep.success) << rep.error;
  return m;
}

/// Byte-wise equality of every lower tile.
bool same_lower_tiles(const TileMatrix& x, const TileMatrix& y) {
  for (int i = 0; i < x.n_tiles(); ++i)
    for (int j = 0; j <= i; ++j)
      if (std::memcmp(x.tile(i, j), y.tile(i, j), x.tile_bytes()) != 0)
        return false;
  return true;
}

/// Factorizes a fresh copy of `a` under `plan` and compares it with `ref`.
void expect_factor(const DenseMatrix& a, const TilePlan& plan,
                   const TileMatrix& ref) {
  TileMatrix m = TileMatrix::from_dense(a, plan.n_tiles, plan.base_nb);
  const RunReport rep = factorize(m, plan);
  ASSERT_TRUE(rep.success) << rep.error;
  EXPECT_TRUE(same_lower_tiles(m, ref));
}

struct PlanExecCase {
  int n_tiles;
  int base_nb;
  int level;  ///< -1 = the mixed_plan fixture, else a uniform level
};

class PlanExecutorSweep : public ::testing::TestWithParam<PlanExecCase> {};

// The real-execution acceptance bar: factorizing through the plan
// executor matches the sequential tiled reference.
TEST_P(PlanExecutorSweep, MatchesSequentialReference) {
  const auto [n, nb, level] = GetParam();
  const TilePlan plan =
      level < 0 ? mixed_plan(n, nb) : TilePlan::uniform(n, nb, level);
  ASSERT_EQ(plan.validate(), "");

  const DenseMatrix a = DenseMatrix::random_spd(n * nb, 31);
  TileMatrix ref = TileMatrix::from_dense(a, n, nb);
  ASSERT_TRUE(tiled_cholesky_sequential(ref));

  TileMatrix m = TileMatrix::from_dense(a, n, nb);
  const RunReport rep = factorize(m, plan);
  ASSERT_TRUE(rep.success) << rep.error;
  EXPECT_LT(DenseMatrix::max_abs_diff_lower(ref.to_dense(), m.to_dense()),
            1e-9);
}

INSTANTIATE_TEST_SUITE_P(Plans, PlanExecutorSweep,
                         ::testing::Values(PlanExecCase{4, 32, -1},
                                           PlanExecCase{3, 32, 1},
                                           PlanExecCase{2, 32, 2},
                                           PlanExecCase{5, 16, -1},
                                           PlanExecCase{4, 24, 1},
                                           // 24- and 12-wide subtiles, odd
                                           // against the kernels' 16-wide
                                           // base cases and 8-wide strips.
                                           PlanExecCase{3, 48, 1},
                                           PlanExecCase{2, 48, 2},
                                           PlanExecCase{4, 48, -1}));

TEST(PlanExecutor, NonSpdFailureLeavesInputUntouched) {
  const int n = 3, nb = 16;
  DenseMatrix zero(n * nb, n * nb);  // not positive definite
  TileMatrix m = TileMatrix::from_dense(zero, n, nb);
  const RunReport rep = factorize(m, mixed_plan(n, nb), 2);
  EXPECT_FALSE(rep.success);
  EXPECT_LT(DenseMatrix::max_abs_diff_lower(zero, m.to_dense()), 1e-300);
}

TEST(PlanReuse, WarmCallIsBitIdentical) {
  const TilePlan plan = mixed_plan(4, 32);
  const DenseMatrix a = DenseMatrix::random_spd(4 * 32, 7);
  const TileMatrix ref = cold_factor(a, plan);
  for (int call = 0; call < 3; ++call) expect_factor(a, plan, ref);
}

// A non-SPD pivot in the last diagonal cell fails the run after nearly
// every block (views included) of the reused storage was written.
TEST(PlanReuse, FailedCallLeavesInputAndNextFactorUntouched) {
  const TilePlan plan = mixed_plan(4, 32);
  const DenseMatrix a = DenseMatrix::random_spd(4 * 32, 11);
  const TileMatrix ref = cold_factor(a, plan);

  DenseMatrix bad = a;
  bad(4 * 32 - 1, 4 * 32 - 1) = -1.0;
  const TileMatrix bad_in = TileMatrix::from_dense(bad, 4, 32);
  TileMatrix m = bad_in;
  const RunReport rep = factorize(m, plan);
  EXPECT_FALSE(rep.success);
  EXPECT_TRUE(same_lower_tiles(m, bad_in));

  expect_factor(a, plan, ref);
}

TEST(PlanReuse, AlternatingPlans) {
  const TilePlan p = mixed_plan(4, 32);
  TilePlan q = TilePlan::uniform(4, 32, 1);
  q.set_level(0, 0, 0);
  const DenseMatrix a = DenseMatrix::random_spd(4 * 32, 13);
  const TileMatrix ref_p = cold_factor(a, p);
  const TileMatrix ref_q = cold_factor(a, q);
  for (const bool use_p : {true, false, true, true, false})
    expect_factor(a, use_p ? p : q, use_p ? ref_p : ref_q);
}

TEST(PlanReuse, UniformBasePlan) {
  const TilePlan plan = TilePlan::uniform(4, 32);
  const DenseMatrix a = DenseMatrix::random_spd(4 * 32, 17);
  const TileMatrix ref = cold_factor(a, plan);
  for (int call = 0; call < 2; ++call) expect_factor(a, plan, ref);
}

// Concurrent callers with the same plan: at most one holds the slot's
// storage, the others allocate their own, and every storage goes back.
TEST(PlanReuse, ConcurrentCallersSamePlan) {
  constexpr int kCallers = 3, kCalls = 4;
  const TilePlan plan = mixed_plan(4, 32);
  std::vector<DenseMatrix> inputs;
  std::vector<TileMatrix> refs;
  for (int t = 0; t < kCallers; ++t) {
    const unsigned seed = 100u + static_cast<unsigned>(t);
    inputs.push_back(DenseMatrix::random_spd(4 * 32, seed));
    refs.push_back(cold_factor(inputs.back(), plan));
  }
  std::vector<int> matches(kCallers, 0);
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t)
    callers.emplace_back([&, t] {
      const auto u = static_cast<std::size_t>(t);
      for (int call = 0; call < kCalls; ++call) {
        TileMatrix m = TileMatrix::from_dense(inputs[u], 4, 32);
        if (factorize(m, plan, 2).success && same_lower_tiles(m, refs[u]))
          ++matches[u];
      }
    });
  for (std::thread& c : callers) c.join();
  for (int t = 0; t < kCallers; ++t)
    EXPECT_EQ(matches[static_cast<std::size_t>(t)], kCalls) << "caller " << t;
}

/// The central priority queue that fires `token` when it hands out its
/// `after`-th task: the run stops at the next task boundary, after that
/// many tasks have started writing in place.
class CancelAfter final : public Scheduler {
 public:
  CancelAfter(CancelToken& token, int after) : token_(token), left_(after) {}
  void on_task_ready(SchedulerHost& host, int task) override {
    inner_.on_task_ready(host, task);
  }
  int pop_task(SchedulerHost& host, int worker) override {
    const int task = inner_.pop_task(host, worker);
    if (task >= 0 && --left_ == 0) token_.cancel();
    return task;
  }
  bool central_queue() const override { return true; }
  std::string name() const override { return "cancel-after"; }

 private:
  CentralPriorityScheduler inner_;
  CancelToken& token_;
  int left_;
};

TEST(PlanFailure, CancelledCallLeavesInputBitIdentical) {
  const TilePlan plan = mixed_plan(4, 32);
  const DenseMatrix a = DenseMatrix::random_spd(4 * 32, 19);
  const TileMatrix ref = cold_factor(a, plan);
  const TileMatrix in = TileMatrix::from_dense(a, 4, 32);
  for (const int after : {1, 25, 60}) {
    TileMatrix m = in;
    CancelToken token;
    CancelAfter sched(token, after);
    RunOptions opt;
    opt.cancel = &token;
    const RunReport rep = execute_plan_with_scheduler(
        m, plan, homogeneous_platform(2), sched, 2, opt);
    EXPECT_FALSE(rep.success) << "cancel after " << after;
    EXPECT_EQ(rep.error_kind, RunErrorKind::Cancelled);
    EXPECT_GE(rep.trace.compute().size(), static_cast<std::size_t>(after));
    EXPECT_TRUE(same_lower_tiles(m, in)) << "cancel after " << after;
  }
  expect_factor(a, plan, ref);
}

TEST(PlanFailure, ExhaustedFaultBudgetLeavesInputBitIdentical) {
  const TilePlan plan = mixed_plan(4, 32);
  const DenseMatrix a = DenseMatrix::random_spd(4 * 32, 23);
  const TileMatrix ref = cold_factor(a, plan);
  const TileMatrix in = TileMatrix::from_dense(a, 4, 32);
  for (const unsigned seed : {1u, 2u, 3u}) {
    TileMatrix m = in;
    CentralPriorityScheduler sched;
    RunOptions opt;
    opt.faults.transient_failure_prob = 0.05;
    opt.faults.retry.max_retries = 0;
    opt.faults.seed = seed;
    const RunReport rep = execute_plan_with_scheduler(
        m, plan, homogeneous_platform(2), sched, 2, opt);
    EXPECT_FALSE(rep.success) << "seed " << seed;
    EXPECT_EQ(rep.error_kind, RunErrorKind::Fault);
    EXPECT_TRUE(same_lower_tiles(m, in)) << "seed " << seed;
  }
  expect_factor(a, plan, ref);
}

// The slot keeps its storage between calls but no pointer into the
// matrix of the last one: factoring a second matrix after the first is
// gone reads and writes only the second (the sanitizer build catches a
// dangling block pointer).
TEST(PlanReuse, PreviousMatrixGone) {
  const TilePlan plan = mixed_plan(4, 32);
  const DenseMatrix a = DenseMatrix::random_spd(4 * 32, 29);
  const DenseMatrix b = DenseMatrix::random_spd(4 * 32, 37);
  const TileMatrix ref_b = cold_factor(b, plan);
  {
    auto first = std::make_unique<TileMatrix>(TileMatrix::from_dense(a, 4, 32));
    ASSERT_TRUE(factorize(*first, plan).success);
  }
  expect_factor(b, plan, ref_b);
}

TEST(PlanExecutor, RejectsShapeMismatch) {
  TileMatrix m = TileMatrix::from_dense(DenseMatrix::random_spd(4 * 16, 3),
                                        4, 16);
  const TileMatrix in = m;
  ExecOptions opt;
  opt.num_threads = 2;
  EXPECT_THROW(execute_plan_parallel(m, mixed_plan(4, 32), opt),
               std::invalid_argument);
  EXPECT_THROW(execute_plan_parallel(m, mixed_plan(3, 16), opt),
               std::invalid_argument);
  EXPECT_TRUE(same_lower_tiles(m, in));
}

}  // namespace
}  // namespace hetsched

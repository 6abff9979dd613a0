#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <vector>

#include "core/cholesky_dag.hpp"
#include "platform/calibration.hpp"
#include "sched/dmda.hpp"
#include "sched/eager_sched.hpp"
#include "sched/priorities.hpp"
#include "sched/random_sched.hpp"
#include "sim/simulator.hpp"
#include "tests/test_util.hpp"

namespace hetsched {
namespace {

using testutil::independent_gemms;
using testutil::tiny_hetero;
using testutil::tiny_homog;

TEST(EagerSched, DrainsFifo) {
  // Single worker: tasks run in ready (submission) order.
  const TaskGraph g = independent_gemms(3);
  EagerScheduler sched;
  const RunReport r = simulate(g, tiny_homog(1), sched);
  ASSERT_EQ(r.trace.compute().size(), 3u);
  EXPECT_EQ(r.trace.compute()[0].task, 0);
  EXPECT_EQ(r.trace.compute()[1].task, 1);
  EXPECT_EQ(r.trace.compute()[2].task, 2);
}

TEST(RandomSched, FavorsFastResources) {
  // GPU weight = mean(1, 4, 4, 8) = 4.25 vs CPU 1. Over 300 GEMMs the GPU
  // worker must receive far more tasks than either CPU.
  const TaskGraph g = independent_gemms(300);
  RandomScheduler sched(123);
  const RunReport r = simulate(g, tiny_hetero().without_communication(), sched);
  std::map<int, int> count;
  for (const ComputeRecord& c : r.trace.compute()) ++count[c.worker];
  EXPECT_GT(count[2], count[0] * 2);
  EXPECT_GT(count[2], count[1] * 2);
  // Expected GPU share = 4.25 / 6.25 = 68%.
  EXPECT_NEAR(count[2] / 300.0, 0.68, 0.10);
}

TEST(RandomSched, IgnoresLoad) {
  // The random policy can pile tasks on a busy worker; with 2 identical
  // CPUs and 40 equal tasks the split will not be exactly even, whereas
  // dmda balances perfectly.
  const TaskGraph g = independent_gemms(40);
  RandomScheduler rnd(5);
  const RunReport r = simulate(g, tiny_homog(2), rnd);
  DmdaScheduler dmda = make_dmda();
  const RunReport d = simulate(g, tiny_homog(2), dmda);
  EXPECT_DOUBLE_EQ(d.makespan_s, 20 * 8.0);   // perfect balance
  EXPECT_GT(r.makespan_s, d.makespan_s);      // random leaves idle gaps
}

TEST(DmdaSched, PicksFastestResourceForSingleTask) {
  // One GEMM: CPU would take 8 s, GPU 1 s -> dmda must pick the GPU.
  const TaskGraph g = independent_gemms(1);
  DmdaScheduler sched = make_dmda();
  const RunReport r = simulate(g, tiny_hetero().without_communication(), sched);
  EXPECT_EQ(r.trace.compute()[0].worker, 2);
  EXPECT_DOUBLE_EQ(r.makespan_s, 1.0);
}

TEST(DmdaSched, SpillsToCpuWhenGpuBusy) {
  // 9 GEMMs, GPU 1 s vs CPU 8 s. dmda fills the GPU while its estimated
  // completion stays below a CPU's (tasks 0-6), then ties at 8 s send one
  // task to each CPU: optimal makespan 8 with a 7/1/1 split.
  const TaskGraph g = independent_gemms(9);
  DmdaScheduler sched = make_dmda();
  const RunReport r = simulate(g, tiny_hetero().without_communication(), sched);
  EXPECT_DOUBLE_EQ(r.makespan_s, 8.0);
  std::map<int, int> count;
  for (const ComputeRecord& c : r.trace.compute()) ++count[c.worker];
  EXPECT_EQ(count[2], 7);
  EXPECT_EQ(count[0], 1);
  EXPECT_EQ(count[1], 1);
}

TEST(DmdaSched, AccountsForTransfers) {
  // One task whose input sits in RAM. GPU compute 1 s but needs a ~7 s
  // transfer; CPU takes 4 s with no transfer. dmda must pick the CPU.
  TaskGraph g;
  g.add_task(Kernel::TRSM, 0, 1, -1, 1.0, {{0, AccessMode::ReadWrite}});
  const Platform p = tiny_hetero().with_bus_bandwidth(512.0 / 7.0);
  DmdaScheduler sched = make_dmda();
  const RunReport r = simulate(g, p, sched);
  EXPECT_EQ(r.trace.compute()[0].worker, 0);  // CPU_0
  EXPECT_DOUBLE_EQ(r.makespan_s, 4.0);
  // Without the transfer cost the GPU wins.
  DmdaScheduler sched2 = make_dmda();
  const RunReport r2 = simulate(g, p.without_communication(), sched2);
  EXPECT_EQ(r2.trace.compute()[0].worker, 2);
}

TEST(DmdasSched, RunsHighPriorityFirst) {
  // Three independent tasks; priorities favour task 2, then 0, then 1.
  TaskGraph g;
  g.add_task(Kernel::GEMM, 0, 0, 0, 1.0);
  g.add_task(Kernel::GEMM, 0, 1, 0, 1.0);
  g.add_task(Kernel::GEMM, 0, 2, 0, 1.0);
  DmdaScheduler::Options opt;
  opt.sorted = true;
  opt.priorities = {5.0, 1.0, 9.0};
  DmdaScheduler sched{std::move(opt)};
  const RunReport r = simulate(g, tiny_homog(1), sched);
  ASSERT_EQ(r.trace.compute().size(), 3u);
  EXPECT_EQ(r.trace.compute()[0].task, 2);
  EXPECT_EQ(r.trace.compute()[1].task, 0);
  EXPECT_EQ(r.trace.compute()[2].task, 1);
}

TEST(DmdasSched, EqualPrioritiesFallBackToFifo) {
  TaskGraph g;
  g.add_task(Kernel::GEMM, 0, 0, 0, 1.0);
  g.add_task(Kernel::GEMM, 0, 1, 0, 1.0);
  DmdaScheduler::Options opt;
  opt.sorted = true;
  opt.priorities = {3.0, 3.0};
  DmdaScheduler sched{std::move(opt)};
  const RunReport r = simulate(g, tiny_homog(1), sched);
  EXPECT_EQ(r.trace.compute()[0].task, 0);
  EXPECT_EQ(r.trace.compute()[1].task, 1);
}

/// A frozen runtime: time 0, every worker idle, no transfers. Lets a test
/// push and pop a scheduler's queues by hand.
class IdleHost final : public SchedulerHost {
 public:
  IdleHost(const TaskGraph& g, const Platform& p) : g_(g), p_(p) {}
  double now() const override { return 0.0; }
  const Platform& platform() const override { return p_; }
  const TaskGraph& graph() const override { return g_; }
  double expected_available(int) const override { return 0.0; }
  double estimated_transfer_seconds(int, int) const override { return 0.0; }
  void note_task_queued(int, int) override {}

 private:
  const TaskGraph& g_;
  const Platform& p_;
};

// The sorted insert must put each task exactly where a linear scan past
// every queued task of priority >= its own would: descending priorities,
// FIFO among equal ones, also when pops interleave with pushes.
TEST(DmdasSched, SortedInsertMatchesLinearScanOrder) {
  // Isolated tasks: each one's bottom level is its own kernel time on a
  // single CPU (GEMM 8 > TRSM = SYRK 4 > POTRF 2), so the pushes below mix
  // ties with strictly descending and ascending runs.
  const Kernel kinds[] = {Kernel::POTRF, Kernel::GEMM,  Kernel::TRSM,
                          Kernel::SYRK,  Kernel::GEMM,  Kernel::POTRF,
                          Kernel::TRSM,  Kernel::GEMM,  Kernel::SYRK,
                          Kernel::POTRF, Kernel::TRSM,  Kernel::GEMM};
  TaskGraph g;
  for (int i = 0; i < 12; ++i) g.add_task(kinds[i], 0, i, 0, 1.0);
  const Platform p = tiny_homog(1);
  const std::vector<double> prio = bottom_levels_fastest(g, p);

  DmdaScheduler sched = make_dmdas(g, p);
  IdleHost host(g, p);
  sched.initialize(host);
  std::deque<int> ref;  // the historical linear-scan insert
  const auto push = [&](int task) {
    sched.on_task_ready(host, task);
    auto it = ref.begin();
    while (it != ref.end() && prio[static_cast<std::size_t>(*it)] >=
                                  prio[static_cast<std::size_t>(task)])
      ++it;
    ref.insert(it, task);
  };
  std::vector<int> got;
  std::vector<int> want;
  const auto pop = [&] {
    got.push_back(sched.pop_task(host, 0));
    want.push_back(ref.front());
    ref.pop_front();
  };
  for (int t = 0; t < 7; ++t) push(t);
  pop();
  pop();
  for (int t = 7; t < 12; ++t) push(t);
  while (!ref.empty()) pop();
  EXPECT_EQ(sched.pop_task(host, 0), -1);
  EXPECT_EQ(got, want);
  // Spelled out: GEMMs 1 and 4 leave first; then the queue holds
  // {2, 3, 6 | 0, 5} and 7..11 slot in behind their equals.
  EXPECT_EQ(got, (std::vector<int>{1, 4, 7, 11, 2, 3, 6, 8, 10, 0, 5, 9}));
}

TEST(DmdaVsDmdas, BothCompleteCholesky) {
  const TaskGraph g = build_cholesky_dag(8);
  const Platform p = mirage_platform();
  DmdaScheduler dmda = make_dmda();
  DmdaScheduler dmdas = make_dmdas(g, p);
  const double a = simulate(g, p, dmda).makespan_s;
  const double b = simulate(g, p, dmdas).makespan_s;
  EXPECT_GT(a, 0.0);
  EXPECT_GT(b, 0.0);
  // The two policies genuinely differ on this instance.
  EXPECT_NE(a, b);
}

TEST(Schedulers, NamesAreStable) {
  EXPECT_EQ(EagerScheduler().name(), "eager");
  EXPECT_EQ(RandomScheduler().name(), "random");
  EXPECT_EQ(make_dmda().name(), "dmda");
  const TaskGraph g = independent_gemms(1);
  const Platform p = tiny_homog(1);
  EXPECT_EQ(make_dmdas(g, p).name(), "dmdas");
}

}  // namespace
}  // namespace hetsched

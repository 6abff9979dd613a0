#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "bounds/bounds.hpp"
#include "core/cholesky_dag.hpp"
#include "platform/calibration.hpp"
#include "sched/dmda.hpp"
#include "sched/eager_sched.hpp"
#include "sched/fixed_sched.hpp"
#include "sched/random_sched.hpp"
#include "tests/test_util.hpp"

namespace hetsched {
namespace {

using testutil::chain4;
using testutil::fork_join;
using testutil::independent_gemms;
using testutil::tiny_hetero;
using testutil::tiny_homog;

TEST(Simulator, SingleWorkerSerializesChain) {
  const TaskGraph g = chain4();
  const Platform p = tiny_homog(1);
  EagerScheduler sched;
  const RunReport r = simulate(g, p, sched);
  // POTRF 2 + TRSM 4 + SYRK 4 + POTRF 2.
  EXPECT_DOUBLE_EQ(r.makespan_s, 12.0);
  EXPECT_EQ(r.transfer_hops, 0);
}

TEST(Simulator, ChainGainsNothingFromMoreWorkers) {
  const TaskGraph g = chain4();
  EagerScheduler sched;
  const RunReport r = simulate(g, tiny_homog(3), sched);
  EXPECT_DOUBLE_EQ(r.makespan_s, 12.0);
}

TEST(Simulator, IndependentTasksSpreadAcrossWorkers) {
  const TaskGraph g = independent_gemms(4);
  EagerScheduler sched;
  // 4 GEMMs of 8s on 2 CPUs -> 16s.
  const RunReport r = simulate(g, tiny_homog(2), sched);
  EXPECT_DOUBLE_EQ(r.makespan_s, 16.0);
}

TEST(Simulator, ForkJoinByHand) {
  const TaskGraph g = fork_join(2);
  EagerScheduler sched;
  // POTRF 2 + GEMM 8 (parallel pair) + SYRK 4.
  const RunReport r = simulate(g, tiny_homog(2), sched);
  EXPECT_DOUBLE_EQ(r.makespan_s, 14.0);
}

TEST(Simulator, TraceAccountsEveryTask) {
  const TaskGraph g = build_cholesky_dag(4);
  DmdaScheduler sched = make_dmda();
  const RunReport r = simulate(g, tiny_homog(3), sched);
  EXPECT_EQ(r.trace.compute().size(),
            static_cast<std::size_t>(g.num_tasks()));
  // Every task appears exactly once.
  std::vector<int> seen(static_cast<std::size_t>(g.num_tasks()), 0);
  for (const ComputeRecord& c : r.trace.compute())
    ++seen[static_cast<std::size_t>(c.task)];
  for (const int s : seen) EXPECT_EQ(s, 1);
  EXPECT_DOUBLE_EQ(r.trace.makespan(), r.makespan_s);
}

TEST(Simulator, RuntimeOverheadAddsPerTask) {
  const TaskGraph g = chain4();
  const Platform p = tiny_homog(1);
  EagerScheduler sched;
  RunOptions opt;
  opt.per_task_overhead_s = 0.5;
  const RunReport r = simulate(g, p, sched, opt);
  EXPECT_DOUBLE_EQ(r.makespan_s, 12.0 + 4 * 0.5);
}

TEST(Simulator, NoiseIsSeededAndDeterministic) {
  const TaskGraph g = build_cholesky_dag(3);
  const Platform p = tiny_homog(2);
  RunOptions opt;
  opt.noise_cv = 0.05;
  opt.noise_seed = 7;
  EagerScheduler s1, s2, s3;
  const double a = simulate(g, p, s1, opt).makespan_s;
  const double b = simulate(g, p, s2, opt).makespan_s;
  EXPECT_DOUBLE_EQ(a, b);
  opt.noise_seed = 8;
  const double c = simulate(g, p, s3, opt).makespan_s;
  EXPECT_NE(a, c);
}

TEST(Simulator, NoiseAveragesNearNominal) {
  const TaskGraph g = chain4();
  const Platform p = tiny_homog(1);
  RunOptions opt;
  opt.noise_cv = 0.05;
  double sum = 0.0;
  for (unsigned seed = 0; seed < 20; ++seed) {
    opt.noise_seed = seed;
    EagerScheduler sched;
    sum += simulate(g, p, sched, opt).makespan_s;
  }
  EXPECT_NEAR(sum / 20.0, 12.0, 12.0 * 0.05);
}

// ---- Transfers ------------------------------------------------------------

// One GEMM task reading tile 0 and read-writing tile 1 on the GPU worker.
TaskGraph one_gpu_task() {
  TaskGraph g;
  g.add_task(Kernel::GEMM, 0, 0, 0, 1.0,
             {{0, AccessMode::Read}, {1, AccessMode::ReadWrite}});
  return g;
}

// Bus tuned so one tile transfer takes ~1 s (512-byte tiles at 512 B/s).
Platform slow_bus_hetero() { return tiny_hetero().with_bus_bandwidth(512.0); }

TEST(Simulator, TransfersSerializeOnChannel) {
  const TaskGraph g = one_gpu_task();
  const Platform p = slow_bus_hetero();
  StaticSchedule fixed;
  fixed.entries = {{0, 2, 0.0}};  // worker 2 is the GPU
  FixedScheduleScheduler sched(fixed);
  const RunReport r = simulate(g, p, sched);
  // Two h2d transfers of ~1 s each on the same link, then 1 s of GEMM.
  EXPECT_NEAR(r.makespan_s, 3.0, 1e-3);
  EXPECT_EQ(r.transfer_hops, 2);
  EXPECT_DOUBLE_EQ(r.bytes_transferred, 1024.0);
}

TEST(Simulator, NoCommPlatformSkipsTransfers) {
  const TaskGraph g = one_gpu_task();
  const Platform p = slow_bus_hetero().without_communication();
  StaticSchedule fixed;
  fixed.entries = {{0, 2, 0.0}};
  FixedScheduleScheduler sched(fixed);
  const RunReport r = simulate(g, p, sched);
  EXPECT_DOUBLE_EQ(r.makespan_s, 1.0);
  EXPECT_EQ(r.transfer_hops, 0);
}

TEST(Simulator, WriteBackRequiresDeviceToHostHop) {
  // Task 0 writes tile 0 on GPU; task 1 reads tile 0 on CPU.
  TaskGraph g;
  g.add_task(Kernel::GEMM, 0, 0, 0, 1.0, {{0, AccessMode::ReadWrite}});
  g.add_task(Kernel::POTRF, 0, -1, -1, 1.0, {{0, AccessMode::Read}});
  g.add_edge(0, 1);
  const Platform p = slow_bus_hetero();
  StaticSchedule fixed;
  fixed.entries = {{0, 2, 0.0}, {1, 0, 0.0}};
  FixedScheduleScheduler sched(fixed);
  const RunReport r = simulate(g, p, sched);
  // h2d (1 s) + gemm (1 s) + d2h (1 s) + cpu potrf (2 s).
  EXPECT_NEAR(r.makespan_s, 5.0, 1e-2);
  EXPECT_EQ(r.transfer_hops, 2);
}

TEST(Simulator, PrefetchOverlapsTransferWithCompute) {
  // Two independent GPU tasks on distinct tiles.
  TaskGraph g;
  g.add_task(Kernel::GEMM, 0, 0, 0, 1.0, {{0, AccessMode::ReadWrite}});
  g.add_task(Kernel::GEMM, 0, 1, 0, 1.0, {{1, AccessMode::ReadWrite}});
  const Platform p = slow_bus_hetero();
  StaticSchedule fixed;
  fixed.entries = {{0, 2, 0.0}, {1, 2, 1.0}};

  FixedScheduleScheduler s(fixed);
  const RunReport r = simulate(g, p, s);
  // fetch0 [0,1], compute0 [1,2] || fetch1 [1,2], compute1 [2,3]; without
  // prefetch-on-push fetch1 would wait for compute0 and end at 4.
  EXPECT_NEAR(r.makespan_s, 3.0, 1e-2);
}

TEST(Simulator, DistinctGpuLinksRunInParallel) {
  // Two GPUs fetching different tiles simultaneously.
  const double cpu[kNumKernels] = {2.0, 4.0, 4.0, 8.0};
  const double ratio[kNumKernels] = {1.0, 4.0, 4.0, 8.0};
  const Platform p =
      custom_platform(1, 2, cpu, ratio, 8, "two-gpus").with_bus_bandwidth(512.0);
  TaskGraph g;
  g.add_task(Kernel::GEMM, 0, 0, 0, 1.0, {{0, AccessMode::ReadWrite}});
  g.add_task(Kernel::GEMM, 0, 1, 0, 1.0, {{1, AccessMode::ReadWrite}});
  StaticSchedule fixed;
  fixed.entries = {{0, 1, 0.0}, {1, 2, 0.0}};  // workers 1, 2 are the GPUs
  FixedScheduleScheduler sched(fixed);
  const RunReport r = simulate(g, p, sched);
  // Parallel fetches (~1 s) + parallel computes (1 s).
  EXPECT_NEAR(r.makespan_s, 2.0, 1e-2);
  EXPECT_EQ(r.transfer_hops, 2);
}

TEST(Simulator, DeviceToDeviceStagesThroughRam) {
  // Task 0 writes tile on GPU1, task 1 reads it on GPU2: d2h then h2d.
  const double cpu[kNumKernels] = {2.0, 4.0, 4.0, 8.0};
  const double ratio[kNumKernels] = {1.0, 4.0, 4.0, 8.0};
  const Platform p =
      custom_platform(1, 2, cpu, ratio, 8, "two-gpus").with_bus_bandwidth(512.0);
  TaskGraph g;
  g.add_task(Kernel::GEMM, 0, 0, 0, 1.0, {{0, AccessMode::ReadWrite}});
  g.add_task(Kernel::GEMM, 0, 1, 0, 1.0, {{0, AccessMode::Read}});
  g.add_edge(0, 1);
  StaticSchedule fixed;
  fixed.entries = {{0, 1, 0.0}, {1, 2, 0.0}};
  FixedScheduleScheduler sched(fixed);
  const RunReport r = simulate(g, p, sched);
  // h2d to GPU1 (1) + compute (1) + d2h (1) + h2d to GPU2 (1) + compute (1).
  EXPECT_NEAR(r.makespan_s, 5.0, 1e-2);
  EXPECT_EQ(r.transfer_hops, 3);
}


TEST(Simulator, SharedBusContentionSlowsConcurrentHops) {
  // Two GPUs fetch different tiles at t = 0. With an aggregate shared
  // capacity equal to one link, the second hop starts at half rate:
  // hop A takes ~1 s, hop B ~2 s, so B's compute ends at ~3 s.
  const double cpu[kNumKernels] = {2.0, 4.0, 4.0, 8.0};
  const double ratio[kNumKernels] = {1.0, 4.0, 4.0, 8.0};
  const Platform base =
      custom_platform(1, 2, cpu, ratio, 8, "two-gpus").with_bus_bandwidth(512.0);
  TaskGraph g;
  g.add_task(Kernel::GEMM, 0, 0, 0, 1.0, {{0, AccessMode::ReadWrite}});
  g.add_task(Kernel::GEMM, 0, 1, 0, 1.0, {{1, AccessMode::ReadWrite}});
  StaticSchedule fixed;
  fixed.entries = {{0, 1, 0.0}, {1, 2, 0.0}};

  FixedScheduleScheduler s1(fixed);
  const RunReport uncontended = simulate(g, base, s1);
  EXPECT_NEAR(uncontended.makespan_s, 2.0, 1e-2);

  FixedScheduleScheduler s2(fixed);
  const RunReport contended = simulate(g, base.with_shared_bus(512.0), s2);
  EXPECT_NEAR(contended.makespan_s, 3.0, 1e-2);
}

TEST(Simulator, SharedBusIrrelevantForSerialHops) {
  // A single fetch at a time never contends: shared capacity >= link
  // bandwidth leaves timings unchanged.
  const TaskGraph g = one_gpu_task();
  const Platform p = slow_bus_hetero().with_shared_bus(512.0);
  StaticSchedule fixed;
  fixed.entries = {{0, 2, 0.0}};
  FixedScheduleScheduler sched(fixed);
  const RunReport r = simulate(g, p, sched);
  // The two input hops share the one h2d channel and never overlap.
  EXPECT_NEAR(r.makespan_s, 3.0, 1e-2);
}

// ---- Scheduler starvation guard -------------------------------------------

class NullScheduler final : public Scheduler {
 public:
  void on_task_ready(SchedulerHost&, int) override {}
  int pop_task(SchedulerHost&, int) override { return -1; }
  std::string name() const override { return "null"; }
};

TEST(Simulator, StarvationDetected) {
  const TaskGraph g = chain4();
  const Platform p = tiny_homog(1);
  NullScheduler sched;
  const RunReport r = simulate(g, p, sched);
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.error_kind, RunErrorKind::Scheduler);
  EXPECT_EQ(r.makespan_s, 0.0);  // nothing ever ran
}

// ---- Determinism and bound consistency ------------------------------------

TEST(Simulator, DeterministicForFixedSeed) {
  const TaskGraph g = build_cholesky_dag(6);
  const Platform p = mirage_platform();
  RandomScheduler s1(3), s2(3), s3(4);
  const double a = simulate(g, p, s1).makespan_s;
  const double b = simulate(g, p, s2).makespan_s;
  const double c = simulate(g, p, s3).makespan_s;
  EXPECT_DOUBLE_EQ(a, b);
  EXPECT_NE(a, c);
}

struct BoundCase {
  int n_tiles;
  int sched_id;  // 0 eager, 1 random, 2 dmda, 3 dmdas
};

class BoundConsistency : public ::testing::TestWithParam<BoundCase> {};

TEST_P(BoundConsistency, SimulatedMakespanRespectsLowerBounds) {
  const auto [n, sched_id] = GetParam();
  const TaskGraph g = build_cholesky_dag(n);
  const Platform p = mirage_platform();

  std::unique_ptr<Scheduler> sched;
  switch (sched_id) {
    case 0: sched = std::make_unique<EagerScheduler>(); break;
    case 1: sched = std::make_unique<RandomScheduler>(11); break;
    case 2: sched = std::make_unique<DmdaScheduler>(make_dmda()); break;
    default:
      sched = std::make_unique<DmdaScheduler>(make_dmdas(g, p));
      break;
  }
  const RunReport r = simulate(g, p, *sched);
  // The mixed bound (and a fortiori the area bound and critical path,
  // which ignore communications) must never exceed any simulated run.
  EXPECT_GE(r.makespan_s, mixed_bound(n, p).makespan_s - 1e-9);
  EXPECT_GE(r.makespan_s, area_bound(n, p).makespan_s - 1e-9);
  EXPECT_GE(r.makespan_s,
            critical_path_seconds(g, p.timings()) - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BoundConsistency,
    ::testing::Values(BoundCase{2, 0}, BoundCase{2, 1}, BoundCase{2, 2},
                      BoundCase{2, 3}, BoundCase{4, 0}, BoundCase{4, 1},
                      BoundCase{4, 2}, BoundCase{4, 3}, BoundCase{8, 2},
                      BoundCase{8, 3}, BoundCase{12, 2}, BoundCase{12, 3}));

TEST(Simulator, AllWorkUltimatelyExecutes) {
  const TaskGraph g = build_cholesky_dag(8);
  const Platform p = mirage_platform();
  DmdaScheduler sched = make_dmdas(g, p);
  const RunReport r = simulate(g, p, sched);
  double busy = 0.0;
  for (int w = 0; w < p.num_workers(); ++w) busy += r.trace.busy_seconds(w);
  // Total busy time equals the sum of per-task calibrated durations on the
  // workers that actually executed them.
  double expect = 0.0;
  for (const ComputeRecord& c : r.trace.compute())
    expect += p.worker_time(c.worker, c.kernel);
  EXPECT_NEAR(busy, expect, 1e-6);
}

}  // namespace
}  // namespace hetsched

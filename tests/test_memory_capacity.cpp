// Accelerator memory-capacity modeling: LRU eviction of clean replicas,
// pinning of committed inputs, sole-copy protection, and the re-transfer
// cost of working sets exceeding device memory.
#include <gtest/gtest.h>

#include "core/cholesky_dag.hpp"
#include "platform/calibration.hpp"
#include "sched/dmda.hpp"
#include "sched/fixed_sched.hpp"
#include "sim/data_manager.hpp"
#include "sim/simulator.hpp"
#include "tests/test_util.hpp"

namespace hetsched {
namespace {

// tiny_hetero with a slow bus: tile = 8*8*8 = 512 bytes, ~1 s per hop.
Platform slow_bus() {
  return testutil::tiny_hetero().with_bus_bandwidth(512.0);
}

TEST(DataManagerCapacity, UsedBytesTracked) {
  DataManager dm(4, 2, 512);
  EXPECT_EQ(dm.used_bytes(0), 4u * 512u);
  EXPECT_EQ(dm.used_bytes(1), 0u);
  dm.add_replica(0, 1);
  dm.add_replica(1, 1);
  EXPECT_EQ(dm.used_bytes(1), 2u * 512u);
  dm.invalidate(0, 1);
  EXPECT_EQ(dm.used_bytes(1), 512u);
  dm.set_only_valid(1, 1);  // drops the RAM copy
  EXPECT_EQ(dm.used_bytes(0), 3u * 512u);
}

TEST(DataManagerCapacity, LruVictimSelection) {
  DataManager dm(3, 2, 512);
  dm.set_node_capacity(1, 1024);
  dm.add_replica(0, 1);
  dm.add_replica(1, 1);
  EXPECT_TRUE(dm.needs_room(1));
  // Tile 0 is older -> victim.
  EXPECT_EQ(dm.pick_eviction_victim(1), 0);
  dm.touch(0, 1);  // now tile 1 is the LRU
  EXPECT_EQ(dm.pick_eviction_victim(1), 1);
}

TEST(DataManagerCapacity, PinnedAndSoleCopiesProtected) {
  DataManager dm(2, 2, 512);
  dm.add_replica(0, 1);
  dm.pin(0, 1);
  EXPECT_EQ(dm.pick_eviction_victim(1), -1);  // pinned
  dm.unpin(0, 1);
  EXPECT_EQ(dm.pick_eviction_victim(1), 0);
  dm.set_only_valid(1, 1);  // tile 1 now sole copy on node 1
  dm.invalidate(0, 1);
  EXPECT_EQ(dm.pick_eviction_victim(1), -1);  // sole copy not evictable
  EXPECT_THROW(dm.invalidate(1, 1), std::logic_error);
}

TEST(SimCapacity, EvictionTriggersOnPressure) {
  // Two serialized GPU tasks reading different tiles; room for one tile.
  TaskGraph g;
  g.add_task(Kernel::GEMM, 0, 0, 0, 1.0, {{0, AccessMode::Read}});
  g.add_task(Kernel::GEMM, 0, 1, 0, 1.0, {{1, AccessMode::Read}});
  g.add_edge(0, 1);
  StaticSchedule fixed;
  fixed.entries = {{0, 2, 0.0}, {1, 2, 2.0}};
  FixedScheduleScheduler sched(fixed);
  RunOptions opt;
  opt.accel_memory_bytes = 512;
  const RunReport r = simulate(g, slow_bus(), sched, opt);
  EXPECT_EQ(r.evictions, 1);
  EXPECT_EQ(r.capacity_overflows, 0);
  EXPECT_EQ(r.transfer_hops, 2);
}

TEST(SimCapacity, EvictedTileIsRefetched) {
  // Read tile 0, then tile 1, then tile 0 again with a 1-tile memory:
  // three h2d transfers instead of two.
  TaskGraph g;
  g.add_task(Kernel::GEMM, 0, 0, 0, 1.0, {{0, AccessMode::Read}});
  g.add_task(Kernel::GEMM, 0, 1, 0, 1.0, {{1, AccessMode::Read}});
  g.add_task(Kernel::GEMM, 0, 2, 0, 1.0, {{0, AccessMode::Read}});
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  StaticSchedule fixed;
  fixed.entries = {{0, 2, 0.0}, {1, 2, 2.0}, {2, 2, 4.0}};

  FixedScheduleScheduler limited(fixed);
  RunOptions opt;
  opt.accel_memory_bytes = 512;
  const RunReport small = simulate(g, slow_bus(), limited, opt);
  EXPECT_EQ(small.transfer_hops, 3);
  EXPECT_EQ(small.evictions, 2);

  FixedScheduleScheduler unlimited(fixed);
  const RunReport big = simulate(g, slow_bus(), unlimited);
  EXPECT_EQ(big.transfer_hops, 2);  // tile 0 cached across task 2
  EXPECT_EQ(big.evictions, 0);
  EXPECT_LT(big.makespan_s, small.makespan_s);
}

TEST(SimCapacity, PinnedWorkingSetOverflows) {
  // One task needs two tiles simultaneously but memory holds one: the
  // simulator counts an overflow and proceeds (documented behavior).
  TaskGraph g;
  g.add_task(Kernel::GEMM, 0, 0, 0, 1.0,
             {{0, AccessMode::Read}, {1, AccessMode::Read}});
  StaticSchedule fixed;
  fixed.entries = {{0, 2, 0.0}};
  FixedScheduleScheduler sched(fixed);
  RunOptions opt;
  opt.accel_memory_bytes = 512;
  const RunReport r = simulate(g, slow_bus(), sched, opt);
  EXPECT_GE(r.capacity_overflows, 1);
  EXPECT_NEAR(r.makespan_s, 3.0, 1e-2);  // still completes correctly
}

TEST(SimCapacity, DirtySoleCopyNotEvicted) {
  // Task 0 writes tile 0 on the GPU (sole copy); task 1 brings tile 1 in.
  // Tile 0 must not be evicted -- overflow instead.
  TaskGraph g;
  g.add_task(Kernel::GEMM, 0, 0, 0, 1.0, {{0, AccessMode::ReadWrite}});
  g.add_task(Kernel::GEMM, 0, 1, 0, 1.0, {{1, AccessMode::Read}});
  g.add_edge(0, 1);
  StaticSchedule fixed;
  fixed.entries = {{0, 2, 0.0}, {1, 2, 2.0}};
  FixedScheduleScheduler sched(fixed);
  RunOptions opt;
  opt.accel_memory_bytes = 512;
  const RunReport r = simulate(g, slow_bus(), sched, opt);
  EXPECT_EQ(r.evictions, 0);
  EXPECT_GE(r.capacity_overflows, 1);
}

TEST(SimCapacity, CholeskyUnderMemoryPressureStillValid) {
  // Full Cholesky with a tight device memory: more transfers, larger
  // makespan, same bound validity.
  const int n = 8;
  const TaskGraph g = build_cholesky_dag(n);
  const Platform p = mirage_platform();

  DmdaScheduler s1 = make_dmda();
  const RunReport unlimited = simulate(g, p, s1);

  RunOptions opt;
  // Room for ~12 tiles of 960^2 doubles.
  opt.accel_memory_bytes = 12ull * 960 * 960 * sizeof(double);
  DmdaScheduler s2 = make_dmda();
  const RunReport tight = simulate(g, p, s2, opt);

  EXPECT_GT(tight.evictions, 0);
  EXPECT_GE(tight.transfer_hops, unlimited.transfer_hops);
  EXPECT_GE(tight.makespan_s, unlimited.makespan_s - 1e-9);
}

}  // namespace
}  // namespace hetsched

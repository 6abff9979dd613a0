#include "platform/platform.hpp"

#include <gtest/gtest.h>

#include "platform/calibration.hpp"
#include "tests/test_util.hpp"

namespace hetsched {
namespace {

TEST(TimingTable, Fastest) {
  TimingTable t(2);
  t.set_time(0, Kernel::GEMM, 8.0);
  t.set_time(1, Kernel::GEMM, 2.0);
  EXPECT_DOUBLE_EQ(t.fastest(Kernel::GEMM), 2.0);
  EXPECT_EQ(t.fastest_class(Kernel::GEMM), 1);
  EXPECT_EQ(t.num_classes(), 2);
}

TEST(BusModel, TransferTime) {
  BusModel bus;
  bus.bandwidth_Bps = 1e9;
  bus.latency_s = 1e-5;
  EXPECT_DOUBLE_EQ(bus.transfer_time(1000000), 1e-5 + 1e-3);
  bus.enabled = false;
  EXPECT_DOUBLE_EQ(bus.transfer_time(1000000), 0.0);
}

TEST(BusModel, Hops) {
  EXPECT_EQ(BusModel::hops(0, 0), 0);
  EXPECT_EQ(BusModel::hops(2, 2), 0);
  EXPECT_EQ(BusModel::hops(0, 1), 1);
  EXPECT_EQ(BusModel::hops(3, 0), 1);
  EXPECT_EQ(BusModel::hops(1, 2), 2);  // device-to-device stages through RAM
}

TEST(Platform, MirageShape) {
  const Platform p = mirage_platform();
  EXPECT_EQ(p.num_classes(), 2);
  EXPECT_EQ(p.resource_class(0).name, "CPU");
  EXPECT_EQ(p.resource_class(0).count, 9);
  EXPECT_EQ(p.resource_class(1).name, "GPU");
  EXPECT_EQ(p.resource_class(1).count, 3);
  EXPECT_EQ(p.num_workers(), 12);
  EXPECT_EQ(p.nb(), 960);
  // 1 RAM node + one node per GPU.
  EXPECT_EQ(p.num_memory_nodes(), 4);
  EXPECT_EQ(p.class_index("GPU"), 1);
  EXPECT_EQ(p.class_index("TPU"), -1);
}

TEST(Platform, WorkerMemoryNodes) {
  const Platform p = mirage_platform();
  for (const Worker& w : p.workers()) {
    if (w.cls == 0) {
      EXPECT_EQ(w.memory_node, 0);
    } else {
      EXPECT_GE(w.memory_node, 1);
      EXPECT_LE(w.memory_node, 3);
    }
  }
  // GPU memory nodes are distinct.
  const auto gpus = p.workers_of_class(1);
  ASSERT_EQ(gpus.size(), 3u);
  EXPECT_NE(p.worker(gpus[0]).memory_node, p.worker(gpus[1]).memory_node);
  EXPECT_NE(p.worker(gpus[1]).memory_node, p.worker(gpus[2]).memory_node);
}

TEST(Platform, TableIRatios) {
  // Table I of the paper: POTRF ~2x, TRSM ~11x, SYRK ~26x, GEMM ~29x.
  const Platform p = mirage_platform();
  const TimingTable& t = p.timings();
  EXPECT_NEAR(t.time(0, Kernel::POTRF) / t.time(1, Kernel::POTRF), 2.0, 1e-9);
  EXPECT_NEAR(t.time(0, Kernel::TRSM) / t.time(1, Kernel::TRSM), 11.0, 1e-9);
  EXPECT_NEAR(t.time(0, Kernel::SYRK) / t.time(1, Kernel::SYRK), 26.0, 1e-9);
  EXPECT_NEAR(t.time(0, Kernel::GEMM) / t.time(1, Kernel::GEMM), 29.0, 1e-9);
}

TEST(Platform, WithoutCommunication) {
  const Platform p = mirage_platform();
  ASSERT_TRUE(p.bus().enabled);
  const Platform q = p.without_communication();
  EXPECT_FALSE(q.bus().enabled);
  EXPECT_EQ(q.num_workers(), p.num_workers());
  EXPECT_DOUBLE_EQ(q.bus().transfer_time(1 << 20), 0.0);
  // Original untouched.
  EXPECT_TRUE(p.bus().enabled);
}

TEST(Platform, WithBusBandwidth) {
  const Platform p = mirage_platform();
  const Platform q = p.with_bus_bandwidth(1e9);
  EXPECT_DOUBLE_EQ(q.bus().bandwidth_Bps, 1e9);
  EXPECT_THROW(p.with_bus_bandwidth(0.0), std::invalid_argument);
}

TEST(Platform, HomogeneousHasNoAccelerators) {
  const Platform p = homogeneous_platform(9);
  EXPECT_EQ(p.num_classes(), 1);
  EXPECT_EQ(p.num_workers(), 9);
  EXPECT_EQ(p.num_memory_nodes(), 1);
  EXPECT_FALSE(p.bus().enabled);
}

TEST(Platform, WorkerTimeLookup) {
  const Platform p = testutil::tiny_hetero();
  // worker 0/1 are CPUs, worker 2 the GPU.
  EXPECT_DOUBLE_EQ(p.worker_time(0, Kernel::GEMM), 8.0);
  EXPECT_DOUBLE_EQ(p.worker_time(2, Kernel::GEMM), 1.0);
  EXPECT_DOUBLE_EQ(p.worker_time(2, Kernel::POTRF), 2.0);
}

TEST(Platform, InvalidConfigsThrow) {
  TimingTable t(1);
  for (const Kernel k : kAllKernels) t.set_time(0, k, 1.0);
  EXPECT_THROW(Platform({}, TimingTable(0), BusModel{}, 8, "x"),
               std::invalid_argument);
  EXPECT_THROW(Platform({{"CPU", 0, false}}, t, BusModel{}, 8, "x"),
               std::invalid_argument);
  TimingTable bad(1);  // zero kernel times
  EXPECT_THROW(Platform({{"CPU", 2, false}}, bad, BusModel{}, 8, "x"),
               std::invalid_argument);
}

}  // namespace
}  // namespace hetsched

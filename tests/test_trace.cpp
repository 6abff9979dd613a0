#include "runtime/trace.hpp"

#include <gtest/gtest.h>

namespace hetsched {
namespace {

Trace sample_trace() {
  Trace t(2);
  t.record_compute({0, 0, Kernel::POTRF, 0.0, 1.0});
  t.record_compute({0, 1, Kernel::GEMM, 1.0, 3.0});
  t.record_compute({1, 2, Kernel::TRSM, 0.5, 2.5});
  return t;
}

TEST(Trace, Makespan) {
  EXPECT_DOUBLE_EQ(sample_trace().makespan(), 3.0);
  EXPECT_DOUBLE_EQ(Trace(1).makespan(), 0.0);
}

TEST(Trace, BusyAndIdle) {
  const Trace t = sample_trace();
  EXPECT_DOUBLE_EQ(t.busy_seconds(0), 3.0);
  EXPECT_DOUBLE_EQ(t.busy_seconds(1), 2.0);
  EXPECT_DOUBLE_EQ(t.idle_seconds(0), 0.0);
  EXPECT_DOUBLE_EQ(t.idle_seconds(1), 1.0);
}

TEST(Trace, IdleFraction) {
  const Trace t = sample_trace();
  // Total idle = 1.0 over 2 workers x 3.0 span.
  EXPECT_NEAR(t.idle_fraction(), 1.0 / 6.0, 1e-12);
  EXPECT_NEAR(t.idle_fraction({1}), 1.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(Trace(2).idle_fraction(), 0.0);
}

TEST(Trace, AsciiGanttShape) {
  const Trace t = sample_trace();
  const std::string g = t.ascii_gantt(30);
  // Two rows with bars enclosed in pipes.
  EXPECT_NE(g.find("w0 |"), std::string::npos);
  EXPECT_NE(g.find("w1 |"), std::string::npos);
  // Kernel letters appear.
  EXPECT_NE(g.find('P'), std::string::npos);
  EXPECT_NE(g.find('G'), std::string::npos);
  EXPECT_NE(g.find('T'), std::string::npos);
  // Worker 1 has leading idle dots.
  const std::size_t w1 = g.find("w1 |");
  EXPECT_EQ(g[w1 + 4], '.');
}

TEST(Trace, AsciiGanttWorkerSubset) {
  const Trace t = sample_trace();
  const std::string g = t.ascii_gantt(20, {1});
  EXPECT_EQ(g.find("w0 |"), std::string::npos);
  EXPECT_NE(g.find("w1 |"), std::string::npos);
}

TEST(Trace, SvgContainsTaskRects) {
  const Trace t = sample_trace();
  const std::string svg = t.to_svg();
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("POTRF task 0"), std::string::npos);
  EXPECT_NE(svg.find("GEMM task 1"), std::string::npos);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
}

TEST(Trace, TransfersRecorded) {
  Trace t(1);
  t.record_transfer({3, 0, 1, 0.0, 0.5});
  ASSERT_EQ(t.transfers().size(), 1u);
  EXPECT_EQ(t.transfers()[0].tile, 3);
  EXPECT_EQ(t.num_transfer_hops(), 1);
}

}  // namespace
}  // namespace hetsched

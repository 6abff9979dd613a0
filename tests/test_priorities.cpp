#include "sched/priorities.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/cholesky_dag.hpp"
#include "platform/calibration.hpp"
#include "tests/test_util.hpp"

namespace hetsched {
namespace {

TEST(Priorities, ChainBottomLevels) {
  // chain4 on tiny_hetero, fastest times: POTRF 2, TRSM 1, SYRK 1, POTRF 2.
  const TaskGraph g = testutil::chain4();
  const Platform p = testutil::tiny_hetero();
  const std::vector<double> bl = bottom_levels_fastest(g, p.timings());
  ASSERT_EQ(bl.size(), 4u);
  EXPECT_DOUBLE_EQ(bl[3], 2.0);            // last POTRF
  EXPECT_DOUBLE_EQ(bl[2], 3.0);            // SYRK + POTRF
  EXPECT_DOUBLE_EQ(bl[1], 4.0);            // TRSM + ...
  EXPECT_DOUBLE_EQ(bl[0], 6.0);            // whole chain
}

TEST(Priorities, SourceHasMaximalBottomLevel) {
  const TaskGraph g = build_cholesky_dag(8);
  const Platform p = mirage_platform();
  const std::vector<double> bl = bottom_levels_fastest(g, p.timings());
  const double max_bl = *std::max_element(bl.begin(), bl.end());
  EXPECT_DOUBLE_EQ(bl[static_cast<std::size_t>(g.sources()[0])], max_bl);
}

TEST(Priorities, MonotoneAlongEdges) {
  // A task's bottom level strictly exceeds each successor's.
  const TaskGraph g = build_cholesky_dag(6);
  const Platform p = mirage_platform();
  const std::vector<double> bl = bottom_levels_fastest(g, p.timings());
  for (int id = 0; id < g.num_tasks(); ++id)
    for (const int s : g.successors(id))
      EXPECT_GT(bl[static_cast<std::size_t>(id)],
                bl[static_cast<std::size_t>(s)]);
}

TEST(Priorities, BottomLevelOfSourceEqualsCriticalPath) {
  // For a single-source DAG, max bottom level == critical path length.
  const TaskGraph g = build_cholesky_dag(10);
  const Platform p = mirage_platform();
  const std::vector<double> bl = bottom_levels_fastest(g, p.timings());
  const double max_bl = *std::max_element(bl.begin(), bl.end());
  // (Checked against the bounds module in test_bounds; here just positive
  // and attained at the unique source.)
  EXPECT_GT(max_bl, 0.0);
  EXPECT_DOUBLE_EQ(bl[static_cast<std::size_t>(g.sources()[0])], max_bl);
}

}  // namespace
}  // namespace hetsched

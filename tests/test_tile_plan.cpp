// TilePlan: text round-trip and validation, the uniform base-level
// early-return's graph identity with the classic builder, and mixed-plan
// DAG structure (SPLIT/MERGE repacks, per-task nb stamps). The plan
// executor is tested in test_plan_executor.cpp, the auto-tuner in
// test_auto_tune.cpp.
#include "core/tile_plan.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/cholesky_dag.hpp"
#include "sched/scheduler_registry.hpp"
#include "sim/simulator.hpp"
#include "tests/test_util.hpp"

namespace hetsched {
namespace {

using testutil::mixed_plan;

TEST(TilePlan, TextRoundTrip) {
  const TilePlan plan = mixed_plan(4, 32);
  EXPECT_EQ(plan.validate(), "");
  const TilePlan back = TilePlan::from_text(plan.to_text());
  EXPECT_EQ(back, plan);
}

TEST(TilePlan, FromTextAcceptsComments) {
  const TilePlan p = TilePlan::from_text(
      "# hand-written plan\n"
      "2 64\n"
      "0\n"
      "1 1  # trailing row split in half\n");
  EXPECT_EQ(p.n_tiles, 2);
  EXPECT_EQ(p.base_nb, 64);
  EXPECT_EQ(p.level(0, 0), 0);
  EXPECT_EQ(p.level(1, 0), 1);
  EXPECT_EQ(p.level(1, 1), 1);
}

TEST(TilePlan, FromTextRejectsMalformedInput) {
  EXPECT_THROW(TilePlan::from_text(""), std::invalid_argument);
  EXPECT_THROW(TilePlan::from_text("2 64\n0\n"), std::invalid_argument);
  EXPECT_THROW(TilePlan::from_text("2 64\n0\n9 0\n"), std::invalid_argument);
  EXPECT_THROW(TilePlan::from_text("2 64\n0\nx 0\n"), std::invalid_argument);
  // Out-of-range levels are rejected, not narrowed to a uint8_t: 256, 257
  // and 258 must not read as levels 0, 1 and 2.
  EXPECT_THROW(TilePlan::from_text("2 960\n256\n0 257\n"),
               std::invalid_argument);
  EXPECT_THROW(TilePlan::from_text("2 960\n0\n258 0\n"),
               std::invalid_argument);
  EXPECT_THROW(TilePlan::from_text("2 960\n0\n-1 0\n"),
               std::invalid_argument);
}

TEST(TilePlan, ValidateRejectsIndivisibleBaseNb) {
  // base_nb = 6 cannot be halved twice; level 1 is fine, level 2 is not.
  EXPECT_EQ(TilePlan::uniform(2, 6, 1).validate(), "");
  EXPECT_NE(TilePlan::uniform(2, 6, 2).validate(), "");
  EXPECT_THROW(build_cholesky_dag_plan(TilePlan::uniform(2, 6, 2)),
               std::invalid_argument);
}

// The bit-for-bit compatibility contract: a uniform base-level plan must
// lower to the exact graph the classic builder produces -- same tasks,
// same fields, same edges -- so every pre-TilePlan workload is untouched.
TEST(TilePlan, UniformBasePlanBuildsIdenticalGraph) {
  const int n = 5, nb = 8;
  const TaskGraph classic = build_cholesky_dag(n, nb);
  PlanLayout layout;
  const TaskGraph planned =
      build_cholesky_dag_plan(TilePlan::uniform(n, nb), &layout);

  ASSERT_EQ(planned.num_tasks(), classic.num_tasks());
  ASSERT_EQ(planned.num_edges(), classic.num_edges());
  for (int id = 0; id < classic.num_tasks(); ++id) {
    const Task& a = classic.task(id);
    const Task& b = planned.task(id);
    EXPECT_EQ(a.kernel, b.kernel) << "task " << id;
    EXPECT_EQ(a.k, b.k) << "task " << id;
    EXPECT_EQ(a.i, b.i) << "task " << id;
    EXPECT_EQ(a.j, b.j) << "task " << id;
    EXPECT_EQ(a.flops, b.flops) << "task " << id;
    EXPECT_EQ(a.nb, b.nb) << "task " << id;
    EXPECT_EQ(b.nb, -1) << "uniform tasks must keep the -1 pricing default";
    ASSERT_EQ(a.accesses.size(), b.accesses.size()) << "task " << id;
    for (std::size_t x = 0; x < a.accesses.size(); ++x) {
      EXPECT_EQ(a.accesses[x].tile, b.accesses[x].tile) << "task " << id;
      EXPECT_EQ(a.accesses[x].mode, b.accesses[x].mode) << "task " << id;
    }
    const auto pa = classic.predecessors(id);
    const auto pb = planned.predecessors(id);
    ASSERT_EQ(pa.size(), pb.size()) << "task " << id;
    for (std::size_t x = 0; x < pa.size(); ++x)
      EXPECT_EQ(pa[x], pb[x]) << "task " << id;
  }
  // The layout still describes the classic storage: one handle per lower
  // tile, all canonical full-size blocks.
  ASSERT_EQ(layout.num_handles(), num_lower_tiles(n));
  for (const PlanHandle& h : layout.handles) {
    EXPECT_EQ(h.nb, nb);
    EXPECT_FALSE(h.view);
  }
}

TEST(TilePlan, MixedPlanGraphHasRepacksAndNbStamps) {
  const TilePlan plan = mixed_plan(4, 32);
  PlanLayout layout;
  const TaskGraph g = build_cholesky_dag_plan(plan, &layout);
  EXPECT_TRUE(g.is_dag());
  EXPECT_GT(layout.num_handles(), num_lower_tiles(4));

  int splits = 0, merges = 0;
  bool saw_level1_compute = false;
  for (const Task& t : g.tasks()) {
    if (t.kernel == Kernel::SPLIT) ++splits;
    if (t.kernel == Kernel::MERGE) ++merges;
    if (is_repack(t.kernel)) {
      EXPECT_GT(t.nb, 0) << "repack tasks price by their region extent";
    } else {
      // Mixed graphs stamp every compute task with its own tile size.
      EXPECT_GT(t.nb, 0) << t.name();
      if (t.nb == 16) saw_level1_compute = true;
    }
  }
  EXPECT_GT(splits, 0);
  EXPECT_GT(merges, 0);
  EXPECT_TRUE(saw_level1_compute);
}

// Simulating the uniform plan graph must be indistinguishable from the
// classic graph (same objects in, same pricing path).
TEST(TilePlan, UniformPlanSimulatesBitForBitLikeClassic) {
  const Platform p = testutil::tiny_hetero();
  const TaskGraph classic = build_cholesky_dag(6, p.nb());
  const TaskGraph planned =
      build_cholesky_dag_plan(TilePlan::uniform(6, p.nb()));
  const auto s1 = sched::make_scheduler("dmdas", classic, p);
  const auto s2 = sched::make_scheduler("dmdas", planned, p);
  EXPECT_EQ(simulate(classic, p, *s1).makespan_s,
            simulate(planned, p, *s2).makespan_s);
}

}  // namespace
}  // namespace hetsched

// Golden regression pins for the TilePlan compatibility contract: on six
// golden platforms, a uniform base-level plan must be bit-for-bit
// indistinguishable from the classic path -- identical DES makespans,
// identical values for every registered bound model, and identical
// compute traces. Any drift here means mixed-nb support leaked into the
// uniform code path (the one every pre-TilePlan workload uses). A second
// pin fixes one auto-tuner result bit-for-bit: any change to the DES, the
// dmdas policy or the tuner's search that moves a rollout shows here.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bounds/bound_model.hpp"
#include "core/cholesky_dag.hpp"
#include "core/tile_plan.hpp"
#include "partition/auto_tune.hpp"
#include "platform/calibration.hpp"
#include "sched/scheduler_registry.hpp"
#include "sim/simulator.hpp"
#include "tests/test_util.hpp"

namespace hetsched {
namespace {

std::vector<std::pair<std::string, Platform>> golden_platforms() {
  std::vector<std::pair<std::string, Platform>> out;
  out.emplace_back("mirage", mirage_platform());
  out.emplace_back("mirage-nocomm", mirage_platform().without_communication());
  out.emplace_back("homogeneous", homogeneous_platform());
  out.emplace_back("related", mirage_related_platform(8));
  out.emplace_back("tiny-hetero", testutil::tiny_hetero());
  out.emplace_back("mirage-degraded",
                   mirage_platform().without_workers({0, 3}));
  return out;
}

TEST(TilePlanGolden, UniformPlanMatchesClassicEverywhere) {
  const int n = 8;
  for (const auto& [label, p] : golden_platforms()) {
    const TaskGraph classic = build_cholesky_dag(n, p.nb());
    const TaskGraph planned =
        build_cholesky_dag_plan(TilePlan::uniform(n, p.nb()));

    for (const std::string& model : bounds::bound_model_names()) {
      EXPECT_EQ(bounds::evaluate_bound_s(model, classic, p),
                bounds::evaluate_bound_s(model, planned, p))
          << label << " bound " << model;
    }

    for (const char* policy : {"dmda", "dmdas", "random"}) {
      RunOptions opt;
      opt.record_trace = true;
      const auto s1 = sched::make_scheduler(policy, classic, p);
      const auto s2 = sched::make_scheduler(policy, planned, p);
      const RunReport a = simulate(classic, p, *s1, opt);
      const RunReport b = simulate(planned, p, *s2, opt);
      ASSERT_TRUE(a.success) << label << " " << policy;
      ASSERT_TRUE(b.success) << label << " " << policy;
      EXPECT_EQ(a.makespan_s, b.makespan_s) << label << " " << policy;
      ASSERT_EQ(a.trace.compute().size(), b.trace.compute().size())
          << label << " " << policy;
      for (std::size_t r = 0; r < a.trace.compute().size(); ++r) {
        const ComputeRecord& x = a.trace.compute()[r];
        const ComputeRecord& y = b.trace.compute()[r];
        EXPECT_EQ(x.task, y.task) << label << " " << policy << " rec " << r;
        EXPECT_EQ(x.worker, y.worker)
            << label << " " << policy << " rec " << r;
        EXPECT_EQ(x.kernel, y.kernel)
            << label << " " << policy << " rec " << r;
        EXPECT_EQ(x.start, y.start) << label << " " << policy << " rec " << r;
        EXPECT_EQ(x.end, y.end) << label << " " << policy << " rec " << r;
      }
    }
  }
}

TEST(TilePlanGolden, AutoTuneMirageNocommDmdas8Tiles) {
  const Platform p = mirage_platform().without_communication();
  const partition::AutoTuneResult r = partition::auto_tune(8, p.nb(), p);
  EXPECT_EQ(r.makespan_s, 0x1.b0e1ec6f031c9p-3);  // 0.21136841501028261 s
  EXPECT_EQ(r.uniform_makespan_s, 0x1.c8eed7f7f3ec0p-3);
  EXPECT_EQ(r.uniform_level, 1);
  EXPECT_EQ(r.rollouts, 161);
  EXPECT_EQ(r.rounds, 3);
  EXPECT_EQ(r.plan.to_text(),
            "8 960\n"
            "1\n"
            "1 1\n"
            "1 1 1\n"
            "2 1 1 1\n"
            "1 1 1 1 1\n"
            "1 1 1 1 1 1\n"
            "1 1 1 1 1 1 2\n"
            "2 1 1 1 1 1 2 2\n");
}

}  // namespace
}  // namespace hetsched

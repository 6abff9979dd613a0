// Bound-model registry, the ALAP bound and bound ratios in RunReport.
#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bounds/bound_model.hpp"
#include "bounds/bounds.hpp"
#include "core/cholesky_dag.hpp"
#include "obs/sink.hpp"
#include "obs/stream.hpp"
#include "platform/calibration.hpp"
#include "sched/dmda.hpp"
#include "sched/priority_sched.hpp"
#include "sched/scheduler_registry.hpp"
#include "sim/simulator.hpp"
#include "tests/test_util.hpp"

namespace hetsched {
namespace {

namespace bm = hetsched::bounds;

TEST(BoundModelRegistry, BuiltInsAreRegistered) {
  const std::vector<std::string> names = bm::bound_model_names();
  for (const char* expected :
       {"gemm-peak", "critical-path", "area", "mixed", "prefix", "alap"}) {
    EXPECT_NE(bm::BoundModelRegistry::instance().find(expected), nullptr)
        << expected;
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  for (const std::string& n : names)
    EXPECT_FALSE(bm::bound_model(n).description().empty()) << n;
}

TEST(BoundModelRegistry, UnknownNameThrowsListingModels) {
  EXPECT_EQ(bm::BoundModelRegistry::instance().find("nope"), nullptr);
  try {
    bm::bound_model("nope");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("nope"), std::string::npos);
    EXPECT_NE(msg.find("mixed"), std::string::npos);
    EXPECT_NE(msg.find("alap"), std::string::npos);
  }
}

// Registered by ReplaceKeepsDisplacedModelAlive; the registry has no way to
// remove it, so later tests over bound_model_names() skip it by name.
constexpr const char* kConstantModelName = "test-constant";

class ConstantModel final : public bm::BoundModel {
 public:
  explicit ConstantModel(double v) : v_(v) {}
  std::string name() const override { return kConstantModelName; }
  std::string description() const override { return "fixed value (tests)"; }
  double lower_bound_s(const TaskGraph&, const Platform&) const override {
    return v_;
  }

 private:
  double v_;
};

TEST(BoundModelRegistry, ReplaceKeepsDisplacedModelAlive) {
  auto& reg = bm::BoundModelRegistry::instance();
  reg.register_model(std::make_unique<ConstantModel>(1.0));
  const bm::BoundModel* first = reg.find(kConstantModelName);
  ASSERT_NE(first, nullptr);
  reg.register_model(std::make_unique<ConstantModel>(2.0));
  const bm::BoundModel* second = reg.find(kConstantModelName);
  ASSERT_NE(second, nullptr);
  EXPECT_NE(first, second);
  // The displaced model is parked, not destroyed: old pointers stay usable.
  const TaskGraph g = testutil::chain4();
  const Platform p = testutil::tiny_hetero();
  EXPECT_DOUBLE_EQ(first->lower_bound_s(g, p), 1.0);
  EXPECT_DOUBLE_EQ(second->lower_bound_s(g, p), 2.0);
  EXPECT_DOUBLE_EQ(bm::evaluate_bound_s(kConstantModelName, g, p), 2.0);
}

// ---- ALAP analysis --------------------------------------------------------

TEST(AlapAnalysis, ChainHasZeroSlackEverywhere) {
  // chain4 on tiny_hetero at fastest times: POTRF 2, TRSM 1, SYRK 1,
  // POTRF 2 -> critical path 6, every task on it.
  const TaskGraph g = testutil::chain4();
  const bm::AlapAnalysis a =
      bm::alap_analysis(g, testutil::tiny_hetero().timings());
  EXPECT_DOUBLE_EQ(a.critical_path_s, 6.0);
  ASSERT_EQ(a.slack.size(), 4u);
  for (const double s : a.slack) EXPECT_DOUBLE_EQ(s, 0.0);
  EXPECT_DOUBLE_EQ(a.est[0], 0.0);
  EXPECT_DOUBLE_EQ(a.est[1], 2.0);
  EXPECT_DOUBLE_EQ(a.est[2], 3.0);
  EXPECT_DOUBLE_EQ(a.est[3], 4.0);
}

TEST(AlapAnalysis, SideBranchCarriesTheSlack) {
  // POTRF(2) -> { TRSM(1) -> SYRK(1) -> POTRF(2) ; GEMM(1) }: the GEMM can
  // start at 2 but may defer to 5 (critical path 6, bottom level 1).
  TaskGraph g;
  const int a = g.add_task(Kernel::POTRF, 0, -1, -1, 1.0);
  const int b = g.add_task(Kernel::TRSM, 0, 1, -1, 1.0);
  const int c = g.add_task(Kernel::SYRK, 0, -1, 1, 1.0);
  const int d = g.add_task(Kernel::POTRF, 1, -1, -1, 1.0);
  const int e = g.add_task(Kernel::GEMM, 0, 2, 0, 1.0);
  g.add_edge(a, b);
  g.add_edge(b, c);
  g.add_edge(c, d);
  g.add_edge(a, e);
  const bm::AlapAnalysis an =
      bm::alap_analysis(g, testutil::tiny_hetero().timings());
  EXPECT_DOUBLE_EQ(an.critical_path_s, 6.0);
  EXPECT_DOUBLE_EQ(an.slack[static_cast<std::size_t>(a)], 0.0);
  EXPECT_DOUBLE_EQ(an.slack[static_cast<std::size_t>(d)], 0.0);
  EXPECT_DOUBLE_EQ(an.est[static_cast<std::size_t>(e)], 2.0);
  EXPECT_DOUBLE_EQ(an.alap_start[static_cast<std::size_t>(e)], 5.0);
  EXPECT_DOUBLE_EQ(an.slack[static_cast<std::size_t>(e)], 3.0);
}

// ---- ALAP bound dominance -------------------------------------------------

std::vector<std::pair<std::string, Platform>> seeded_platforms() {
  std::vector<std::pair<std::string, Platform>> out;
  out.emplace_back("mirage", mirage_platform());
  out.emplace_back("mirage-nocomm", mirage_platform().without_communication());
  out.emplace_back("homogeneous", homogeneous_platform(9));
  out.emplace_back("related-8", mirage_related_platform(8));
  out.emplace_back("tiny-hetero", testutil::tiny_hetero());
  out.emplace_back("tiny-homog", testutil::tiny_homog(3));
  return out;
}

TEST(AlapBound, DominatesCriticalPathAndMixedOnAllSeededPlatforms) {
  for (const auto& [name, p] : seeded_platforms()) {
    for (const int n : {1, 2, 4, 6, 8, 12}) {
      const TaskGraph g = build_cholesky_dag(n);
      const double alap = bm::alap_bound_s(g, p);
      const double cp = critical_path_seconds(g, p.timings());
      const double mixed = mixed_bound(n, p).makespan_s;
      // The y = 0 level set reproduces both terms exactly, so dominance is
      // by construction -- no tolerance needed.
      EXPECT_GE(alap, cp) << name << " n=" << n;
      EXPECT_GE(alap, mixed) << name << " n=" << n;
    }
  }
}

TEST(AlapBound, MatchesMixedExactlyOnHandCheckedSmallCases) {
  // At 2x2 and 3x3 tiles on mirage the diagonal chain dominates every
  // level set: d-thresholds above 0 only shrink the histogram while the
  // induced critical path keeps the whole chain, so each term stays at or
  // below the y = 0 one and the ALAP bound collapses onto the mixed bound
  // (which itself equals the critical path here -- the chain POTRF(0),
  // TRSM, SYRK, POTRF(1), ... is the longest path and also the LP's
  // binding constraint).
  const Platform p = mirage_platform();
  for (const int n : {2, 3}) {
    const TaskGraph g = build_cholesky_dag(n);
    const double alap = bm::alap_bound_s(g, p);
    const double mixed = mixed_bound(n, p).makespan_s;
    const double cp = critical_path_seconds(g, p.timings());
    // The LP reaches the chain value through pivoting arithmetic, so it
    // agrees with the directly-summed critical path only to roundoff...
    EXPECT_NEAR(mixed, cp, 1e-12 * cp) << n;
    // ...but the ALAP bound takes its y = 0 term *from the same LP*, so
    // agreement with the mixed bound is exact.
    EXPECT_DOUBLE_EQ(alap, mixed) << n;
  }
}

TEST(AlapBound, StrictlyTighterThanMixedAtSomeSmallSize) {
  // Acceptance criterion of the registry refactor: the ALAP level sets add
  // information over the single mixed LP for at least one n <= 16 on the
  // paper's platform (empirically n = 8..16, peaking near n = 10).
  const Platform p = mirage_platform();
  bool strict = false;
  for (const int n : {4, 6, 8, 10, 12, 16}) {
    const TaskGraph g = build_cholesky_dag(n);
    const double alap = bm::alap_bound_s(g, p);
    const double mixed = mixed_bound(n, p).makespan_s;
    EXPECT_GE(alap, mixed) << n;
    if (alap > mixed * (1.0 + 1e-9)) strict = true;
  }
  EXPECT_TRUE(strict);
}

TEST(BoundModels, RegistryAgreesWithDirectEvaluations) {
  const Platform p = mirage_platform();
  const int n = 6;
  const TaskGraph g = build_cholesky_dag(n);
  EXPECT_DOUBLE_EQ(bm::evaluate_bound_s("critical-path", g, p),
                   critical_path_seconds(g, p.timings()));
  EXPECT_DOUBLE_EQ(bm::evaluate_bound_s("area", g, p),
                   area_bound(n, p).makespan_s);
  EXPECT_DOUBLE_EQ(bm::evaluate_bound_s("mixed", g, p),
                   mixed_bound(n, p).makespan_s);
  EXPECT_DOUBLE_EQ(bm::evaluate_bound_s("prefix", g, p), prefix_bound(n, p));
  EXPECT_DOUBLE_EQ(bm::evaluate_bound_s("alap", g, p), bm::alap_bound_s(g, p));
}

TEST(BoundModels, NoModelExceedsASimulatedMakespan) {
  // A lower bound holds against every schedule, so no registered model may
  // exceed the makespan dmdas achieves on the same graph and platform.
  const Platform p = mirage_platform().without_communication();
  for (const int n : {1, 2, 4, 6, 8, 12, 16}) {
    const TaskGraph g = build_cholesky_dag(n);
    auto dmdas = sched::make_scheduler("dmdas", g, p);
    const RunReport r = simulate(g, p, *dmdas);
    ASSERT_TRUE(r.success) << r.error;
    for (const std::string& m : bm::bound_model_names()) {
      if (m == kConstantModelName) continue;
      EXPECT_LE(bm::evaluate_bound_s(m, g, p), r.makespan_s + 1e-9)
          << m << " n=" << n;
    }
  }
}

TEST(BoundModels, PrefixRejectsNonCholeskyHistograms) {
  // The prefix bound is Cholesky-specific: a graph whose histogram is not
  // cholesky_histogram(n) for any n must be rejected, not mispriced.
  EXPECT_THROW(bm::evaluate_bound_s("prefix", testutil::independent_gemms(3),
                                    testutil::tiny_hetero()),
               std::invalid_argument);
}

// ---- runtime / metrics threading ------------------------------------------

TEST(RunReportBounds, UnknownModelFailsValidation) {
  const TaskGraph g = build_cholesky_dag(2);
  const Platform p = mirage_platform();
  CentralPriorityScheduler s;
  RunOptions opt;
  opt.bound_models = {"mixed", "definitely-not-a-model"};
  EXPECT_THROW(simulate(g, p, s, opt), std::invalid_argument);
}

TEST(RunReportBounds, ReportStreamAndRecomputationAgreeBitForBit) {
  // No-communication platform so the streamed running makespan (max
  // compute end) equals the DES makespan; with dropped_events == 0 the
  // three ratio computations must then be the identical double division.
  const Platform p = mirage_platform().without_communication();
  const int n = 6;
  const TaskGraph g = build_cholesky_dag(n);
  const std::vector<std::string> models = {"critical-path", "mixed", "alap"};

  std::vector<std::pair<std::string, double>> named;
  for (const std::string& m : models)
    named.emplace_back(m, bounds::evaluate_bound_s(m, g, p));

  obs::MetricsAggregator metrics;
  metrics.configure(p);
  metrics.set_reference_bounds(named);
  obs::TraceStreamer streamer;
  streamer.add_sink(&metrics);

  DmdaScheduler s = make_dmdas(g, p);
  RunOptions opt;
  opt.bound_models = models;
  opt.stream = &streamer;
  const RunReport r = simulate(g, p, s, opt);
  ASSERT_TRUE(r.success);
  ASSERT_EQ(r.dropped_events, 0);

  const obs::MetricsSnapshot snap = metrics.snapshot();
  ASSERT_EQ(snap.makespan_s, r.makespan_s);
  ASSERT_EQ(snap.bound_ratios.size(), models.size());
  ASSERT_EQ(r.bound_ratios.size(), models.size());
  for (std::size_t i = 0; i < models.size(); ++i) {
    const double recomputed = r.makespan_s / named[i].second;  // post-run
    const auto it = r.bound_ratios.find(models[i]);
    ASSERT_NE(it, r.bound_ratios.end()) << models[i];
    // EXPECT_EQ, not NEAR: same division, bit-identical results.
    EXPECT_EQ(it->second, recomputed) << models[i];
    EXPECT_EQ(snap.bound_ratios[i].first, models[i]);
    EXPECT_EQ(snap.bound_ratios[i].second, recomputed) << models[i];
    EXPECT_GE(it->second, 1.0) << models[i];  // a valid lower bound
  }
}

}  // namespace
}  // namespace hetsched

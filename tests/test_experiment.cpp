// Unit tests of the declarative experiment runner the bench binaries and
// the CLI sweep are built on.
#include "runtime/experiment.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/cholesky_dag.hpp"
#include "core/flops.hpp"
#include "platform/calibration.hpp"
#include "sched/scheduler_registry.hpp"
#include "sim/simulator.hpp"

namespace hetsched {
namespace {

Experiment tiny_experiment() {
  Experiment e;
  e.title = "tiny";
  e.sizes = {2, 3};
  e.platform = [](int) { return homogeneous_platform(3); };
  SeriesSpec dmda;
  dmda.name = "dmda";
  dmda.scheduler = "dmda";
  e.series.push_back(dmda);
  return e;
}

TEST(Experiment, SchedulerSeriesMatchesDirectSimulation) {
  const ExperimentTable t = run_experiment(tiny_experiment());
  ASSERT_EQ(t.sizes.size(), 2u);
  ASSERT_EQ(t.cells.size(), 2u);
  const Platform p = homogeneous_platform(3);
  for (std::size_t r = 0; r < t.sizes.size(); ++r) {
    const int n = t.sizes[r];
    const TaskGraph g = build_cholesky_dag(n);
    auto s = sched::make_scheduler("dmda", g, p);
    RunOptions opt;
    opt.record_trace = false;
    const double expect =
        gflops(n, p.nb(), simulate(g, p, *s, opt).makespan_s);
    EXPECT_DOUBLE_EQ(t.cells[r][0].mean, expect);
    EXPECT_EQ(t.cells[r][0].sd, 0.0);  // single run
  }
}

TEST(Experiment, DerivedSeriesSeesTheRowBuiltSoFar) {
  Experiment e = tiny_experiment();
  SeriesSpec twice;
  twice.name = "twice";
  twice.value = [](int, const TaskGraph&, const Platform&,
                   const std::vector<ExperimentCell>& row) {
    return 2.0 * row[0].mean;
  };
  e.series.push_back(twice);
  const ExperimentTable t = run_experiment(e);
  for (const auto& row : t.cells)
    EXPECT_DOUBLE_EQ(row[1].mean, 2.0 * row[0].mean);
}

TEST(Experiment, ScaleAppliesToMeanAndSd) {
  Experiment e = tiny_experiment();
  e.series[0].runs = 5;  // non-zero sd via the per-run seeds
  e.series[0].options.noise_cv = 0.05;
  e.series[0].scale = [](int, const TaskGraph&, const Platform&) {
    return 3.0;
  };
  Experiment unscaled = e;
  unscaled.series[0].scale = {};
  const ExperimentTable a = run_experiment(e);
  const ExperimentTable b = run_experiment(unscaled);
  for (std::size_t r = 0; r < a.cells.size(); ++r) {
    EXPECT_DOUBLE_EQ(a.cells[r][0].mean, 3.0 * b.cells[r][0].mean);
    EXPECT_DOUBLE_EQ(a.cells[r][0].sd, 3.0 * b.cells[r][0].sd);
    EXPECT_GT(b.cells[r][0].sd, 0.0);
  }
}

TEST(Experiment, RepeatAveragedIsSeededAndDeterministic) {
  const int n = 4;
  const TaskGraph g = build_cholesky_dag(n);
  const Platform p = homogeneous_platform(3);
  RunOptions opt;
  opt.noise_cv = 0.03;
  const ExperimentCell a = repeat_averaged("random", g, p, n, opt, 6, {}, {});
  const ExperimentCell b = repeat_averaged("random", g, p, n, opt, 6, {}, {});
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.sd, b.sd);
  EXPECT_GT(a.sd, 0.0);
}

TEST(Experiment, RegistryRejectsUnknownSchedulerNames) {
  const TaskGraph g = build_cholesky_dag(2);
  const Platform p = homogeneous_platform(2);
  EXPECT_THROW(sched::make_scheduler("nope", g, p), std::invalid_argument);
  for (const char* name : {"random", "eager", "ws", "dmda", "dmdas"}) {
    EXPECT_NE(sched::make_scheduler(name, g, p), nullptr) << name;
  }
}

TEST(Experiment, UnknownSchedulerSpecFailsBeforeAnyCellRuns) {
  Experiment e = tiny_experiment();
  SeriesSpec bogus;
  bogus.name = "bogus";
  bogus.scheduler = "no-such-policy";
  e.series.push_back(bogus);
  try {
    run_experiment(e);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& err) {
    // The error carries the full registered-name list.
    EXPECT_NE(std::string(err.what()).find("dmda"), std::string::npos)
        << err.what();
  }
}

TEST(Experiment, TextRenderingKeepsTheBenchTableShape) {
  ExperimentTable t;
  t.title = "demo";
  t.columns = {"a", "b"};
  t.show_sd = {false, true};
  t.precision = {1, 1};
  t.sizes = {4};
  t.cells = {{{12.25, 0.0}, {3.5, 0.75}}};
  t.footnote = "note";
  const std::string text = t.text();
  EXPECT_NE(text.find("# demo\n"), std::string::npos);
  EXPECT_NE(text.find("size"), std::string::npos);
  EXPECT_NE(text.find("      12.2"), std::string::npos)
      << text;  // %16.1f column (round-to-even)
  EXPECT_NE(text.find("3.5+-  0.8"), std::string::npos) << text;  // sd cell
  EXPECT_NE(text.find("\nnote\n"), std::string::npos);
}

TEST(Experiment, CsvAndJsonCarryEveryCell) {
  ExperimentTable t;
  t.title = "demo";
  t.columns = {"a"};
  t.show_sd = {false};
  t.precision = {1};
  t.sizes = {4, 8};
  t.cells = {{{1.5, 0.25}}, {{2.5, 0.5}}};
  const std::string csv = t.csv();
  EXPECT_NE(csv.find("size,a_mean,a_sd\n"), std::string::npos);
  EXPECT_NE(csv.find("4,1.5,0.25\n"), std::string::npos);
  EXPECT_NE(csv.find("8,2.5,0.5\n"), std::string::npos);
  const std::string json = t.json();
  EXPECT_NE(json.find("\"experiment\": \"demo\""), std::string::npos);
  EXPECT_NE(json.find("{\"size\": 4, \"series\": \"a\", \"mean\": 1.5, "
                      "\"sd\": 0.25}"),
            std::string::npos)
      << json;
}

TEST(Experiment, SeriesWithoutSchedulerOrValueIsRejected) {
  Experiment e = tiny_experiment();
  SeriesSpec bad;
  bad.name = "bad";
  e.series.push_back(bad);
  EXPECT_THROW(run_experiment(e), std::invalid_argument);
}

}  // namespace
}  // namespace hetsched

// partition::auto_tune: the never-worse-than-uniform guarantee, exact
// agreement with a serial greedy written here on top of
// rollout_makespan_s (the tuner rolls each round's candidates out on
// several threads, which must not change the plan, the makespan or the
// rollout count), and the exception contract of those threads.
#include "partition/auto_tune.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "platform/calibration.hpp"
#include "tests/test_util.hpp"

namespace hetsched {
namespace {

bool deepen(TilePlan& plan, int i, int j, int max_level) {
  const int l = plan.level(i, j);
  if (l >= max_level || plan.base_nb % (1 << (l + 1)) != 0) return false;
  plan.set_level(i, j, l + 1);
  return true;
}

/// The tuner's algorithm as a plain serial scan: best uniform seed, then
/// per round every trailing-submatrix move and every single-cell move in
/// that order, keeping the first strictly best improvement.
partition::AutoTuneResult serial_auto_tune(
    int n_tiles, int base_nb, const Platform& p,
    const partition::AutoTuneOptions& opt) {
  partition::AutoTuneResult res;
  for (int l = 0; l <= opt.max_level; ++l) {
    if (base_nb % (1 << l) != 0) break;
    const TilePlan cand = TilePlan::uniform(n_tiles, base_nb, l);
    const double ms = partition::rollout_makespan_s(cand, p, opt.policy);
    ++res.rollouts;
    if (l == 0 || ms < res.makespan_s) {
      res.plan = cand;
      res.makespan_s = ms;
      res.uniform_level = l;
    }
  }
  res.uniform_makespan_s = res.makespan_s;
  for (int round = 0; round < opt.max_rounds; ++round) {
    TilePlan best_plan;
    double best_ms = res.makespan_s;
    const auto consider = [&](const TilePlan& cand) {
      const double ms = partition::rollout_makespan_s(cand, p, opt.policy);
      ++res.rollouts;
      if (ms < best_ms) {
        best_ms = ms;
        best_plan = cand;
      }
    };
    for (int kk = 0; kk < n_tiles; ++kk) {
      TilePlan cand = res.plan;
      bool changed = false;
      for (int i = kk; i < n_tiles; ++i)
        for (int j = kk; j <= i; ++j)
          changed = deepen(cand, i, j, opt.max_level) || changed;
      if (changed) consider(cand);
    }
    for (int i = 0; i < n_tiles; ++i)
      for (int j = 0; j <= i; ++j) {
        TilePlan cand = res.plan;
        if (deepen(cand, i, j, opt.max_level)) consider(cand);
      }
    if (best_plan.n_tiles == 0 ||
        best_ms >= res.makespan_s * (1.0 - opt.min_gain))
      break;
    res.plan = best_plan;
    res.makespan_s = best_ms;
    res.rounds = round + 1;
  }
  return res;
}

TEST(AutoTune, NeverWorseThanBestUniformAndReproducible) {
  const Platform p = testutil::tiny_hetero();
  partition::AutoTuneOptions opt;
  opt.policy = "dmdas";
  const partition::AutoTuneResult res = partition::auto_tune(4, p.nb(), p, opt);
  EXPECT_EQ(res.plan.validate(), "");
  EXPECT_LE(res.makespan_s, res.uniform_makespan_s);
  // The reported makespan is the plan's actual rollout value (same DES,
  // deterministic), and the seed level's uniform rollout matches too.
  EXPECT_EQ(partition::rollout_makespan_s(res.plan, p, "dmdas"),
            res.makespan_s);
  EXPECT_EQ(partition::rollout_makespan_s(
                TilePlan::uniform(4, p.nb(), res.uniform_level), p, "dmdas"),
            res.uniform_makespan_s);
  EXPECT_GE(res.rollouts, 1);
}

TEST(AutoTune, ParallelRoundsMatchSerialGreedy) {
  struct Case {
    std::string label;
    Platform p;
    int n_tiles;
  };
  const std::vector<Case> cases = {
      {"tiny-hetero", testutil::tiny_hetero(), 4},
      {"tiny-hetero", testutil::tiny_hetero(), 6},
      {"mirage-nocomm", mirage_platform().without_communication(), 8},
  };
  const partition::AutoTuneOptions opt;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.label + " " + std::to_string(c.n_tiles) + " tiles");
    const partition::AutoTuneResult want =
        serial_auto_tune(c.n_tiles, c.p.nb(), c.p, opt);
    const partition::AutoTuneResult got =
        partition::auto_tune(c.n_tiles, c.p.nb(), c.p, opt);
    EXPECT_EQ(got.plan, want.plan);
    EXPECT_EQ(got.makespan_s, want.makespan_s);
    EXPECT_EQ(got.uniform_makespan_s, want.uniform_makespan_s);
    EXPECT_EQ(got.uniform_level, want.uniform_level);
    EXPECT_EQ(got.rollouts, want.rollouts);
    EXPECT_EQ(got.rounds, want.rounds);
  }
}

// Every candidate's rollout throws on a worker thread; the tuner must
// join them all and rethrow on the caller instead of terminating.
TEST(AutoTune, RolloutExceptionsReachTheCaller) {
  const Platform p = testutil::tiny_hetero();
  partition::AutoTuneOptions opt;
  opt.policy = "dmdas:bogus=1";
  EXPECT_THROW(partition::auto_tune(4, p.nb(), p, opt), std::invalid_argument);
  opt.policy = "no-such-policy";
  EXPECT_THROW(partition::auto_tune(4, p.nb(), p, opt), std::invalid_argument);
}

}  // namespace
}  // namespace hetsched

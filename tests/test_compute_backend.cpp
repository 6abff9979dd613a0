// The one numeric compute backend: a borrowing PlanStorage addresses the
// caller's TileMatrix tiles in place, and every real-execution route --
// execute_parallel, execute_with_scheduler, the plan executor under a
// uniform TilePlan and a serving batch -- produces the bit-identical
// factor of the sequential tiled reference, with the pack cache on and
// off.
#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/cholesky_dag.hpp"
#include "core/plan_storage.hpp"
#include "core/tile_matrix.hpp"
#include "core/tile_plan.hpp"
#include "core/tiled_cholesky.hpp"
#include "exec/parallel_executor.hpp"
#include "exec/plan_executor.hpp"
#include "exec/scheduled_executor.hpp"
#include "platform/calibration.hpp"
#include "runtime/engine.hpp"
#include "sched/dmda.hpp"
#include "sched/priority_sched.hpp"
#include "serve/batch.hpp"

namespace hetsched {
namespace {

using Mode = kernels::PackCacheOptions::Mode;

// ---- borrowing PlanStorage -------------------------------------------------

TEST(BorrowingPlanStorage, BlocksAreTheMatrixTiles) {
  const int n = 4, nb = 8;
  TileMatrix a(n, nb), b(n, nb), c(n, nb);
  const std::vector<TileMatrix*> mats = {&a, &b, &c};
  PlanStorage s(mats);
  const int per = num_lower_tiles(n);
  ASSERT_EQ(s.layout().num_handles(), 3 * per);
  EXPECT_EQ(s.layout().n_tiles, n);
  EXPECT_EQ(s.layout().base_nb, nb);
  for (int j = 0; j < 3; ++j)
    for (int r = 0; r < n; ++r)
      for (int col = 0; col <= r; ++col) {
        const int h = j * per + tile_linear_index(r, col);
        EXPECT_EQ(s.block(h), mats[static_cast<std::size_t>(j)]->tile(r, col))
            << "job " << j << " tile (" << r << ", " << col << ")";
        EXPECT_EQ(s.block_nb(h), nb);
        EXPECT_TRUE(s.canonical(h));
      }
}

TEST(BorrowingPlanStorage, RejectsMixedShapesAndMissingMatrices) {
  TileMatrix a(4, 8), other_tiles(5, 8), other_nb(4, 16);
  EXPECT_THROW(PlanStorage(std::vector<TileMatrix*>{&a, &other_tiles}),
               std::invalid_argument);
  EXPECT_THROW(PlanStorage(std::vector<TileMatrix*>{&a, &other_nb}),
               std::invalid_argument);
  EXPECT_THROW(PlanStorage(std::vector<TileMatrix*>{&a, nullptr}),
               std::invalid_argument);
  EXPECT_THROW(PlanStorage(std::vector<TileMatrix*>{}), std::invalid_argument);
}

TEST(BorrowingPlanStorage, ImportAndExportThrow) {
  TileMatrix a(3, 8), io(3, 8);
  PlanStorage s(std::vector<TileMatrix*>{&a});
  EXPECT_THROW(s.import_from(io), std::logic_error);
  EXPECT_THROW(s.export_to(io), std::logic_error);
}

// ---- cross-route bit identity ----------------------------------------------

/// Byte-wise equality of every lower tile.
bool same_lower_tiles(const TileMatrix& x, const TileMatrix& y) {
  for (int i = 0; i < x.n_tiles(); ++i)
    for (int j = 0; j <= i; ++j)
      if (std::memcmp(x.tile(i, j), y.tile(i, j), x.tile_bytes()) != 0)
        return false;
  return true;
}

struct RouteCase {
  int nb;
  Mode cache;
};

class ComputeRoutes : public ::testing::TestWithParam<RouteCase> {};

TEST_P(ComputeRoutes, EveryRouteMatchesSequentialBitForBit) {
  const auto [nb, cache] = GetParam();
  const int n = 6, threads = 3;
  const unsigned seed = 11;
  TileMatrix ref = TileMatrix::synthetic_spd(n, nb, seed);
  ASSERT_TRUE(tiled_cholesky_sequential(ref));
  const TaskGraph g = build_cholesky_dag(n, nb);
  const Platform calib = homogeneous_platform(threads);

  ExecOptions eopt;
  eopt.num_threads = threads;
  eopt.record_trace = false;
  eopt.pack_cache.mode = cache;
  RunOptions ropt;
  ropt.record_trace = false;
  ropt.pack_cache.mode = cache;

  {
    TileMatrix m = TileMatrix::synthetic_spd(n, nb, seed);
    const RunReport r = execute_parallel(m, g, eopt);
    ASSERT_TRUE(r.success) << r.error;
    EXPECT_TRUE(same_lower_tiles(m, ref)) << "execute_parallel";
  }
  {
    TileMatrix m = TileMatrix::synthetic_spd(n, nb, seed);
    DmdaScheduler sched = make_dmda();
    const RunReport r = execute_with_scheduler(m, g, calib, sched, threads,
                                               ropt);
    ASSERT_TRUE(r.success) << r.error;
    EXPECT_TRUE(same_lower_tiles(m, ref)) << "execute_with_scheduler dmda";
  }
  {
    TileMatrix m = TileMatrix::synthetic_spd(n, nb, seed);
    const RunReport r = execute_plan_parallel(m, TilePlan::uniform(n, nb),
                                              eopt);
    ASSERT_TRUE(r.success) << r.error;
    EXPECT_TRUE(same_lower_tiles(m, ref)) << "execute_plan_parallel";
  }
  {
    TileMatrix m = TileMatrix::synthetic_spd(n, nb, seed);
    const serve::BatchPlan plan = serve::build_batch_plan(1, n, nb);
    PlanStorage blocks(std::vector<TileMatrix*>{&m});
    serve::BatchComputeBackend backend(plan, blocks, {nullptr});
    CentralPriorityScheduler sched;
    RunEngine engine(plan.graph, calib, sched, ropt);
    const RunReport r = engine.run(backend);
    ASSERT_TRUE(r.success) << r.error;
    ASSERT_EQ(backend.results().front().outcome, serve::JobRunOutcome::kOk);
    EXPECT_TRUE(same_lower_tiles(m, ref)) << "one-job batch";
  }
}

INSTANTIATE_TEST_SUITE_P(
    NbAndCache, ComputeRoutes,
    ::testing::Values(RouteCase{40, Mode::kOn}, RouteCase{40, Mode::kOff},
                      RouteCase{64, Mode::kOn}, RouteCase{64, Mode::kOff},
                      RouteCase{96, Mode::kOn}, RouteCase{96, Mode::kOff}),
    [](const ::testing::TestParamInfo<RouteCase>& info) {
      return "nb" + std::to_string(info.param.nb) +
             (info.param.cache == Mode::kOn ? "_cache_on" : "_cache_off");
    });

}  // namespace
}  // namespace hetsched

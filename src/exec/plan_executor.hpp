// Real execution of variable tile-size (TilePlan) Cholesky graphs: the
// plan is lowered with build_cholesky_dag_plan, the matrix is imported
// into a PlanStorage (contiguous per-handle blocks), and the mixed-nb
// DAG -- SPLIT/MERGE repacks included -- runs on the same wall-clock
// runtime as the classic executors, with per-region pack geometry.
//
// The process keeps one plan slot: the last plan's lowered graph and one
// idle PlanStorage for it. A call whose plan equals the slot's checks that
// storage out and skips the lowering and the allocation; a call with
// another plan, or one that finds the storage busy, builds its own. Every
// storage goes back when its call ends, on every exit path, and the last
// one returned replaces the slot's. The slot therefore holds on to one
// storage (31.4 MiB for 8 x 8 cells of nb = 256 with the columns 4-7
// split) until the process exits. Reuse changes no result: each call
// re-imports every canonical block, and the only regions no call writes
// (strict-upper blocks of merged diagonal views) stay at their first
// zeros.
#pragma once

#include "core/task_graph.hpp"
#include "core/tile_matrix.hpp"
#include "core/tile_plan.hpp"
#include "exec/parallel_executor.hpp"
#include "platform/platform.hpp"
#include "runtime/options.hpp"
#include "runtime/run_report.hpp"
#include "sim/scheduler.hpp"

namespace hetsched {

/// Factorizes `a` in place under `plan`, scheduling with `sched` on
/// `num_threads` real threads (estimates from `calibration`, which must
/// model exactly num_threads workers). On success the factor is copied
/// back into `a`; on failure (non-SPD pivot, starvation) `a` keeps its
/// input contents and the error is reported through the result.
RunReport execute_plan_with_scheduler(TileMatrix& a, const TilePlan& plan,
                                      const Platform& calibration,
                                      Scheduler& sched, int num_threads,
                                      const RunOptions& opt = {});

/// Thread-pool variant mirroring execute_parallel: homogeneous
/// calibration sized to the pool, central priority queue (submission
/// order unless opt.priorities says otherwise).
RunReport execute_plan_parallel(TileMatrix& a, const TilePlan& plan,
                                const ExecOptions& opt = {});

}  // namespace hetsched

// Real execution of variable tile-size (TilePlan) Cholesky graphs: the
// plan is lowered with build_cholesky_dag_plan, a PlanStorage of its
// layout is bound to the caller's matrix (every canonical handle is a
// window into one of its tiles, ld = base_nb), and the mixed-nb DAG --
// SPLIT/MERGE repacks into the storage's own view blocks included -- runs
// in place on the same wall-clock runtime as the classic executors, with
// per-region pack geometry.
//
// The process keeps one plan slot: the last plan's lowered graph and one
// idle, unbound PlanStorage for it (its view blocks and its first-write
// journal). A call whose plan equals the slot's checks that storage out
// and skips the lowering and the allocation; a call with another plan, or
// one that finds the storage busy, builds its own. Every storage goes back
// unbound when its call ends, on every exit path, so the slot keeps no
// pointer into a caller's matrix, and the last one returned replaces the
// slot's. The slot therefore holds on to one storage (31.4 MiB for 8 x 8
// cells of nb = 256 with the columns 4-7 split) until the process exits.
// Reuse changes no result: every view region a kernel reads is rewritten
// by its repack, the journal is cleared at bind, and the only regions no
// call writes (strict-upper blocks of merged diagonal views) stay at their
// first zeros.
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
/// model exactly num_threads workers). Throws std::invalid_argument when
/// `a` does not have the plan's n_tiles/base_nb. On success `a` holds the
/// factor. On failure (non-SPD pivot, starvation, cancellation, exhausted
/// fault budget, or an exception out of the run) `a` keeps its input
/// contents: the first task writing each canonical handle journals that
/// handle's contents first, and the call copies the journal back before it
/// returns or rethrows. The error is reported through the result.
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

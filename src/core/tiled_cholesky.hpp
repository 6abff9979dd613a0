// Numeric tiled Cholesky: the sequential reference routine and a per-task
// dispatch on TileMatrix coordinates, which the tests compare the parallel
// runtime against (the runtime itself dispatches through
// execute_plan_task_checked on a PlanStorage).
#pragma once

#include "core/task_graph.hpp"
#include "core/tile_matrix.hpp"

namespace hetsched {

/// Executes one DAG task numerically on the tiles of `a`, addressed by the
/// task's (k, i, j). Returns false only for POTRF on a non-SPD diagonal
/// tile.
bool execute_task(TileMatrix& a, const Task& t);

/// Sequential tiled Cholesky (Algorithm 1): factorizes `a` in place into its
/// lower Cholesky factor. Returns false if the matrix is not positive
/// definite.
bool tiled_cholesky_sequential(TileMatrix& a);

/// Runs the tasks of a prebuilt DAG in the given order (must be a valid
/// topological order); used to check that any legal schedule computes the
/// same factor. Returns false on a non-SPD pivot.
bool execute_in_order(TileMatrix& a, const TaskGraph& g,
                      const std::vector<int>& order);

}  // namespace hetsched

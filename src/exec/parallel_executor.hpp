// Real (wall-clock) parallel execution of the tiled Cholesky DAG with our
// numeric kernels -- the "actual execution" backend for homogeneous CPU
// runs. A pool of worker threads drains a priority-ordered ready queue
// (priorities default to submission order); dependencies are released as
// tasks complete, exactly like the simulated runtime but on real data.
// Since the runtime unification this is a thin wrapper: it forwards to
// execute_with_scheduler under a homogeneous calibration and a
// CentralPriorityScheduler (see docs/runtime.md).
//
// Heterogeneous "actual" curves of the paper require GPUs we do not have;
// those are emulated in the simulator (see DESIGN.md substitution table).
#pragma once

#include <vector>

#include "core/task_graph.hpp"
#include "core/tile_matrix.hpp"
#include "runtime/cancel.hpp"
#include "runtime/run_report.hpp"

namespace hetsched {

struct ExecOptions {
  int num_threads = 4;
  /// Task priorities (higher first); empty = submission order.
  std::vector<double> priorities;
  /// Record a wall-clock Gantt trace.
  bool record_trace = true;
  /// Cooperative cancellation / deadline (see runtime/cancel.hpp). Not
  /// owned; nullptr (the default) leaves the run unchanged. A fired token
  /// reports RunErrorKind::Cancelled / DeadlineExceeded via the result.
  CancelToken* cancel = nullptr;
};

/// Factorizes `a` in place by executing the tasks of `g` on a thread pool.
/// `g` must be the Cholesky DAG matching a's tile count. Throws
/// std::invalid_argument when opt.num_threads <= 0; a numeric failure
/// (non-SPD POTRF pivot) is reported through the result
/// (success = false, error_kind = Numeric).
RunReport execute_parallel(TileMatrix& a, const TaskGraph& g,
                           const ExecOptions& opt = {});

}  // namespace hetsched

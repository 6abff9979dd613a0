// Batch mode of the serving layer: many small factorization jobs sharing
// one (tiles, nb) geometry fused into a single task graph driven by one
// scheduler instance (docs/serving.md).
//
// The fused graph is B disjoint copies of the single-job Cholesky DAG
// (task and tile handles offset per job), so one RunEngine run schedules
// every job's tasks through one worker pool: graph construction is
// amortized and workers never idle between jobs.
//
// Failure isolation is per job, not per batch: a job whose CancelToken
// fires (deadline, shutdown) or whose POTRF hits a non-SPD pivot is
// *poisoned* -- its remaining tasks complete as no-ops -- and the batch
// run carries on for everyone else. This also makes fault recovery safe
// under cancellation: an orphaned task re-pushed after a worker death
// cannot resurrect a poisoned job, because the no-op check runs at every
// attempt.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/plan_storage.hpp"
#include "core/task_graph.hpp"
#include "runtime/cancel.hpp"
#include "runtime/threaded_backend.hpp"

namespace hetsched::serve {

/// The fused DAG of one batch plus the task -> job mapping.
struct BatchPlan {
  TaskGraph graph;
  std::vector<int> job_of;    ///< fused task id -> job index
  int jobs = 0;
  int tasks_per_job = 0;
  int tiles = 0;
  int nb = 0;
};

/// Builds the fused graph of `jobs` independent Cholesky factorizations
/// of `tiles` x `tiles` matrices with `nb` x `nb` tiles.
BatchPlan build_batch_plan(int jobs, int tiles, int nb);

/// Per-job outcome of one batch run.
enum class JobRunOutcome {
  kOk,         ///< every task executed
  kNumeric,    ///< poisoned by a non-SPD POTRF pivot (not retryable)
  kCancelled,  ///< poisoned by an explicit token cancel
  kDeadline,   ///< poisoned by the token's deadline tripping
  kIncomplete, ///< the batch run aborted before this job finished
};

struct BatchJobResult {
  JobRunOutcome outcome = JobRunOutcome::kIncomplete;
  std::string error;     ///< non-empty only for kNumeric
  int tasks_run = 0;     ///< kernels actually executed
  int tasks_skipped = 0; ///< no-op completions after poisoning
};

/// The compute backend of a fused batch: ComputeBackend over a borrowing
/// PlanStorage of the jobs' matrices (job j's tiles are handles j *
/// num_lower_tiles(tiles) onward, matching build_batch_plan), plus one
/// CancelToken per job. Storage and tokens are borrowed and must outlive
/// the run; `tokens[j]` may be null (job without deadline that cannot be
/// individually cancelled).
class BatchComputeBackend final : public ComputeBackend {
 public:
  BatchComputeBackend(const BatchPlan& plan, PlanStorage& blocks,
                      std::vector<const CancelToken*> tokens);

  /// Per-job outcomes, valid after the run. Jobs still kIncomplete after
  /// a *successful* run are promoted to kOk by finalize() -- callers use
  /// results() only. On a failed run (all workers dead, starvation,
  /// batch-level cancel) unfinished jobs stay kIncomplete.
  const std::vector<BatchJobResult>& results() const { return results_; }

 protected:
  void on_drive_end(RunEngine& engine) override;
  bool run_task(RunEngine& engine, int worker, int task,
                const std::atomic<bool>* cancel, std::string* error) override;

 private:
  void poison(int job, JobRunOutcome why, const std::string& err);

  const BatchPlan& plan_;
  std::vector<const CancelToken*> tokens_;
  /// Lock-free poisoned flag per job (checked on every attempt); the
  /// result record itself is filled once under result_mu_.
  std::vector<std::unique_ptr<std::atomic<bool>>> poisoned_;
  std::vector<std::unique_ptr<std::atomic<int>>> run_counts_;
  std::vector<std::unique_ptr<std::atomic<int>>> skip_counts_;
  std::mutex result_mu_;
  std::vector<BatchJobResult> results_;
};

}  // namespace hetsched::serve

#include "serve/batch.hpp"

#include <utility>

#include "core/cholesky_dag.hpp"
#include "runtime/engine.hpp"

namespace hetsched::serve {

BatchPlan build_batch_plan(int jobs, int tiles, int nb) {
  BatchPlan plan;
  plan.jobs = jobs;
  plan.tiles = tiles;
  plan.nb = nb;
  const TaskGraph base = build_cholesky_dag(tiles, nb);
  plan.tasks_per_job = base.num_tasks();
  plan.job_of.reserve(
      static_cast<std::size_t>(jobs) *
      static_cast<std::size_t>(base.num_tasks()));
  // Tile handles are offset by a per-job stride, so the fused graph's data
  // footprint stays disjoint across jobs: handle b * stride +
  // tile_linear_index(r, c) is tile (r, c) of job b, exactly the layout of
  // a PlanStorage borrowing the batch's matrices in job order.
  const int tile_stride = num_lower_tiles(tiles);
  for (int b = 0; b < jobs; ++b) {
    const int task_off = b * base.num_tasks();
    for (const Task& t : base.tasks()) {
      std::vector<TaskAccess> accesses = t.accesses;
      for (TaskAccess& a : accesses) a.tile += b * tile_stride;
      plan.graph.add_task(t.kernel, t.k, t.i, t.j, t.flops,
                          std::move(accesses));
      plan.job_of.push_back(b);
    }
    for (const Task& t : base.tasks())
      for (const int succ : base.successors(t.id))
        plan.graph.add_edge(task_off + t.id, task_off + succ);
  }
  return plan;
}

BatchComputeBackend::BatchComputeBackend(const BatchPlan& plan,
                                         PlanStorage& blocks,
                                         std::vector<const CancelToken*> tokens)
    : ComputeBackend(blocks), plan_(plan), tokens_(std::move(tokens)) {
  results_.resize(static_cast<std::size_t>(plan_.jobs));
  poisoned_.reserve(static_cast<std::size_t>(plan_.jobs));
  run_counts_.reserve(static_cast<std::size_t>(plan_.jobs));
  skip_counts_.reserve(static_cast<std::size_t>(plan_.jobs));
  for (int j = 0; j < plan_.jobs; ++j) {
    poisoned_.push_back(std::make_unique<std::atomic<bool>>(false));
    run_counts_.push_back(std::make_unique<std::atomic<int>>(0));
    skip_counts_.push_back(std::make_unique<std::atomic<int>>(0));
  }
}

void BatchComputeBackend::poison(int job, JobRunOutcome why,
                                 const std::string& err) {
  std::lock_guard<std::mutex> lock(result_mu_);
  auto& flag = *poisoned_[static_cast<std::size_t>(job)];
  if (flag.load(std::memory_order_relaxed)) return;  // first poisoner wins
  BatchJobResult& r = results_[static_cast<std::size_t>(job)];
  r.outcome = why;
  r.error = err;
  flag.store(true, std::memory_order_release);
}

void BatchComputeBackend::on_drive_end(RunEngine& engine) {
  ComputeBackend::on_drive_end(engine);
  // Finalize per-job outcomes: a non-poisoned job whose every task ran is
  // kOk; anything else (the batch run aborted under it) stays kIncomplete
  // for the server to retry.
  std::lock_guard<std::mutex> lock(result_mu_);
  for (int j = 0; j < plan_.jobs; ++j) {
    BatchJobResult& r = results_[static_cast<std::size_t>(j)];
    r.tasks_run =
        run_counts_[static_cast<std::size_t>(j)]->load(
            std::memory_order_relaxed);
    r.tasks_skipped =
        skip_counts_[static_cast<std::size_t>(j)]->load(
            std::memory_order_relaxed);
    if (!poisoned_[static_cast<std::size_t>(j)]->load(
            std::memory_order_acquire) &&
        r.tasks_run == plan_.tasks_per_job)
      r.outcome = JobRunOutcome::kOk;
  }
}

bool BatchComputeBackend::run_task(RunEngine& engine, int worker, int task,
                                   const std::atomic<bool>* cancel,
                                   std::string* /*error*/) {
  const int job = plan_.job_of[static_cast<std::size_t>(task)];
  const auto jz = static_cast<std::size_t>(job);
  // Poisoned jobs complete their remaining tasks as no-ops: dependencies
  // keep releasing, the lifecycle converges, and fault-recovery re-pushes
  // of orphaned tasks cannot resurrect the job.
  if (poisoned_[jz]->load(std::memory_order_acquire)) {
    skip_counts_[jz]->fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  if (tokens_[jz] != nullptr) {
    const CancelReason why = tokens_[jz]->status();
    if (why != CancelReason::kNone) {
      poison(job,
             why == CancelReason::kDeadline ? JobRunOutcome::kDeadline
                                            : JobRunOutcome::kCancelled,
             "");
      skip_counts_[jz]->fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  std::string numeric_error;
  if (!ComputeBackend::run_task(engine, worker, task, cancel,
                                &numeric_error)) {
    // Numeric failure poisons this job only; the batch carries on. The
    // run_task contract's false return would abort every job's work.
    poison(job, JobRunOutcome::kNumeric, numeric_error);
    return true;
  }
  run_counts_[jz]->fetch_add(1, std::memory_order_relaxed);
  return true;
}

}  // namespace hetsched::serve

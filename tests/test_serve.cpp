// Serving layer: bounded-queue admission control, batch fusion
// correctness, per-job cancellation/deadline poisoning (including the
// cancellation-vs-fault-recovery race), cooperative cancellation across
// the run backends, and the FactorizationServer lifecycle (batching,
// retry/backoff, drain, shutdown, metrics).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/cholesky_dag.hpp"
#include "core/flops.hpp"
#include "core/tile_matrix.hpp"
#include "core/tiled_cholesky.hpp"
#include "exec/parallel_executor.hpp"
#include "platform/calibration.hpp"
#include "runtime/cancel.hpp"
#include "runtime/engine.hpp"
#include "runtime/threaded_backend.hpp"
#include "sched/priority_sched.hpp"
#include "serve/batch.hpp"
#include "serve/job_queue.hpp"
#include "serve/server.hpp"
#include "sim/simulator.hpp"

namespace hetsched {
namespace {

using serve::AdmissionControl;
using serve::BatchComputeBackend;
using serve::BatchJobResult;
using serve::BatchPlan;
using serve::BoundedJobQueue;
using serve::FactorizationServer;
using serve::JobPtr;
using serve::JobRecord;
using serve::JobRunOutcome;
using serve::JobSpec;
using serve::JobState;
using serve::RejectReason;
using serve::ServeMetrics;
using serve::ServerOptions;

JobPtr make_job(int id, int priority = 0, int tiles = 4, int nb = 64) {
  auto job = std::make_shared<JobRecord>();
  job->id = id;
  job->spec.tiles = tiles;
  job->spec.nb = nb;
  job->spec.priority = priority;
  return job;
}

// ---- BoundedJobQueue admission policy --------------------------------------

TEST(JobQueue, AdmitsUpToDepthThenRejects) {
  AdmissionControl ctl;
  ctl.max_depth = 2;
  ctl.shed_low_priority = false;
  BoundedJobQueue q(ctl);
  EXPECT_TRUE(q.admit(make_job(1)).admitted);
  EXPECT_TRUE(q.admit(make_job(2)).admitted);
  const auto res = q.admit(make_job(3));
  EXPECT_FALSE(res.admitted);
  EXPECT_EQ(res.reason, RejectReason::kQueueFull);
  EXPECT_EQ(q.depth(), 2u);
}

TEST(JobQueue, ShedsLowestPriorityNewestForHigherPriorityJob) {
  AdmissionControl ctl;
  ctl.max_depth = 2;
  BoundedJobQueue q(ctl);
  ASSERT_TRUE(q.admit(make_job(1, /*priority=*/0)).admitted);
  ASSERT_TRUE(q.admit(make_job(2, /*priority=*/0)).admitted);
  // Equal priority does not shed.
  const auto equal = q.admit(make_job(3, /*priority=*/0));
  EXPECT_FALSE(equal.admitted);
  EXPECT_EQ(equal.reason, RejectReason::kQueueFull);
  // Higher priority evicts the newest job of the lowest band (id 2: it has
  // waited the least).
  const auto high = q.admit(make_job(4, /*priority=*/5));
  ASSERT_TRUE(high.admitted);
  ASSERT_NE(high.shed, nullptr);
  EXPECT_EQ(high.shed->id, 2);
  EXPECT_EQ(q.depth(), 2u);
}

TEST(JobQueue, RejectsBadSpec) {
  BoundedJobQueue q(AdmissionControl{});
  const auto res = q.admit(make_job(1, 0, /*tiles=*/0));
  EXPECT_FALSE(res.admitted);
  EXPECT_EQ(res.reason, RejectReason::kBadSpec);
}

// Specs just past a cap are rejected by the O(1) check alone: the queue
// allocates nothing for a job's graph or matrices, so the sizes are safe
// to pass here.
TEST(JobQueue, RejectsSpecsJustAboveTheSizeCaps) {
  BoundedJobQueue q(AdmissionControl{});
  ASSERT_LE(total_task_count(91), serve::kMaxJobTasks);
  ASSERT_GT(total_task_count(92), serve::kMaxJobTasks);
  EXPECT_TRUE(q.admit(make_job(1, 0, /*tiles=*/91, /*nb=*/1)).admitted);
  EXPECT_EQ(q.admit(make_job(2, 0, 92, 1)).reason, RejectReason::kBadSpec);
  // 4096^2 doubles are exactly kMaxJobBytes.
  EXPECT_TRUE(q.admit(make_job(3, 0, 1, 4096)).admitted);
  EXPECT_EQ(q.admit(make_job(4, 0, 1, 4097)).reason, RejectReason::kBadSpec);
  EXPECT_EQ(q.admit(make_job(5, 0, 2, 3000)).reason, RejectReason::kBadSpec);
  // Specs whose size overflows int arithmetic.
  const int kIntMax = std::numeric_limits<int>::max();
  EXPECT_EQ(q.admit(make_job(6, 0, 65536, 1)).reason, RejectReason::kBadSpec);
  EXPECT_EQ(q.admit(make_job(7, 0, kIntMax, kIntMax)).reason,
            RejectReason::kBadSpec);
  EXPECT_EQ(q.admit(make_job(8, 0, 5000, 64)).reason, RejectReason::kBadSpec);
  for (const double deadline :
       {-1.0, serve::kMaxJobDeadlineMs * 2.0,
        std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN()}) {
    JobPtr job = make_job(9);
    job->spec.deadline_ms = deadline;
    EXPECT_EQ(q.admit(job).reason, RejectReason::kBadSpec) << deadline;
  }
  EXPECT_EQ(q.depth(), 2u);
}

TEST(JobQueue, LatencySloRejectsOnceServiceEstimateExists) {
  AdmissionControl ctl;
  ctl.max_latency_ms = 10.0;
  BoundedJobQueue q(ctl);
  // Without an estimate the SLO cannot be evaluated: admit.
  ASSERT_TRUE(q.admit(make_job(1)).admitted);
  // 8 ms per job and 2 queued jobs -> 16 ms estimated wait > 10 ms SLO.
  q.observe_service(/*jobs=*/1, /*ms=*/8.0);
  ASSERT_TRUE(q.admit(make_job(2)).admitted);
  const auto res = q.admit(make_job(3));
  EXPECT_FALSE(res.admitted);
  EXPECT_EQ(res.reason, RejectReason::kLatency);
}

TEST(JobQueue, PopsPriorityThenFifoAndBatchesByGeometry) {
  BoundedJobQueue q(AdmissionControl{});
  ASSERT_TRUE(q.admit(make_job(1, 0, 4, 64)).admitted);
  ASSERT_TRUE(q.admit(make_job(2, 3, 4, 64)).admitted);
  ASSERT_TRUE(q.admit(make_job(3, 3, 4, 64)).admitted);
  ASSERT_TRUE(q.admit(make_job(4, 0, 8, 96)).admitted);
  const JobPtr first = q.pop_best();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->id, 2);  // highest priority, FIFO within the band
  const auto mates = q.pop_batch_like(first->spec, 8);
  ASSERT_EQ(mates.size(), 2u);  // ids 3 and 1 share (4, 64); id 4 does not
  EXPECT_EQ(mates[0]->id, 3);
  EXPECT_EQ(mates[1]->id, 1);
  EXPECT_EQ(q.depth(), 1u);
}

// ---- batch plan shape ------------------------------------------------------

TEST(BatchPlan, FusedGraphIsDisjointCopiesWithOffsets) {
  const int jobs = 3, tiles = 4, nb = 64;
  const BatchPlan plan = serve::build_batch_plan(jobs, tiles, nb);
  const TaskGraph base = build_cholesky_dag(tiles, nb);
  EXPECT_EQ(plan.tasks_per_job, base.num_tasks());
  EXPECT_EQ(plan.graph.num_tasks(), jobs * base.num_tasks());
  ASSERT_EQ(plan.job_of.size(),
            static_cast<std::size_t>(plan.graph.num_tasks()));
  const int tile_stride = num_lower_tiles(tiles);
  for (int b = 0; b < jobs; ++b) {
    for (int t = 0; t < base.num_tasks(); ++t) {
      const int fused = b * base.num_tasks() + t;
      EXPECT_EQ(plan.job_of[static_cast<std::size_t>(fused)], b);
      const Task& orig = base.task(t);
      const Task& copy = plan.graph.task(fused);
      EXPECT_EQ(copy.kernel, orig.kernel);
      EXPECT_EQ(copy.k, orig.k);
      ASSERT_EQ(copy.accesses.size(), orig.accesses.size());
      for (std::size_t a = 0; a < orig.accesses.size(); ++a)
        EXPECT_EQ(copy.accesses[a].tile,
                  orig.accesses[a].tile + b * tile_stride);
      // Successor sets replicate with the same task offset: fused jobs
      // share no edges.
      const auto& succ = plan.graph.successors(fused);
      const auto& base_succ = base.successors(t);
      ASSERT_EQ(succ.size(), base_succ.size());
      for (std::size_t s = 0; s < succ.size(); ++s)
        EXPECT_EQ(succ[s], base_succ[s] + b * base.num_tasks());
    }
  }
}

// ---- batch execution -------------------------------------------------------

struct BatchRun {
  RunReport rep;
  std::vector<BatchJobResult> results;
};

BatchRun drive_batch(const BatchPlan& plan,
                     const std::vector<TileMatrix*>& mats,
                     std::vector<const CancelToken*> tokens, int threads,
                     const FaultPlan& faults = {},
                     CancelToken* batch_cancel = nullptr) {
  PlanStorage blocks(mats);
  BatchComputeBackend backend(plan, blocks, std::move(tokens));
  CentralPriorityScheduler sched;
  RunOptions opt;
  opt.record_trace = false;
  opt.faults = faults;
  opt.cancel = batch_cancel;
  const Platform calib = homogeneous_platform(threads);
  RunEngine engine(plan.graph, calib, sched, opt);
  BatchRun out;
  out.rep = engine.run(backend);
  out.results = backend.results();
  return out;
}

bool matrices_equal(const TileMatrix& a, const TileMatrix& b) {
  if (a.n_tiles() != b.n_tiles() || a.nb() != b.nb()) return false;
  const std::size_t n = static_cast<std::size_t>(a.nb()) *
                        static_cast<std::size_t>(a.nb());
  for (int i = 0; i < a.n_tiles(); ++i)
    for (int j = 0; j <= i; ++j)
      if (std::memcmp(a.tile(i, j), b.tile(i, j), n * sizeof(double)) != 0)
        return false;
  return true;
}

TEST(BatchExecution, EveryJobMatchesSequentialFactorization) {
  const int jobs = 3, tiles = 5, nb = 64;
  const BatchPlan plan = serve::build_batch_plan(jobs, tiles, nb);
  std::vector<TileMatrix> mats, refs;
  for (int b = 0; b < jobs; ++b) {
    mats.push_back(TileMatrix::synthetic_spd(tiles, nb, 100u + b));
    refs.push_back(TileMatrix::synthetic_spd(tiles, nb, 100u + b));
  }
  std::vector<TileMatrix*> ptrs;
  std::vector<const CancelToken*> tokens(jobs, nullptr);
  for (auto& m : mats) ptrs.push_back(&m);
  const BatchRun run = drive_batch(plan, ptrs, tokens, /*threads=*/3);
  ASSERT_TRUE(run.rep.success) << run.rep.error;
  for (int b = 0; b < jobs; ++b) {
    EXPECT_EQ(run.results[b].outcome, JobRunOutcome::kOk);
    EXPECT_EQ(run.results[b].tasks_run, plan.tasks_per_job);
    ASSERT_TRUE(tiled_cholesky_sequential(refs[b]));
    EXPECT_TRUE(matrices_equal(mats[b], refs[b]))
        << "job " << b << " diverged from the sequential factorization";
  }
}

TEST(BatchExecution, NumericFailurePoisonsOnlyThatJob) {
  const int jobs = 3, tiles = 4, nb = 64;
  const BatchPlan plan = serve::build_batch_plan(jobs, tiles, nb);
  std::vector<TileMatrix> mats;
  for (int b = 0; b < jobs; ++b)
    mats.push_back(TileMatrix::synthetic_spd(tiles, nb, 7u + b));
  // Make job 1 indefinite: a negative diagonal kills its first POTRF.
  double* d = mats[1].tile(0, 0);
  for (int i = 0; i < nb; ++i) d[i * nb + i] = -1.0;
  std::vector<TileMatrix*> ptrs;
  std::vector<const CancelToken*> tokens(jobs, nullptr);
  for (auto& m : mats) ptrs.push_back(&m);
  const BatchRun run = drive_batch(plan, ptrs, tokens, /*threads=*/2);
  ASSERT_TRUE(run.rep.success) << run.rep.error;  // the batch survives
  EXPECT_EQ(run.results[0].outcome, JobRunOutcome::kOk);
  EXPECT_EQ(run.results[1].outcome, JobRunOutcome::kNumeric);
  EXPECT_FALSE(run.results[1].error.empty());
  EXPECT_EQ(run.results[2].outcome, JobRunOutcome::kOk);
  // The poisoned job's remaining tasks completed as no-ops.
  EXPECT_EQ(run.results[1].tasks_run + run.results[1].tasks_skipped + 1,
            plan.tasks_per_job);
}

TEST(BatchExecution, PreCancelledTokenPoisonsJobOnly) {
  const int jobs = 2, tiles = 4, nb = 64;
  const BatchPlan plan = serve::build_batch_plan(jobs, tiles, nb);
  std::vector<TileMatrix> mats;
  for (int b = 0; b < jobs; ++b)
    mats.push_back(TileMatrix::synthetic_spd(tiles, nb, 20u + b));
  CancelToken cancelled;
  cancelled.cancel();
  CancelToken expired;
  expired.set_deadline_after(-1.0);  // already past
  std::vector<TileMatrix*> ptrs{&mats[0], &mats[1]};
  std::vector<const CancelToken*> tokens{&cancelled, &expired};
  const BatchRun run = drive_batch(plan, ptrs, tokens, /*threads=*/2);
  ASSERT_TRUE(run.rep.success) << run.rep.error;
  EXPECT_EQ(run.results[0].outcome, JobRunOutcome::kCancelled);
  EXPECT_EQ(run.results[1].outcome, JobRunOutcome::kDeadline);
  EXPECT_EQ(run.results[0].tasks_run, 0);
  EXPECT_EQ(run.results[1].tasks_run, 0);
  // Every fused task still converged (as a no-op), so the lifecycle ended.
  EXPECT_EQ(run.results[0].tasks_skipped, plan.tasks_per_job);
  EXPECT_EQ(run.results[1].tasks_skipped, plan.tasks_per_job);
}

// The satellite property: cancellation racing fault recovery. A worker
// death orphans queued tasks which the runtime re-pushes; if one of those
// belongs to a job whose token fired meanwhile, the re-push must not
// resurrect it -- poisoned jobs complete as no-ops at every attempt, so
// each fused task still finishes exactly once. Seeded sweep over cancel
// timings to vary the interleaving.
TEST(BatchExecution, CancellationRacingFaultRecoveryNeverResurrects) {
  const int jobs = 3, tiles = 5, nb = 64;
  const BatchPlan plan = serve::build_batch_plan(jobs, tiles, nb);
  std::mt19937 rng(12345);
  std::uniform_int_distribution<int> delay_us(0, 2000);
  for (int round = 0; round < 8; ++round) {
    std::vector<TileMatrix> mats, refs;
    for (int b = 0; b < jobs; ++b) {
      mats.push_back(TileMatrix::synthetic_spd(tiles, nb, 50u + b));
      refs.push_back(TileMatrix::synthetic_spd(tiles, nb, 50u + b));
    }
    std::vector<CancelToken> job_tokens(jobs);
    std::vector<TileMatrix*> ptrs;
    std::vector<const CancelToken*> tokens;
    for (int b = 0; b < jobs; ++b) {
      ptrs.push_back(&mats[b]);
      tokens.push_back(&job_tokens[b]);
    }
    FaultPlan faults;
    faults.deaths.push_back({/*worker=*/1, /*time_s=*/0.0005});
    const int victim = round % jobs;
    const int delay = delay_us(rng);
    std::thread killer([&job_tokens, victim, delay] {
      std::this_thread::sleep_for(std::chrono::microseconds(delay));
      job_tokens[static_cast<std::size_t>(victim)].cancel();
    });
    const BatchRun run = drive_batch(plan, ptrs, tokens, /*threads=*/2,
                                     faults);
    killer.join();
    ASSERT_TRUE(run.rep.success) << "round " << round << ": " << run.rep.error;
    for (int b = 0; b < jobs; ++b) {
      const BatchJobResult& r = run.results[static_cast<std::size_t>(b)];
      if (b != victim) {
        EXPECT_EQ(r.outcome, JobRunOutcome::kOk) << "round " << round;
        ASSERT_TRUE(tiled_cholesky_sequential(refs[b]));
        EXPECT_TRUE(matrices_equal(mats[b], refs[b])) << "round " << round;
      } else {
        // Depending on the interleaving the victim finished first or was
        // poisoned; either way no task ran twice and none was lost.
        EXPECT_TRUE(r.outcome == JobRunOutcome::kOk ||
                    r.outcome == JobRunOutcome::kCancelled)
            << "round " << round;
      }
      EXPECT_EQ(r.tasks_run + r.tasks_skipped, plan.tasks_per_job)
          << "round " << round << " job " << b
          << ": a task was resurrected or lost";
    }
  }
}

// ---- cooperative cancellation across the backends --------------------------

TEST(Cancellation, DesBackendReportsExpiredDeadlineThroughReport) {
  const TaskGraph g = build_cholesky_dag(8);
  const Platform p = mirage_platform();
  CentralPriorityScheduler sched;
  CancelToken token;
  token.set_deadline_after(-1.0);
  RunOptions opt;
  opt.cancel = &token;
  const RunReport r = simulate(g, p, sched, opt);
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.error_kind, RunErrorKind::DeadlineExceeded);
}

TEST(Cancellation, DesBackendReportsExplicitCancel) {
  const TaskGraph g = build_cholesky_dag(8);
  const Platform p = mirage_platform();
  CentralPriorityScheduler sched;
  CancelToken token;
  token.cancel();
  RunOptions opt;
  opt.cancel = &token;
  const RunReport r = simulate(g, p, sched, opt);
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.error_kind, RunErrorKind::Cancelled);
}

TEST(Cancellation, ComputeBackendHonorsDeadlineAndLeavesNoTornTiles) {
  TileMatrix m = TileMatrix::synthetic_spd(6, 64, 3);
  const TaskGraph g = build_cholesky_dag(6);
  CancelToken token;
  token.set_deadline_after(-1.0);
  ExecOptions opt;
  opt.num_threads = 2;
  opt.cancel = &token;
  const RunReport r = execute_parallel(m, g, opt);
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.error_kind, RunErrorKind::DeadlineExceeded);
}

TEST(Cancellation, NullTokenLeavesExecutionUntouched) {
  TileMatrix with = TileMatrix::synthetic_spd(5, 64, 9);
  TileMatrix without = TileMatrix::synthetic_spd(5, 64, 9);
  const TaskGraph g = build_cholesky_dag(5);
  CancelToken token;  // armed with nothing: must never fire
  ExecOptions opt;
  opt.num_threads = 2;
  const RunReport plain = execute_parallel(without, g, opt);
  opt.cancel = &token;
  const RunReport carried = execute_parallel(with, g, opt);
  ASSERT_TRUE(plain.success);
  ASSERT_TRUE(carried.success) << carried.error;
  EXPECT_TRUE(matrices_equal(with, without));
}

// ---- FactorizationServer ---------------------------------------------------

TEST(Server, CompletesSubmittedJobsAndCountsThem) {
  ServerOptions opt;
  opt.threads = 2;
  opt.max_batch = 4;
  FactorizationServer server(opt);
  server.start();
  std::vector<int> ids;
  for (int i = 0; i < 10; ++i) {
    JobSpec spec;
    spec.tiles = 5;
    spec.nb = 64;
    spec.seed = static_cast<unsigned>(i);
    const auto res = server.submit(spec);
    ASSERT_TRUE(res.admitted) << res.message;
    ids.push_back(res.id);
  }
  for (const int id : ids) {
    const auto s = server.wait(id);
    ASSERT_TRUE(s.known);
    EXPECT_EQ(s.state, JobState::kDone) << s.error;
    EXPECT_GE(s.attempts, 1);
    EXPECT_GE(s.latency_ms, 0.0);
  }
  const ServeMetrics m = server.metrics();
  EXPECT_EQ(m.submitted, 10);
  EXPECT_EQ(m.admitted, 10);
  EXPECT_EQ(m.completed, 10);
  EXPECT_EQ(m.batched_jobs, 10);
  EXPECT_GE(m.batches, 3);  // max_batch = 4 forces at least ceil(10/4)
  EXPECT_GT(m.stream.compute_events, 0u);
  server.shutdown(FactorizationServer::Shutdown::kGraceful);
  const std::string json = server.metrics_json();
  EXPECT_NE(json.find("\"completed\":10"), std::string::npos) << json;
}

// A batch that throws before it runs (here: a policy option whose value
// only fails when the per-batch scheduler is built) fails its jobs with a
// structured state; the dispatcher thread survives and shuts down cleanly.
TEST(Server, BatchThatCannotRunFailsItsJobs) {
  ServerOptions opt;
  opt.threads = 2;
  opt.policy = "hybrid:static_fraction=lots";
  FactorizationServer server(opt);
  server.start();
  JobSpec spec;
  spec.tiles = 3;
  spec.nb = 16;
  std::vector<int> ids;
  for (int i = 0; i < 3; ++i) {
    const auto res = server.submit(spec);
    ASSERT_TRUE(res.admitted) << res.message;
    ids.push_back(res.id);
  }
  for (const int id : ids) {
    const auto s = server.wait(id);
    EXPECT_EQ(s.state, JobState::kFailed);
    EXPECT_EQ(s.error_kind, runtime::RunErrorKind::Fault);
    EXPECT_NE(s.error.find("batch aborted"), std::string::npos) << s.error;
  }
  EXPECT_EQ(server.metrics().failed, 3);
  server.shutdown(FactorizationServer::Shutdown::kGraceful);
}

TEST(Server, DrainRejectsNewWorkAndFinishesQueued) {
  ServerOptions opt;
  opt.threads = 2;
  FactorizationServer server(opt);
  server.start();
  JobSpec spec;
  spec.tiles = 4;
  spec.nb = 64;
  const auto admitted = server.submit(spec);
  ASSERT_TRUE(admitted.admitted);
  server.drain();
  const auto rejected = server.submit(spec);
  EXPECT_FALSE(rejected.admitted);
  EXPECT_EQ(rejected.reason, RejectReason::kDraining);
  server.shutdown(FactorizationServer::Shutdown::kGraceful);
  EXPECT_EQ(server.wait(admitted.id).state, JobState::kDone);
  EXPECT_EQ(server.metrics().rejected_draining, 1);
}

TEST(Server, ShedsLowPriorityJobOnAdmission) {
  ServerOptions opt;
  opt.admission.max_depth = 2;
  FactorizationServer server(opt);  // never started: jobs stay queued
  JobSpec low;
  low.tiles = 4;
  low.nb = 64;
  const auto a = server.submit(low);
  const auto b = server.submit(low);
  ASSERT_TRUE(a.admitted);
  ASSERT_TRUE(b.admitted);
  JobSpec high = low;
  high.priority = 9;
  const auto c = server.submit(high);
  ASSERT_TRUE(c.admitted);
  EXPECT_EQ(c.shed_id, b.id);  // newest of the lowest band went first
  EXPECT_EQ(server.wait(b.id).state, JobState::kShed);
  EXPECT_EQ(server.metrics().shed, 1);
  server.shutdown(FactorizationServer::Shutdown::kCancelPending);
  EXPECT_EQ(server.wait(a.id).state, JobState::kCancelled);
  EXPECT_EQ(server.wait(c.id).state, JobState::kCancelled);
}

TEST(Server, DeadlineExpiredWhileQueuedNeverRuns) {
  ServerOptions opt;
  opt.threads = 2;
  FactorizationServer server(opt);
  JobSpec spec;
  spec.tiles = 4;
  spec.nb = 64;
  spec.deadline_ms = 1.0;
  const auto res = server.submit(spec);  // queued: server not started yet
  ASSERT_TRUE(res.admitted);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  server.start();
  const auto s = server.wait(res.id);
  EXPECT_EQ(s.state, JobState::kDeadlineExceeded);
  EXPECT_EQ(s.attempts, 0);  // it never reached a batch
  EXPECT_EQ(server.metrics().deadline_exceeded, 1);
  server.shutdown(FactorizationServer::Shutdown::kGraceful);
}

TEST(Server, RetryBackoffExhaustsToFailedWhenEveryBatchDies) {
  ServerOptions opt;
  opt.threads = 2;
  // Both workers die at t = 0 of every batch run: nothing ever completes.
  opt.faults.deaths.push_back({0, 0.0});
  opt.faults.deaths.push_back({1, 0.0});
  opt.retry.max_retries = 2;
  opt.retry.backoff_base_s = 1e-3;
  opt.retry_jitter_frac = 0.25;
  FactorizationServer server(opt);
  server.start();
  JobSpec spec;
  spec.tiles = 4;
  spec.nb = 64;
  const auto res = server.submit(spec);
  ASSERT_TRUE(res.admitted);
  const auto s = server.wait(res.id);
  EXPECT_EQ(s.state, JobState::kFailed);
  EXPECT_EQ(s.error_kind, runtime::RunErrorKind::Fault);
  EXPECT_EQ(s.attempts, 3);  // 1 try + 2 retries
  EXPECT_NE(s.error.find("retry budget exhausted"), std::string::npos)
      << s.error;
  const ServeMetrics m = server.metrics();
  EXPECT_EQ(m.retries, 2);
  EXPECT_EQ(m.failed, 1);
  EXPECT_GT(m.worker_deaths, 0);
  server.shutdown(FactorizationServer::Shutdown::kGraceful);
}

TEST(Server, CancelPendingShutdownLeavesEveryJobTerminal) {
  ServerOptions opt;
  opt.threads = 2;
  opt.max_batch = 2;
  opt.admission.max_depth = 64;
  FactorizationServer server(opt);
  server.start();
  std::vector<int> ids;
  for (int i = 0; i < 16; ++i) {
    JobSpec spec;
    spec.tiles = 6;
    spec.nb = 64;
    spec.seed = static_cast<unsigned>(i);
    const auto res = server.submit(spec);
    ASSERT_TRUE(res.admitted);
    ids.push_back(res.id);
  }
  server.shutdown(FactorizationServer::Shutdown::kCancelPending);
  std::int64_t done = 0, cancelled = 0;
  for (const int id : ids) {
    const auto s = server.wait(id);
    ASSERT_TRUE(serve::terminal(s.state));
    if (s.state == JobState::kDone) ++done;
    if (s.state == JobState::kCancelled) ++cancelled;
  }
  EXPECT_EQ(done + cancelled, 16);
  const ServeMetrics m = server.metrics();
  EXPECT_EQ(m.completed, done);
  EXPECT_EQ(m.cancelled, cancelled);
}

TEST(Server, StartValidatesOptions) {
  ServerOptions bad;
  bad.threads = 2;
  bad.faults.deaths.push_back({/*worker=*/7, /*time_s=*/0.0});
  FactorizationServer server(bad);
  EXPECT_THROW(server.start(), std::invalid_argument);
}

}  // namespace
}  // namespace hetsched

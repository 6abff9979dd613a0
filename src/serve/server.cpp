#include "serve/server.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/tile_matrix.hpp"
#include "platform/calibration.hpp"
#include "runtime/engine.hpp"
#include "sched/scheduler_registry.hpp"

namespace hetsched::serve {

namespace {

double ms_between(std::chrono::steady_clock::time_point a,
                  std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

}  // namespace

FactorizationServer::FactorizationServer(const ServerOptions& opt)
    : opt_(opt),
      queue_(opt.admission),
      rng_(opt.seed),
      calibration_(homogeneous_platform(std::max(1, opt.threads))) {}

FactorizationServer::~FactorizationServer() {
  shutdown(Shutdown::kCancelPending);
}

void FactorizationServer::start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (started_) return;
  if (draining_)
    throw std::logic_error("FactorizationServer: start() after shutdown");
  if (opt_.threads <= 0)
    throw std::invalid_argument("FactorizationServer: threads must be > 0");
  if (opt_.max_batch <= 0)
    throw std::invalid_argument("FactorizationServer: max_batch must be > 0");
  if (const std::string err = opt_.faults.validate(opt_.threads); !err.empty())
    throw std::invalid_argument("FactorizationServer: fault plan: " + err);
  // Fail fast on a bad policy spec (the registry error lists the
  // registered names / valid option keys).
  sched::validate_scheduler_spec(sched::SchedulerSpec::parse(opt_.policy));
  // The aggregator is left unconfigured on purpose: batches may mix nb
  // values over the server's lifetime, so only the geometry-independent
  // aggregates (event counts, running makespan, fault tallies) are kept.
  streamer_.add_sink(&aggregator_);
  started_ = true;
  started_at_ = Clock::now();
  dispatcher_ = std::thread([this] { dispatch_loop(); });
}

SubmitResult FactorizationServer::submit(const JobSpec& spec) {
  std::lock_guard<std::mutex> lock(mu_);
  SubmitResult res;
  ++m_.submitted;
  res.depth = queue_.depth();
  if (draining_) {
    ++m_.rejected_draining;
    res.reason = RejectReason::kDraining;
    res.message = "server is draining; not admitting new jobs";
    return res;
  }
  JobPtr job = std::make_shared<JobRecord>();
  job->id = next_id_++;
  job->spec = spec;
  const BoundedJobQueue::Admission adm = queue_.admit(job);
  res.depth = queue_.depth();
  if (!adm.admitted) {
    res.reason = adm.reason;
    switch (adm.reason) {
      case RejectReason::kBadSpec:
        ++m_.rejected_bad;
        res.message = "invalid job spec (tiles/nb must be positive, "
                      "deadline_ms non-negative)";
        break;
      case RejectReason::kLatency:
        ++m_.rejected_latency;
        res.message = "estimated queue wait exceeds the latency SLO";
        break;
      default:
        ++m_.rejected_full;
        res.message = "queue full and nothing lower-priority to shed";
        break;
    }
    return res;
  }
  job->admitted_at = Clock::now();
  if (spec.deadline_ms > 0.0)
    job->token.set_deadline_after(spec.deadline_ms / 1000.0);
  jobs_.emplace(job->id, job);
  ++m_.admitted;
  if (adm.shed != nullptr) {
    res.shed_id = adm.shed->id;
    adm.shed->token.cancel();
    finalize_locked(adm.shed, JobState::kShed, runtime::RunErrorKind::None,
                    "shed by higher-priority job " + std::to_string(job->id));
  }
  res.admitted = true;
  res.id = job->id;
  cv_dispatch_.notify_all();
  return res;
}

void FactorizationServer::finalize_locked(const JobPtr& job, JobState state,
                                          runtime::RunErrorKind kind,
                                          const std::string& error) {
  if (terminal(job->state)) return;  // first finalizer wins
  job->state = state;
  job->error_kind = kind;
  job->error = error;
  job->latency_ms = ms_between(job->admitted_at, Clock::now());
  switch (state) {
    case JobState::kDone:
      ++m_.completed;
      latency_ms_sum_ += job->latency_ms;
      break;
    case JobState::kFailed: ++m_.failed; break;
    case JobState::kCancelled: ++m_.cancelled; break;
    case JobState::kDeadlineExceeded: ++m_.deadline_exceeded; break;
    case JobState::kShed: ++m_.shed; break;
    default: break;
  }
  m_.latency_ms_max = std::max(m_.latency_ms_max, job->latency_ms);
  cv_done_.notify_all();
}

const BatchPlan& FactorizationServer::plan_for(int jobs, int tiles, int nb) {
  const auto key = std::make_tuple(jobs, tiles, nb);
  auto it = plan_cache_.find(key);
  if (it == plan_cache_.end())
    it = plan_cache_.emplace(key, build_batch_plan(jobs, tiles, nb)).first;
  return it->second;
}

void FactorizationServer::run_batch(std::vector<JobPtr>& batch,
                                    CancelToken* batch_cancel,
                                    std::unique_lock<std::mutex>& lock) {
  const int b = static_cast<int>(batch.size());
  const int tiles = batch.front()->spec.tiles;
  const int nb = batch.front()->spec.nb;
  ++m_.batches;
  m_.batched_jobs += b;
  inflight_ = b;
  active_batch_cancel_ = batch_cancel;
  const Clock::time_point run_start = Clock::now();
  for (const JobPtr& job : batch) {
    job->state = JobState::kRunning;
    if (job->attempts == 0) {
      job->queue_ms = ms_between(job->admitted_at, run_start);
      queue_ms_sum_ += job->queue_ms;
      ++queue_ms_count_;
    }
    ++job->attempts;
  }
  lock.unlock();

  const BatchPlan& plan = plan_for(b, tiles, nb);
  std::vector<TileMatrix> mats;
  mats.reserve(static_cast<std::size_t>(b));
  for (const JobPtr& job : batch)
    mats.push_back(TileMatrix::synthetic_spd(tiles, nb, job->spec.seed));
  std::vector<TileMatrix*> mat_ptrs(static_cast<std::size_t>(b));
  std::vector<const CancelToken*> tokens(static_cast<std::size_t>(b));
  for (int i = 0; i < b; ++i) {
    mat_ptrs[static_cast<std::size_t>(i)] = &mats[static_cast<std::size_t>(i)];
    tokens[static_cast<std::size_t>(i)] =
        &batch[static_cast<std::size_t>(i)]->token;
  }
  PlanStorage blocks(mat_ptrs);
  BatchComputeBackend backend(plan, blocks, std::move(tokens));
  // Registry-resolved policy per batch (specs are cheap to re-resolve and
  // graph-dependent schedulers need this batch's plan). The default,
  // "priority", is the historical central priority queue in submission
  // order.
  auto sched =
      sched::make_scheduler(opt_.policy, plan.graph, calibration_, opt_.seed);
  RunOptions ropt;
  ropt.record_trace = false;  // long-lived server: stream, don't accumulate
  ropt.faults = opt_.faults;
  ropt.pack_cache = opt_.pack_cache;
  ropt.stream = &streamer_;
  ropt.cancel = batch_cancel;
  RunEngine engine(plan.graph, calibration_, *sched, ropt);
  const RunReport rep = engine.run(backend);
  // Per-policy counters (steals, static-pool hits, ...) land in the
  // aggregated stream snapshot alongside the event-derived metrics.
  aggregator_.add_scheduler_stats(rep.scheduler_stats);
  const double wall_ms = ms_between(run_start, Clock::now());
  const std::vector<BatchJobResult> results = backend.results();

  lock.lock();
  active_batch_cancel_ = nullptr;
  inflight_ = 0;
  queue_.observe_service(b, wall_ms);
  m_.pack_hits += rep.pack_hits;
  m_.pack_misses += rep.pack_misses;
  m_.worker_deaths += rep.faults.worker_deaths;
  m_.tasks_requeued += rep.faults.tasks_requeued;
  for (int i = 0; i < b; ++i) {
    const JobPtr& job = batch[static_cast<std::size_t>(i)];
    const BatchJobResult& r = results[static_cast<std::size_t>(i)];
    switch (r.outcome) {
      case JobRunOutcome::kOk:
        finalize_locked(job, JobState::kDone, runtime::RunErrorKind::None, "");
        break;
      case JobRunOutcome::kNumeric:
        finalize_locked(job, JobState::kFailed, runtime::RunErrorKind::Numeric,
                        r.error);
        break;
      case JobRunOutcome::kCancelled:
        finalize_locked(job, JobState::kCancelled,
                        runtime::RunErrorKind::Cancelled, "cancelled mid-run");
        break;
      case JobRunOutcome::kDeadline:
        finalize_locked(job, JobState::kDeadlineExceeded,
                        runtime::RunErrorKind::DeadlineExceeded,
                        "deadline exceeded mid-run");
        break;
      case JobRunOutcome::kIncomplete: {
        // The batch run aborted under this job (batch-level cancel, every
        // worker dead, starvation). The job's own token decides first;
        // otherwise it is a transient failure charged to the retry budget.
        const CancelReason why = job->token.status();
        if (why == CancelReason::kDeadline) {
          finalize_locked(job, JobState::kDeadlineExceeded,
                          runtime::RunErrorKind::DeadlineExceeded,
                          "deadline exceeded mid-run");
        } else if (why == CancelReason::kCancelled || stopping_) {
          finalize_locked(job, JobState::kCancelled,
                          runtime::RunErrorKind::Cancelled,
                          "cancelled: server shutdown");
        } else if (job->attempts > opt_.retry.max_retries) {
          finalize_locked(
              job, JobState::kFailed, runtime::RunErrorKind::Fault,
              "retry budget exhausted after " +
                  std::to_string(job->attempts) + " attempts: " +
                  (rep.error.empty() ? "batch run incomplete" : rep.error));
        } else {
          ++m_.retries;
          job->state = JobState::kQueued;
          double delay_s =
              opt_.retry.backoff_base_s *
              std::pow(opt_.retry.backoff_multiplier, job->attempts - 1);
          if (opt_.retry_jitter_frac > 0.0) {
            std::uniform_real_distribution<double> u(-opt_.retry_jitter_frac,
                                                     opt_.retry_jitter_frac);
            delay_s = std::max(0.0, delay_s * (1.0 + u(rng_)));
          }
          delayed_.push_back(
              {Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(delay_s)),
               job});
        }
        break;
      }
    }
  }
}

void FactorizationServer::dispatch_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    const Clock::time_point now = Clock::now();
    // Promote due retries; a cancel-pending shutdown voids them instead.
    for (std::size_t i = 0; i < delayed_.size();) {
      if (stopping_) {
        delayed_[i].job->token.cancel();
        finalize_locked(delayed_[i].job, JobState::kCancelled,
                        runtime::RunErrorKind::Cancelled,
                        "cancelled: server shutdown");
      } else if (delayed_[i].when <= now) {
        queue_.requeue(delayed_[i].job);
      } else {
        ++i;
        continue;
      }
      delayed_[i] = delayed_.back();
      delayed_.pop_back();
    }
    if (stopping_) {
      for (const JobPtr& job : queue_.drain_all()) {
        job->token.cancel();
        finalize_locked(job, JobState::kCancelled,
                        runtime::RunErrorKind::Cancelled,
                        "cancelled: server shutdown");
      }
    }
    if (queue_.empty()) {
      if (draining_ && delayed_.empty()) break;
      if (delayed_.empty()) {
        cv_dispatch_.wait(lock);
      } else {
        Clock::time_point next = delayed_.front().when;
        for (const Delayed& d : delayed_) next = std::min(next, d.when);
        cv_dispatch_.wait_until(lock, next);
      }
      continue;
    }
    JobPtr first = queue_.pop_best();
    std::vector<JobPtr> batch;
    batch.push_back(std::move(first));
    for (JobPtr& mate :
         queue_.pop_batch_like(batch.front()->spec, opt_.max_batch - 1))
      batch.push_back(std::move(mate));
    // A job whose token fired while it waited never runs at all.
    std::vector<JobPtr> live;
    live.reserve(batch.size());
    for (JobPtr& job : batch) {
      const CancelReason why = job->token.status();
      if (why == CancelReason::kNone) {
        live.push_back(std::move(job));
      } else if (why == CancelReason::kDeadline) {
        finalize_locked(job, JobState::kDeadlineExceeded,
                        runtime::RunErrorKind::DeadlineExceeded,
                        "deadline exceeded while queued");
      } else {
        finalize_locked(job, JobState::kCancelled,
                        runtime::RunErrorKind::Cancelled,
                        "cancelled while queued");
      }
    }
    if (live.empty()) continue;
    CancelToken batch_cancel;  // shutdown aborts the whole batch through it
    run_batch(live, &batch_cancel, lock);
  }
}

FactorizationServer::JobStatus FactorizationServer::status(int id) const {
  std::lock_guard<std::mutex> lock(mu_);
  JobStatus s;
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return s;
  const JobRecord& job = *it->second;
  s.known = true;
  s.id = job.id;
  s.spec = job.spec;
  s.state = job.state;
  s.attempts = job.attempts;
  s.error = job.error;
  s.error_kind = job.error_kind;
  s.queue_ms = job.queue_ms;
  s.latency_ms = job.latency_ms;
  return s;
}

FactorizationServer::JobStatus FactorizationServer::wait(int id) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return {};
  const JobPtr job = it->second;
  cv_done_.wait(lock, [&] { return terminal(job->state); });
  JobStatus s;
  s.known = true;
  s.id = job->id;
  s.spec = job->spec;
  s.state = job->state;
  s.attempts = job->attempts;
  s.error = job->error;
  s.error_kind = job->error_kind;
  s.queue_ms = job->queue_ms;
  s.latency_ms = job->latency_ms;
  return s;
}

void FactorizationServer::drain() {
  std::lock_guard<std::mutex> lock(mu_);
  draining_ = true;
  cv_dispatch_.notify_all();
}

void FactorizationServer::shutdown(Shutdown mode) {
  std::thread to_join;
  {
    std::lock_guard<std::mutex> lock(mu_);
    draining_ = true;
    if (mode == Shutdown::kCancelPending) {
      stopping_ = true;
      if (active_batch_cancel_ != nullptr) active_batch_cancel_->cancel();
    }
    if (!started_) {
      // Never-started server: no dispatcher will ever drain the queue, so
      // pre-start submissions are finalized here under either mode.
      for (const JobPtr& job : queue_.drain_all()) {
        job->token.cancel();
        finalize_locked(job, JobState::kCancelled,
                        runtime::RunErrorKind::Cancelled,
                        "cancelled: server never started");
      }
    }
    cv_dispatch_.notify_all();
    to_join = std::move(dispatcher_);
  }
  if (to_join.joinable()) to_join.join();
}

ServeMetrics FactorizationServer::metrics() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServeMetrics m = m_;
  m.queue_depth =
      static_cast<std::int64_t>(queue_.depth() + delayed_.size());
  m.inflight = inflight_;
  m.est_service_ms = queue_.est_service_ms();
  m.latency_ms_mean =
      m.completed > 0 ? latency_ms_sum_ / static_cast<double>(m.completed)
                      : 0.0;
  m.queue_ms_mean =
      queue_ms_count_ > 0
          ? queue_ms_sum_ / static_cast<double>(queue_ms_count_)
          : 0.0;
  m.uptime_s =
      started_
          ? std::chrono::duration<double>(Clock::now() - started_at_).count()
          : 0.0;
  m.stream = aggregator_.snapshot();
  return m;
}

std::string FactorizationServer::metrics_json() const {
  const ServeMetrics m = metrics();
  const auto d = [](double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return std::string(buf);
  };
  const double pack_total = static_cast<double>(m.pack_hits + m.pack_misses);
  std::ostringstream os;
  os << "{\"submitted\":" << m.submitted << ",\"admitted\":" << m.admitted
     << ",\"rejected_full\":" << m.rejected_full
     << ",\"rejected_latency\":" << m.rejected_latency
     << ",\"rejected_draining\":" << m.rejected_draining
     << ",\"rejected_bad\":" << m.rejected_bad << ",\"shed\":" << m.shed
     << ",\"completed\":" << m.completed << ",\"failed\":" << m.failed
     << ",\"cancelled\":" << m.cancelled
     << ",\"deadline_exceeded\":" << m.deadline_exceeded
     << ",\"retries\":" << m.retries << ",\"batches\":" << m.batches
     << ",\"batched_jobs\":" << m.batched_jobs
     << ",\"queue_depth\":" << m.queue_depth << ",\"inflight\":" << m.inflight
     << ",\"est_service_ms\":" << d(m.est_service_ms)
     << ",\"latency_ms_mean\":" << d(m.latency_ms_mean)
     << ",\"latency_ms_max\":" << d(m.latency_ms_max)
     << ",\"queue_ms_mean\":" << d(m.queue_ms_mean)
     << ",\"uptime_s\":" << d(m.uptime_s)
     << ",\"pack_hits\":" << m.pack_hits
     << ",\"pack_misses\":" << m.pack_misses << ",\"pack_hit_rate\":"
     << d(pack_total > 0.0 ? static_cast<double>(m.pack_hits) / pack_total
                           : 0.0)
     << ",\"worker_deaths\":" << m.worker_deaths
     << ",\"tasks_requeued\":" << m.tasks_requeued
     << ",\"stream_compute_events\":" << m.stream.compute_events
     << ",\"stream_fault_events\":" << m.stream.fault_events
     << ",\"stream_makespan_s\":" << d(m.stream.makespan_s) << "}";
  return os.str();
}

}  // namespace hetsched::serve

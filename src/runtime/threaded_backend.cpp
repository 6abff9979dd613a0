#include "runtime/threaded_backend.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <random>
#include <thread>
#include <utility>
#include <vector>

#include "core/numeric_error.hpp"
#include "kernels/pack_geometry.hpp"
#include "kernels/scratch.hpp"
#include "obs/event.hpp"
#include "obs/stream.hpp"
#include "runtime/engine.hpp"

namespace hetsched {
namespace {

using Clock = std::chrono::steady_clock;

Clock::duration to_duration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

// Wall-clock host: every Scheduler callback happens under the runtime
// mutex, so the host needs no locking of its own. Queued-load accounting
// lives in the shared TaskLifecycle; the host adds the wall clock and the
// busy-until / liveness bookkeeping the DES backend keeps in WorkerState.
class WallClockHost final : public SchedulerHost {
 public:
  WallClockHost(const TaskGraph& g, const Platform& p, TaskLifecycle& lc,
                Clock::time_point t0)
      : graph_(g), platform_(p), lifecycle_(lc), t0_(t0) {
    busy_until_.assign(static_cast<std::size_t>(p.num_workers()), 0.0);
    alive_.assign(static_cast<std::size_t>(p.num_workers()), 1);
  }

  double now() const override {
    return std::chrono::duration<double>(Clock::now() - t0_).count();
  }
  const Platform& platform() const override { return platform_; }
  const TaskGraph& graph() const override { return graph_; }

  bool worker_alive(int worker) const override {
    return alive_[static_cast<std::size_t>(worker)] != 0;
  }

  double expected_available(int worker) const override {
    return std::max(now(), busy_until_[static_cast<std::size_t>(worker)]) +
           lifecycle_.queued_load(worker);
  }

  double estimated_transfer_seconds(int, int) const override {
    return 0.0;  // shared memory / not emulated
  }

  void note_task_queued(int task, int worker) override {
    const double est =
        platform_.worker_time_at(worker, graph_.task(task).kernel,
                                 graph_.task(task).nb);
    lifecycle_.note_queued(task, worker, est);
  }

  void on_pop(int task) { lifecycle_.on_pop(task); }

  void on_start(int worker, int task) {
    busy_until_[static_cast<std::size_t>(worker)] =
        now() + platform_.worker_time_at(worker, graph_.task(task).kernel,
                                         graph_.task(task).nb);
  }

  void set_dead(int worker) {
    alive_[static_cast<std::size_t>(worker)] = 0;
  }

 private:
  const TaskGraph& graph_;
  const Platform& platform_;
  TaskLifecycle& lifecycle_;
  Clock::time_point t0_;
  std::vector<double> busy_until_;
  std::vector<char> alive_;
};

// Shared mutable fault state; everything is guarded by the runtime mutex
// except the `cancel` flags, which cross the unlocked task attempt.
struct FaultRuntime {
  explicit FaultRuntime(const FaultPlan& p, int num_workers)
      : plan(p), rng(p.seed) {
    dead.assign(static_cast<std::size_t>(num_workers), 0);
    running.assign(static_cast<std::size_t>(num_workers), {});
    alive = num_workers;
    deaths = p.deaths;
    std::stable_sort(deaths.begin(), deaths.end(),
                     [](const WorkerDeath& x, const WorkerDeath& y) {
                       return x.time_s < y.time_s;
                     });
  }

  struct Running {
    int task = -1;
    bool has_deadline = false;
    Clock::time_point deadline;
    std::shared_ptr<std::atomic<bool>> cancel;
    bool timed_out = false;  // cancelled by the watchdog, not a death
  };

  const FaultPlan& plan;
  std::mt19937_64 rng;
  std::vector<WorkerDeath> deaths;  // sorted by time
  std::size_t next_death = 0;
  std::vector<char> dead;
  std::vector<Running> running;  // per worker
  std::vector<int> attempts;     // per task
  struct DelayedPush {
    Clock::time_point when;
    int task;
  };
  std::vector<DelayedPush> delayed;  // unsorted; the service scans it
  int alive = 0;
  bool stop_service = false;
  FaultStats stats;
};

}  // namespace

void ThreadedBackend::drive(RunEngine& engine) {
  const TaskGraph& g = engine.graph();
  const Platform& calibration = engine.platform();
  Scheduler& sched = engine.scheduler();
  const RunOptions& opt = engine.options();
  TaskLifecycle& lifecycle = engine.lifecycle();
  const int num_threads = calibration.num_workers();
  const FaultPlan* faults = opt.faults.empty() ? nullptr : &opt.faults;
  CancelToken* const token = opt.cancel;
  const bool can_cancel = cancellable();
  // Streaming lanes: worker thread w owns lane w; the fault service thread
  // owns the extra lane the engine opened at num_workers.
  obs::TraceStreamer* const stream = engine.stream();

  const auto t0 = Clock::now();
  WallClockHost host(g, calibration, lifecycle, t0);

  std::mutex mu;
  std::condition_variable cv_work;     // workers: new tasks / exit causes
  std::condition_variable cv_service;  // fault service: new timer triggers
  std::atomic<bool> failed{false};
  std::string error;
  RunErrorKind error_kind = RunErrorKind::None;
  // In-flight task per worker (-1 when none); the count of in-flight
  // attempts and the epoch bookkeeping feed the starvation detector.
  std::vector<int> current(static_cast<std::size_t>(num_threads), -1);
  int in_flight = 0;
  int active_threads = num_threads;
  int waiting = 0;
  // Every on_task_ready push bumps the epoch; a worker records the epoch
  // it went to sleep at. Starvation is declared only when nothing is in
  // flight, no fault timer can still push work, and every other live
  // worker went to sleep *after* the last push -- i.e. everyone saw the
  // scheduler refuse at the current epoch. Threads cannot throw across
  // the pool, so the diagnostic lands in the report instead.
  constexpr std::uint64_t kNotWaiting = ~std::uint64_t{0};
  std::uint64_t wake_epoch = 0;
  std::vector<std::uint64_t> waiting_epoch(
      static_cast<std::size_t>(num_threads), kNotWaiting);
  std::vector<int> newly;  // mark_done scratch, guarded by mu

  std::unique_ptr<FaultRuntime> fr;
  if (faults != nullptr) {
    fr = std::make_unique<FaultRuntime>(*faults, num_threads);
    fr->attempts.assign(static_cast<std::size_t>(g.num_tasks()), 0);
  }
  // Targeted wakeups are only sound when any worker can take any ready
  // task; policies with per-worker queues need the full broadcast so the
  // one worker a task was queued on is guaranteed to wake.
  const bool targeted = fr == nullptr && sched.central_queue();

  // All helpers below require the runtime mutex.
  const auto fail_run = [&](const std::string& msg, RunErrorKind kind) {
    if (error.empty()) {
      error = msg;
      error_kind = kind;
    }
    failed.store(true);
    cv_work.notify_all();
    cv_service.notify_all();
  };

  const auto push_ready = [&](int task) {
    sched.on_task_ready(host, task);
    ++wake_epoch;
  };

  // Polls the run's cancel token; fires the structured failure once and
  // tells the caller to retire. Cancellation is cooperative: callers check
  // at task boundaries, so an in-flight numeric kernel always finishes its
  // tile (emulated attempts additionally poll the token inside their
  // sliced sleep and abort early).
  const auto token_fired = [&]() -> bool {
    if (token == nullptr) return false;
    const CancelReason r = token->status();
    if (r == CancelReason::kNone) return false;
    fail_run(r == CancelReason::kDeadline
                 ? "deadline exceeded: run aborted at a task boundary"
                 : "cancelled: run aborted at a task boundary",
             r == CancelReason::kDeadline ? RunErrorKind::DeadlineExceeded
                                          : RunErrorKind::Cancelled);
    return true;
  };

  // Records a failed attempt and either schedules a retry after backoff or
  // aborts the run with a structured message. `worker` is the calling
  // worker thread (it doubles as the streaming lane).
  const auto retry_or_abort = [&](int worker, int task, const char* why) {
    const int att = ++fr->attempts[static_cast<std::size_t>(task)];
    if (att > fr->plan.retry.max_retries) {
      fail_run("retry budget exhausted: task " + std::to_string(task) +
                   " failed " + std::to_string(att) + " times (last: " + why +
                   ")",
               RunErrorKind::Fault);
      return;
    }
    ++fr->stats.retries;
    const double delay = fr->plan.backoff_s(att);
    fr->stats.recovery_time_s += delay;
    if (stream)
      stream->emit(worker, obs::TraceEvent::fault_event(
                               obs::FaultEventKind::Retry, host.now(), worker,
                               task, -1, delay));
    fr->delayed.push_back({Clock::now() + to_duration(delay), task});
    cv_service.notify_all();  // the service re-arms on the new timer
  };

  const auto starved = [&](int self) {
    if (in_flight != 0) return false;
    if (waiting != active_threads - 1) return false;
    for (int w = 0; w < num_threads; ++w) {
      if (w == self) continue;
      const std::uint64_t e = waiting_epoch[static_cast<std::size_t>(w)];
      if (e != kNotWaiting && e != wake_epoch) return false;
    }
    if (fr && (fr->next_death < fr->deaths.size() || !fr->delayed.empty()))
      return false;
    return true;
  };

  // Injects the planned deaths due by `now_tp` (the fault service lane
  // emits their events).
  const auto inject_due_deaths = [&](Clock::time_point now_tp) {
    while (fr->next_death < fr->deaths.size()) {
      const WorkerDeath& d = fr->deaths[fr->next_death];
      if (t0 + to_duration(d.time_s) > now_tp) break;
      ++fr->next_death;
      if (fr->dead[static_cast<std::size_t>(d.worker)] != 0) continue;
      fr->dead[static_cast<std::size_t>(d.worker)] = 1;
      host.set_dead(d.worker);
      --fr->alive;
      ++fr->stats.worker_deaths;
      fr->stats.degraded = true;
      if (stream)
        stream->emit(num_threads, obs::TraceEvent::fault_event(
                                      obs::FaultEventKind::WorkerDeath,
                                      host.now(), d.worker));
      auto& run = fr->running[static_cast<std::size_t>(d.worker)];
      if (run.task >= 0 && run.cancel) run.cancel->store(true);
      for (const int t : sched.on_worker_dead(host, d.worker)) {
        ++fr->stats.tasks_requeued;
        if (stream)
          stream->emit(num_threads, obs::TraceEvent::fault_event(
                                        obs::FaultEventKind::TaskRequeued,
                                        host.now(), d.worker, t));
        push_ready(t);
      }
      if (fr->alive == 0 && !lifecycle.all_done())
        fail_run("every worker died before completion", RunErrorKind::Fault);
      cv_work.notify_all();
    }
  };

  {
    std::lock_guard<std::mutex> lock(mu);
    sched.initialize(host);
    lifecycle.seed(sched, host);
    // Deaths planned at (or before) the start land before any worker can
    // pop: left to the service thread, they would race the pool.
    if (fr) inject_due_deaths(Clock::now());
  }

  kernels::ScratchPool scratch_pool(num_threads);
  std::vector<std::vector<ComputeRecord>> worker_records(
      static_cast<std::size_t>(num_threads));

  const auto worker_loop = [&](int worker) {
    // Per-worker packing scratch for the numeric-kernel attempts; packing
    // never allocates once the buffers reach steady-state size. Emulated
    // attempts simply never touch it.
    kernels::ScratchBinding scratch(scratch_pool.at(worker));
    std::vector<ComputeRecord>& records =
        worker_records[static_cast<std::size_t>(worker)];
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
      if (lifecycle.all_done() || failed.load()) break;
      if (token_fired()) break;
      if (fr && fr->dead[static_cast<std::size_t>(worker)] != 0) break;
      const int task = sched.pop_task(host, worker);
      if (task < 0) {
        if (starved(worker)) {
          const SchedulerError diag = lifecycle.starvation_error(
              sched.name(), num_threads, [&](int id) {
                return std::find(current.begin(), current.end(), id) !=
                       current.end();
              });
          fail_run(diag.what(), RunErrorKind::Scheduler);
          break;
        }
        waiting_epoch[static_cast<std::size_t>(worker)] = wake_epoch;
        ++waiting;
        if (token == nullptr) {
          cv_work.wait(lock);
        } else {
          // A parked worker must still observe an external cancel (or its
          // deadline tripping) with nothing left to notify it; bounded
          // waits turn the token into a poll without a watcher thread.
          cv_work.wait_for(lock, std::chrono::milliseconds(2));
        }
        --waiting;
        waiting_epoch[static_cast<std::size_t>(worker)] = kNotWaiting;
        continue;
      }
      host.on_pop(task);
      // Injected transient failure, drawn *before* execution so the
      // attempt is side-effect free on both substrates.
      if (fr && fr->plan.transient_failure_prob > 0.0) {
        std::bernoulli_distribution fail(fr->plan.transient_failure_prob);
        if (fail(fr->rng)) {
          ++fr->stats.transient_failures;
          if (stream)
            stream->emit(worker, obs::TraceEvent::fault_event(
                                     obs::FaultEventKind::TransientFailure,
                                     host.now(), worker, task));
          retry_or_abort(worker, task, "injected transient failure");
          continue;
        }
      }
      host.on_start(worker, task);
      const std::atomic<bool>* cancel_flag = nullptr;
      if (fr) {
        auto& run = fr->running[static_cast<std::size_t>(worker)];
        run.task = task;
        run.timed_out = false;
        if (can_cancel) {
          run.cancel = std::make_shared<std::atomic<bool>>(false);
          cancel_flag = run.cancel.get();
          run.has_deadline = fr->plan.watchdog_timeout_factor > 0.0;
          if (run.has_deadline) {
            const double est =
                calibration.worker_time_at(worker, g.task(task).kernel,
                                           g.task(task).nb) *
                fr->plan.watchdog_timeout_factor;
            run.deadline = Clock::now() + to_duration(est);
          }
          cv_service.notify_all();  // the service re-arms on the deadline
        }
      }
      current[static_cast<std::size_t>(worker)] = task;
      ++in_flight;
      lock.unlock();

      const double start =
          std::chrono::duration<double>(Clock::now() - t0).count();
      std::string attempt_error;
      const bool ok =
          run_task(engine, worker, task, cancel_flag, &attempt_error);
      const double end =
          std::chrono::duration<double>(Clock::now() - t0).count();

      lock.lock();
      current[static_cast<std::size_t>(worker)] = -1;
      --in_flight;
      bool cancelled = false;
      bool timed_out = false;
      if (fr) {
        auto& run = fr->running[static_cast<std::size_t>(worker)];
        cancelled = run.cancel && run.cancel->load();
        timed_out = run.timed_out;
        run.task = -1;
        run.cancel.reset();
        run.has_deadline = false;
      }
      // Lock-free per-worker buffers, merged once after the pool joins;
      // cancelled and retried attempts are traced like the pre-refactor
      // executor traced them.
      if (opt.record_trace)
        records.push_back({worker, task, g.task(task).kernel, start, end});
      if (stream)
        stream->emit(worker, obs::TraceEvent::compute(
                                 worker, task, g.task(task).kernel, start,
                                 end));
      if (!ok) {
        fail_run(attempt_error, RunErrorKind::Numeric);
        break;
      }
      if (cancelled) {
        if (timed_out) {
          // Watchdog cancel: the attempt overran its deadline.
          ++fr->stats.watchdog_timeouts;
          if (stream)
            stream->emit(worker, obs::TraceEvent::fault_event(
                                     obs::FaultEventKind::WatchdogTimeout,
                                     host.now(), worker, task));
          retry_or_abort(worker, task, "watchdog timeout");
          continue;
        }
        // Death cancel: the attempt is orphaned; re-enqueue it through
        // the (already degraded) live scheduler and retire this thread.
        ++fr->stats.tasks_requeued;
        if (stream)
          stream->emit(worker, obs::TraceEvent::fault_event(
                                   obs::FaultEventKind::TaskRequeued,
                                   host.now(), worker, task));
        push_ready(task);
        cv_work.notify_all();
        break;
      }
      // A token that fired during the attempt aborts before publication:
      // the completed tile is intact, but its successors are never
      // released, so no new work starts after the cancellation point.
      if (token_fired()) break;
      newly.clear();
      lifecycle.mark_done(task, newly);
      for (const int s : newly) push_ready(s);
      if (!targeted || lifecycle.all_done()) {
        cv_work.notify_all();  // everyone must observe completion / pushes
      } else {
        // Targeted wakeups: exactly one waiter per task made ready (this
        // worker pops its next task without waiting). A completion that
        // releases nothing wakes nobody -- no thundering herd.
        for (std::size_t i = 0; i < newly.size(); ++i) cv_work.notify_one();
      }
      // Cooperative death: a non-cancellable worker finishes its in-flight
      // task (the kernels are non-idempotent) and only then retires.
      if (fr && fr->dead[static_cast<std::size_t>(worker)] != 0) break;
    }
    --active_threads;
    cv_work.notify_all();  // the active-count feeds the starvation check
  };

  // Watchdog / fault service: injects deaths at their planned wall time,
  // re-pushes retries when their backoff elapses, and cancels attempts
  // that overrun their deadline.
  const auto service_loop = [&] {
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
      if (fr->stop_service || failed.load()) return;
      const auto now_tp = Clock::now();
      inject_due_deaths(now_tp);
      // Backed-off retries due now.
      for (std::size_t i = 0; i < fr->delayed.size();) {
        if (fr->delayed[i].when <= now_tp) {
          const int t = fr->delayed[i].task;
          fr->delayed[i] = fr->delayed.back();
          fr->delayed.pop_back();
          push_ready(t);
          cv_work.notify_all();
        } else {
          ++i;
        }
      }
      // Deadline overruns.
      for (auto& run : fr->running)
        if (run.task >= 0 && run.has_deadline && !run.timed_out &&
            run.deadline <= now_tp && run.cancel) {
          run.timed_out = true;
          run.cancel->store(true);
        }
      // Sleep until the earliest upcoming trigger (or a state change).
      auto wake = now_tp + std::chrono::milliseconds(50);
      if (fr->next_death < fr->deaths.size())
        wake = std::min(
            wake, t0 + to_duration(fr->deaths[fr->next_death].time_s));
      for (const auto& d : fr->delayed) wake = std::min(wake, d.when);
      for (const auto& run : fr->running)
        if (run.task >= 0 && run.has_deadline && !run.timed_out)
          wake = std::min(wake, run.deadline);
      cv_service.wait_until(lock, wake);
    }
  };

  std::thread service;
  if (fr) service = std::thread(service_loop);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(num_threads));
  for (int w = 0; w < num_threads; ++w) threads.emplace_back(worker_loop, w);
  for (std::thread& t : threads) t.join();
  if (fr) {
    {
      std::lock_guard<std::mutex> lock(mu);
      fr->stop_service = true;
    }
    cv_service.notify_all();
    service.join();
  }

  if (opt.record_trace) {
    std::size_t total = 0;
    for (const auto& r : worker_records) total += r.size();
    std::vector<ComputeRecord> all;
    all.reserve(total);
    for (const auto& r : worker_records)
      all.insert(all.end(), r.begin(), r.end());
    std::sort(all.begin(), all.end(),
              [](const ComputeRecord& x, const ComputeRecord& y) {
                if (x.start != y.start) return x.start < y.start;
                if (x.end != y.end) return x.end < y.end;
                return x.task < y.task;
              });
    for (const ComputeRecord& r : all) engine.trace().record_compute(r);
  }

  const double elapsed =
      std::chrono::duration<double>(Clock::now() - t0).count();
  RunReport& res = engine.report();
  res.success = !failed.load() && lifecycle.all_done();
  res.makespan_s = makespan_from(elapsed);
  res.error = error;
  res.error_kind = error_kind;
  if (fr) res.faults = fr->stats;
  on_drive_end(engine);
}

bool ComputeBackend::run_task(RunEngine& engine, int, int task,
                              const std::atomic<bool>*, std::string* error) {
  const Task& t = engine.graph().task(task);
  // Region-sized blocking for this attempt: a 240-wide subtile packs
  // 240-deep panels, not the global full-tile geometry. The binding is
  // thread-local, so concurrent workers at other granularities keep their
  // own; on a uniform tile the clamp packs the global geometry's panels.
  kernels::PackGeometryBinding geometry(kernels::resolve_pack_geometry(
      t.nb > 0 ? t.nb : blocks_.layout().base_nb));
  // Numeric failures (non-SPD pivots) abort deterministically with the
  // tile coordinates and pivot of the first offending POTRF.
  try {
    execute_plan_task_checked(blocks_, t);
  } catch (const NumericError& e) {
    *error = e.what();
    return false;
  }
  return true;
}

bool EmulationBackend::run_task(RunEngine& engine, int worker, int task,
                                const std::atomic<bool>* cancel,
                                std::string*) {
  double seconds =
      engine.platform().worker_time_at(worker, engine.graph().task(task).kernel,
                                       engine.graph().task(task).nb) *
      time_scale_;
  const CancelToken* const token = engine.options().cancel;
  if (cancel == nullptr && token == nullptr) {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    return true;
  }
  // Sliced sleep so the watchdog, a death, or the run's cancel token can
  // abort the attempt mid-sleep.
  constexpr double kSlice = 200e-6;
  while (seconds > 0.0) {
    if (cancel != nullptr && cancel->load()) return true;  // caller handles it
    if (token != nullptr && token->cancelled()) return true;
    const double s = std::min(seconds, kSlice);
    std::this_thread::sleep_for(std::chrono::duration<double>(s));
    seconds -= s;
  }
  return true;
}

}  // namespace hetsched

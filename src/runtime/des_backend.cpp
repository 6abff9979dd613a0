#include "runtime/des_backend.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <map>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "core/numeric_error.hpp"
#include "fault/fault_error.hpp"
#include "obs/event.hpp"
#include "obs/stream.hpp"
#include "runtime/engine.hpp"
#include "sim/data_manager.hpp"
#include "sim/event_queue.hpp"

namespace hetsched {
namespace {

// One DES run. The engine owns the task lifecycle (dependency countdown,
// queued-load notes, completion set) and the trace; this class owns the
// virtual clock, the event queue, the data manager / bus model and the
// fault machinery. Event push ordering is load-bearing: the EventQueue
// breaks time ties by insertion sequence, so the order of pushes below
// must not change without revisiting the bit-for-bit golden tests.
class DesRun final : public SchedulerHost {
 public:
  explicit DesRun(RunEngine& engine)
      : graph_(engine.graph()),
        platform_(engine.platform()),
        sched_(engine.scheduler()),
        opt_(engine.options()),
        lifecycle_(engine.lifecycle()),
        trace_(engine.trace()),
        stream_(engine.stream()),
        lane_(engine.platform().num_workers()),
        has_faults_(!opt_.faults.empty()),
        data_(max_tile_handle(graph_) + 1, platform_.num_memory_nodes(),
              tile_bytes(platform_)),
        rng_(opt_.noise_seed),
        fault_rng_(opt_.faults.seed) {
    workers_.resize(static_cast<std::size_t>(platform_.num_workers()));
    active_fetch_.assign(fetch_slot(data_.num_tiles(), 0), -1);
    channels_.resize(static_cast<std::size_t>(
        2 * std::max(0, platform_.num_memory_nodes() - 1)));
    if (opt_.accel_memory_bytes > 0)
      for (int node = 1; node < platform_.num_memory_nodes(); ++node)
        data_.set_node_capacity(node, opt_.accel_memory_bytes);
    alive_workers_ = platform_.num_workers();
    if (has_faults_) {
      attempts_.assign(static_cast<std::size_t>(graph_.num_tasks()), 0);
      node_dead_.assign(
          static_cast<std::size_t>(platform_.num_memory_nodes()), 0);
      pending_recovery_.resize(
          static_cast<std::size_t>(platform_.num_workers()));
      writers_by_tile_.resize(static_cast<std::size_t>(data_.num_tiles()));
      // Task ids are submission order, hence version order per tile.
      for (const Task& t : graph_.tasks())
        for (const TaskAccess& a : t.accesses)
          if (a.mode != AccessMode::Read)
            writers_by_tile_[static_cast<std::size_t>(a.tile)].push_back(
                t.id);
    }
  }

  void run(RunEngine& engine);

  // ---- SchedulerHost ----
  double now() const override { return now_; }
  const Platform& platform() const override { return platform_; }
  const TaskGraph& graph() const override { return graph_; }

  bool worker_alive(int worker) const override {
    return workers_[static_cast<std::size_t>(worker)].alive;
  }

  double expected_available(int worker) const override {
    const WorkerState& w = workers_[static_cast<std::size_t>(worker)];
    double base = now_;
    switch (w.state) {
      case WorkerState::S::Computing:
        base = w.busy_until;
        break;
      case WorkerState::S::Waiting:
        // Transfer remainder unknown to the estimator; count the compute.
        base = now_ + w.current_est;
        break;
      case WorkerState::S::Idle:
        break;
    }
    return base + lifecycle_.queued_load(worker);
  }

  double estimated_transfer_seconds(int task, int worker) const override {
    const BusModel& bus = platform_.bus();
    if (!bus.enabled) return 0.0;
    const int node = platform_.worker(worker).memory_node;
    double total = 0.0;
    data_.for_each_missing_tile(graph_.task(task), node, [&](int tile) {
      if (active_fetch_[fetch_slot(tile, node)] >= 0) return;  // on the way
      const int src = data_.valid(tile, 0) ? 0 : first_valid_node(tile);
      total += static_cast<double>(BusModel::hops(src, node)) *
               bus.transfer_time(data_.tile_bytes());
    });
    return total;
  }

  void note_task_queued(int task, int worker) override {
    if (!workers_[static_cast<std::size_t>(worker)].alive) return;
    const double est =
        platform_.worker_time_at(worker, graph_.task(task).kernel,
                                 graph_.task(task).nb);
    lifecycle_.note_queued(task, worker, est);
    if (opt_.prefetch) prefetch_inputs(task, worker);
  }

 private:
  struct WorkerState {
    enum class S { Idle, Waiting, Computing } state = S::Idle;
    bool alive = true;
    int current_task = -1;
    int recovering_tile = -1;  ///< tile being rebuilt by this worker
    double current_start = 0.0;
    double current_est = 0.0;
    double busy_until = 0.0;
    int pending_fetches = 0;
  };

  struct Channel {
    bool busy = false;
    std::deque<int> queue;  // fetch ids
  };

  struct Fetch {
    int tile = -1;
    int dst = -1;
    int hops_left = 0;
    double hop_start = 0.0;
    bool done = false;
    std::vector<int> waiting_workers;
  };

  struct RecoveryJob {
    int tile = -1;
    double seconds = 0.0;
  };

  static int max_tile_handle(const TaskGraph& g) {
    int m = 0;
    for (const Task& t : g.tasks())
      for (const TaskAccess& a : t.accesses) m = std::max(m, a.tile);
    return m;
  }

  static std::size_t tile_bytes(const Platform& p) {
    return static_cast<std::size_t>(p.nb()) * static_cast<std::size_t>(p.nb()) *
           sizeof(double);
  }

  // Index of (tile, node) in active_fetch_.
  std::size_t fetch_slot(int tile, int node) const {
    return static_cast<std::size_t>(tile) *
               static_cast<std::size_t>(data_.num_nodes()) +
           static_cast<std::size_t>(node);
  }

  int first_valid_node(int tile) const {
    for (int m = 0; m < data_.num_nodes(); ++m)
      if (data_.valid(tile, m)) return m;
    return 0;
  }

  // Channel ids: accelerator node m >= 1 owns h2d channel 2(m-1) and d2h
  // channel 2(m-1)+1.
  static int h2d_channel(int node) { return 2 * (node - 1); }
  static int d2h_channel(int node) { return 2 * (node - 1) + 1; }

  double noise_factor() {
    if (opt_.noise_cv <= 0.0) return 1.0;
    std::normal_distribution<double> dist(1.0, opt_.noise_cv);
    return std::max(0.25, dist(rng_));
  }

  bool tile_lost(int tile) const {
    return has_faults_ && lost_tiles_.count(tile) != 0;
  }

  // The whole DES runs on one thread, so every event uses the same lane.
  void emit(const obs::TraceEvent& e) {
    if (stream_) stream_->emit(lane_, e);
  }

  // Ensures a fetch of `tile` to `node` exists; returns its id, or -1 if the
  // tile is already valid at `node`.
  int ensure_fetch(int tile, int node) {
    if (data_.valid(tile, node)) return -1;
    int& active = active_fetch_[fetch_slot(tile, node)];
    if (active >= 0) return active;
    const int src = data_.pick_source(tile, node);
    Fetch f;
    f.tile = tile;
    f.dst = node;
    f.hops_left = BusModel::hops(src, node);
    const int id = static_cast<int>(fetches_.size());
    fetches_.push_back(std::move(f));
    active = id;
    // First hop: from src. Two-hop fetches start with the d2h leg.
    const int ch = src == 0 ? h2d_channel(node) : d2h_channel(src);
    enqueue_hop(ch, id);
    return id;
  }

  void enqueue_hop(int ch, int fetch_id) {
    channels_[static_cast<std::size_t>(ch)].queue.push_back(fetch_id);
    service_channel(ch);
  }

  void service_channel(int ch) {
    Channel& c = channels_[static_cast<std::size_t>(ch)];
    if (c.busy || c.queue.empty()) return;
    const int fid = c.queue.front();
    c.queue.pop_front();
    c.busy = true;
    Fetch& f = fetches_[static_cast<std::size_t>(fid)];
    f.hop_start = now_;
    const double t =
        platform_.bus().hop_time(data_.tile_bytes(), active_hops_);
    ++active_hops_;
    events_.push(now_ + t, EventType::TransferFinish, ch, fid);
  }

  void on_transfer_finish(int ch, int fid) {
    Channel& c = channels_[static_cast<std::size_t>(ch)];
    c.busy = false;
    --active_hops_;
    Fetch& f = fetches_[static_cast<std::size_t>(fid)];
    --f.hops_left;
    ++transfer_hops_;
    const bool final_hop = f.hops_left == 0;
    const int to_node = final_hop ? f.dst : 0;
    if (opt_.record_trace || stream_) {
      TransferRecord r;
      r.tile = f.tile;
      r.from_node = final_hop && f.dst != 0 ? 0 : first_valid_node(f.tile);
      r.to_node = to_node;
      r.start = f.hop_start;
      r.end = now_;
      if (opt_.record_trace) trace_.record_transfer(r);
      emit(obs::TraceEvent::transfer(r.tile, r.from_node, r.to_node, r.start,
                                     r.end));
    }
    if (final_hop) {
      const bool dst_dead =
          has_faults_ && node_dead_[static_cast<std::size_t>(f.dst)] != 0;
      if (!dst_dead) {
        make_room(f.dst);
        data_.add_replica(f.tile, f.dst);
        if (tile_lost(f.tile)) restore_tile(f.tile);
      }
      f.done = true;
      active_fetch_[fetch_slot(f.tile, f.dst)] = -1;
      for (const int w : f.waiting_workers) {
        WorkerState& ws = workers_[static_cast<std::size_t>(w)];
        if (!ws.alive) continue;
        if (--ws.pending_fetches == 0 && ws.state == WorkerState::S::Waiting)
          start_compute(w);
      }
      f.waiting_workers.clear();
    } else {
      // Intermediate d2h hop landed in RAM (node 0 is never evicted from).
      data_.add_replica(f.tile, 0);
      if (tile_lost(f.tile)) restore_tile(f.tile);
      enqueue_hop(h2d_channel(f.dst), fid);
    }
    service_channel(ch);
  }

  // Evicts LRU clean replicas at `node` until one more tile fits. Replicas
  // serving as sources of in-flight hops may be evicted; the model treats
  // the data as already on the wire, a mild optimism documented in
  // DESIGN.md.
  void make_room(int node) {
    if (node == 0) return;  // host RAM is unlimited
    while (data_.needs_room(node)) {
      const int victim = data_.pick_eviction_victim(node);
      if (victim < 0) {
        ++capacity_overflows_;
        break;
      }
      data_.invalidate(victim, node);
      ++evictions_;
    }
  }

  void prefetch_inputs(int task, int worker) {
    const int node = platform_.worker(worker).memory_node;
    if (!platform_.bus().enabled) return;
    data_.for_each_missing_tile(graph_.task(task), node, [&](int tile) {
      if (tile_lost(tile)) return;  // restored (then fetched) after repair
      (void)ensure_fetch(tile, node);
    });
  }

  // Tries to hand a new task to an idle worker; true if one was committed.
  bool try_start(int worker) {
    WorkerState& w = workers_[static_cast<std::size_t>(worker)];
    if (!w.alive || w.state != WorkerState::S::Idle) return false;
    // Lineage recomputation of lost tiles preempts regular work.
    if (has_faults_ &&
        !pending_recovery_[static_cast<std::size_t>(worker)].empty()) {
      start_recovery(worker);
      return true;
    }
    const int task = sched_.pop_task(*this, worker);
    if (task < 0) return false;

    // Undo the queued-load accounting made at push time.
    lifecycle_.on_pop(task);

    w.current_task = task;
    w.current_est = platform_.worker_time_at(worker, graph_.task(task).kernel,
                                             graph_.task(task).nb);
    const int node = platform_.worker(worker).memory_node;
    // Inputs of a committed task must survive until it finishes.
    for (const TaskAccess& a : graph_.task(task).accesses)
      data_.pin(a.tile, node);
    w.pending_fetches = 0;
    // Inputs whose sole copy died with a node block the task until their
    // lineage recomputation restores them (then a regular fetch follows).
    if (has_faults_ && !lost_tiles_.empty()) {
      std::vector<int> seen;
      for (const TaskAccess& a : graph_.task(task).accesses) {
        if (!tile_lost(a.tile)) continue;
        if (std::find(seen.begin(), seen.end(), a.tile) != seen.end())
          continue;
        seen.push_back(a.tile);
        waiting_on_lost_[a.tile].push_back(worker);
        ++w.pending_fetches;
      }
    }
    if (platform_.bus().enabled)
      data_.for_each_missing_tile(graph_.task(task), node, [&](int tile) {
        if (tile_lost(tile)) return;  // counted as a lost-tile wait above
        const int fid = ensure_fetch(tile, node);
        if (fid < 0) return;
        fetches_[static_cast<std::size_t>(fid)].waiting_workers.push_back(
            worker);
        ++w.pending_fetches;
      });
    if (w.pending_fetches == 0) {
      start_compute(worker);
    } else {
      w.state = WorkerState::S::Waiting;
    }
    return true;
  }

  void start_compute(int worker) {
    WorkerState& w = workers_[static_cast<std::size_t>(worker)];
    double duration = (w.current_est + opt_.per_task_overhead_s) * noise_factor();
    if (has_faults_) {
      const double slow = opt_.faults.slowdown_factor(worker, now_);
      if (slow != 1.0) {
        duration *= slow;
        ++fstats_.slowdown_hits;
        emit(obs::TraceEvent::fault_event(obs::FaultEventKind::SlowdownHit,
                                          now_, worker, w.current_task));
      }
    }
    w.state = WorkerState::S::Computing;
    w.current_start = now_;
    w.busy_until = now_ + duration;
    events_.push(w.busy_until, EventType::TaskFinish, worker, w.current_task);
  }

  void on_task_finish(int worker, int task) {
    WorkerState& w = workers_[static_cast<std::size_t>(worker)];
    // Stale event: the worker died (attempt aborted) after this was queued.
    if (!w.alive || w.current_task != task) return;
    if (has_faults_ && opt_.faults.potrf_fail_step >= 0) {
      const Task& t = graph_.task(task);
      if (t.kernel == Kernel::POTRF && t.k == opt_.faults.potrf_fail_step)
        throw NumericError(Kernel::POTRF, t.k, t.k, 1);
    }
    bool attempt_failed = false;
    if (has_faults_ && opt_.faults.transient_failure_prob > 0.0) {
      std::bernoulli_distribution fail(opt_.faults.transient_failure_prob);
      attempt_failed = fail(fault_rng_);
    }
    if (opt_.record_trace || stream_) {
      ComputeRecord r;
      r.worker = worker;
      r.task = task;
      r.kernel = graph_.task(task).kernel;
      r.start = w.current_start;
      r.end = now_;
      if (opt_.record_trace) trace_.record_compute(r);
      emit(obs::TraceEvent::compute(worker, task, r.kernel, r.start, r.end));
    }
    const int node = platform_.worker(worker).memory_node;
    for (const TaskAccess& a : graph_.task(task).accesses)
      data_.unpin(a.tile, node);
    if (attempt_failed) {
      ++fstats_.transient_failures;
      emit(obs::TraceEvent::fault_event(obs::FaultEventKind::TransientFailure,
                                        now_, worker, task));
      const int att = ++attempts_[static_cast<std::size_t>(task)];
      if (att > opt_.faults.retry.max_retries)
        throw FaultError(FaultError::Kind::RetryBudgetExhausted, task, -1,
                         att);
      ++fstats_.retries;
      const double delay = opt_.faults.backoff_s(att);
      fstats_.recovery_time_s += delay;
      emit(obs::TraceEvent::fault_event(obs::FaultEventKind::Retry, now_,
                                        worker, task, -1, delay));
      events_.push(now_ + delay, EventType::RetryRelease, task, 0);
      w.state = WorkerState::S::Idle;
      w.current_task = -1;
      return;
    }
    for (const TaskAccess& a : graph_.task(task).accesses) {
      if (a.mode != AccessMode::Read) {
        data_.set_only_valid(a.tile, node);
        if (tile_lost(a.tile)) restore_tile(a.tile);
      } else if (data_.valid(a.tile, node)) {
        data_.touch(a.tile, node);
      }
    }

    w.state = WorkerState::S::Idle;
    w.current_task = -1;
    newly_ready_.clear();
    lifecycle_.mark_done(task, newly_ready_);
    for (const int succ : newly_ready_) sched_.on_task_ready(*this, succ);
  }

  // ---- Fault handling -------------------------------------------------

  void on_worker_death(int worker) {
    WorkerState& w = workers_[static_cast<std::size_t>(worker)];
    if (!w.alive) return;  // duplicate plan entry
    w.alive = false;
    --alive_workers_;
    ++fstats_.worker_deaths;
    fstats_.degraded = true;
    emit(obs::TraceEvent::fault_event(obs::FaultEventKind::WorkerDeath, now_,
                                      worker));
    if (alive_workers_ == 0 && !lifecycle_.all_done())
      throw FaultError(FaultError::Kind::AllWorkersDead, -1, -1, 0);

    const int node = platform_.worker(worker).memory_node;
    // Abort the in-flight attempt; the task is still ready and re-enters
    // the scheduler below. Its stale TaskFinish event is ignored.
    const int orphan = w.current_task;
    if (orphan >= 0) {
      for (const TaskAccess& a : graph_.task(orphan).accesses)
        data_.unpin(a.tile, node);
      w.current_task = -1;
      w.pending_fetches = 0;
    }
    // A recovery job dies with its worker; re-dispatch it elsewhere.
    std::vector<int> recoveries;
    if (w.recovering_tile >= 0) {
      recoveries.push_back(w.recovering_tile);
      w.recovering_tile = -1;
    }
    for (const RecoveryJob& j :
         pending_recovery_[static_cast<std::size_t>(worker)])
      recoveries.push_back(j.tile);
    pending_recovery_[static_cast<std::size_t>(worker)].clear();

    // An accelerator's private memory dies with its worker.
    for (const int tile : recoveries) recovery_queued_.erase(tile);
    if (node != 0) handle_node_loss(node);

    for (const int tile : recoveries) dispatch_recovery(tile);

    // Let the policy degrade: drain / remap its queue for the dead worker,
    // then re-push everything stranded (ready tasks only, per the
    // Scheduler contract).
    std::vector<int> stranded = sched_.on_worker_dead(*this, worker);
    if (orphan >= 0) stranded.push_back(orphan);
    for (const int task : stranded) {
      ++fstats_.tasks_requeued;
      emit(obs::TraceEvent::fault_event(obs::FaultEventKind::TaskRequeued,
                                        now_, worker, task));
      sched_.on_task_ready(*this, task);
    }
  }

  void handle_node_loss(int node) {
    node_dead_[static_cast<std::size_t>(node)] = 1;
    // Sole copies are collected before any recovery decision so lineage
    // checks see the complete lost set of this death.
    std::vector<int> sole;
    for (int t = 0; t < data_.num_tiles(); ++t) {
      if (!data_.valid(t, node)) continue;
      if (data_.replica_count(t) > 1) {
        data_.lose_replica(t, node);
      } else {
        sole.push_back(t);
      }
    }
    std::vector<int> to_recover;
    for (const int t : sole) {
      data_.lose_replica(t, node);
      ++fstats_.sole_copy_losses;
      emit(obs::TraceEvent::fault_event(obs::FaultEventKind::SoleCopyLoss,
                                        now_, -1, -1, t));
      // An in-flight fetch sourced from this replica still delivers (the
      // bits are on the wire -- same optimism as LRU eviction of fetch
      // sources); the tile reappears at the fetch destination.
      bool on_wire = false;
      for (int m = 0; m < data_.num_nodes() && !on_wire; ++m) {
        const int fid = active_fetch_[fetch_slot(t, m)];
        on_wire = fid >= 0 && !fetches_[static_cast<std::size_t>(fid)].done &&
                  m != node && !node_dead_[static_cast<std::size_t>(m)];
      }
      lost_tiles_.insert(t);
      if (on_wire) continue;
      // Only tiles some unfinished task still reads or writes matter.
      // Unneeded losses stay in the lost set (another tile's lineage may
      // still pull them in recursively) but get no recovery of their own.
      bool needed = false;
      for (const Task& task : graph_.tasks()) {
        if (lifecycle_.done(task.id)) continue;
        for (const TaskAccess& a : task.accesses)
          if (a.tile == t) {
            needed = true;
            break;
          }
        if (needed) break;
      }
      if (!needed) continue;
      to_recover.push_back(t);
    }
    for (const int t : to_recover) dispatch_recovery(t);
  }

  // Rebuilds a lost tile by re-running its writer chain (version order) on
  // one alive worker, modeled as a single recovery job of the summed
  // calibrated durations writing the result back to RAM. The replay reads
  // the submission-time checkpoint of the tile's initial content (the
  // standard fault-tolerant dense-solver assumption, see docs/faults.md)
  // plus the chain's cross-tile inputs; inputs that are themselves lost
  // recover recursively. With allow_recompute disabled the loss aborts
  // with a structured error instead.
  void dispatch_recovery(int tile) {
    if (!opt_.faults.allow_recompute)
      throw FaultError(FaultError::Kind::UnrecoverableDataLoss, -1, tile, 0);
    if (recovery_queued_.count(tile) != 0) return;
    recovery_queued_.insert(tile);
    const auto& chain = writers_by_tile_[static_cast<std::size_t>(tile)];
    if (chain.empty()) {
      // Never written: its initial content is the checkpoint; restore it
      // to host RAM at no modeled cost.
      data_.add_replica(tile, 0);
      restore_tile(tile);
      return;
    }
    for (const int task : chain)
      for (const TaskAccess& a : graph_.task(task).accesses) {
        if (a.mode != AccessMode::Read || a.tile == tile) continue;
        if (lost_tiles_.count(a.tile) != 0) {
          dispatch_recovery(a.tile);
        } else if (data_.replica_count(a.tile) == 0) {
          // Valid nowhere yet not tracked as lost: nothing to replay from.
          throw FaultError(FaultError::Kind::UnrecoverableDataLoss, -1, tile,
                           0);
        }
      }
    // Earliest-finish worker for the replay: availability plus the chain's
    // calibrated time on that worker (so accelerators keep long chains).
    int best = -1;
    double best_finish = 0.0;
    double best_seconds = 0.0;
    for (int w = 0; w < platform_.num_workers(); ++w) {
      if (!workers_[static_cast<std::size_t>(w)].alive) continue;
      double seconds = 0.0;
      for (const int task : chain)
        seconds += platform_.worker_time_at(w, graph_.task(task).kernel,
                                            graph_.task(task).nb);
      const double finish = expected_available(w) + seconds;
      if (best < 0 || finish < best_finish) {
        best = w;
        best_finish = finish;
        best_seconds = seconds;
      }
    }
    if (best < 0)
      throw FaultError(FaultError::Kind::AllWorkersDead, -1, tile, 0);
    RecoveryJob job;
    job.tile = tile;
    job.seconds = best_seconds;
    ++fstats_.recomputations;
    fstats_.recovery_time_s += job.seconds;
    emit(obs::TraceEvent::fault_event(obs::FaultEventKind::Recomputation,
                                      now_, best, -1, tile, job.seconds));
    pending_recovery_[static_cast<std::size_t>(best)].push_back(job);
  }

  void start_recovery(int worker) {
    WorkerState& w = workers_[static_cast<std::size_t>(worker)];
    auto& q = pending_recovery_[static_cast<std::size_t>(worker)];
    const RecoveryJob job = q.front();
    q.pop_front();
    w.state = WorkerState::S::Computing;
    w.current_task = -1;
    w.recovering_tile = job.tile;
    w.current_start = now_;
    w.busy_until = now_ + job.seconds;
    events_.push(w.busy_until, EventType::RecoveryFinish, worker, job.tile);
  }

  void on_recovery_finish(int worker, int tile) {
    WorkerState& w = workers_[static_cast<std::size_t>(worker)];
    if (!w.alive || w.recovering_tile != tile) return;  // stale (death)
    w.recovering_tile = -1;
    w.state = WorkerState::S::Idle;
    data_.add_replica(tile, 0);  // rebuilt into host RAM
    restore_tile(tile);
  }

  // A lost tile became valid again (recovery, in-flight fetch arrival, or
  // a regeneration by a write): unblock every worker parked on it.
  void restore_tile(int tile) {
    lost_tiles_.erase(tile);
    recovery_queued_.erase(tile);
    const auto it = waiting_on_lost_.find(tile);
    if (it == waiting_on_lost_.end()) return;
    const std::vector<int> waiters = std::move(it->second);
    waiting_on_lost_.erase(it);
    for (const int wk : waiters) {
      WorkerState& ws = workers_[static_cast<std::size_t>(wk)];
      if (!ws.alive) continue;
      const int node = platform_.worker(wk).memory_node;
      const int fid = platform_.bus().enabled && !data_.valid(tile, node)
                          ? ensure_fetch(tile, node)
                          : -1;
      if (fid >= 0) {
        // The lost-tile wait becomes a regular fetch wait (count unchanged).
        fetches_[static_cast<std::size_t>(fid)].waiting_workers.push_back(wk);
      } else if (--ws.pending_fetches == 0 &&
                 ws.state == WorkerState::S::Waiting) {
        start_compute(wk);
      }
    }
  }

  [[noreturn]] void throw_starvation() {
    throw lifecycle_.starvation_error(
        sched_.name(), platform_.num_workers(), [this](int id) {
          for (const WorkerState& w : workers_)
            if (w.current_task == id) return true;
          return false;
        });
  }

  void try_start_all_idle() {
    bool progress = true;
    while (progress) {
      progress = false;
      for (int w = 0; w < platform_.num_workers(); ++w)
        progress |= try_start(w);
    }
  }

  const TaskGraph& graph_;
  const Platform& platform_;
  Scheduler& sched_;
  const RunOptions& opt_;
  TaskLifecycle& lifecycle_;
  Trace& trace_;
  obs::TraceStreamer* stream_;  ///< optional, owned by the caller
  int lane_;  ///< streaming lane of the (single) driver thread
  bool has_faults_;
  DataManager data_;
  std::mt19937_64 rng_;
  std::mt19937_64 fault_rng_;

  double now_ = 0.0;
  int alive_workers_ = 0;
  EventQueue events_;
  std::vector<WorkerState> workers_;
  std::vector<Channel> channels_;
  std::vector<int> newly_ready_;  // scratch of on_task_finish
  std::vector<Fetch> fetches_;
  std::vector<int> active_fetch_;  // tile * nodes + node -> fetch id or -1
  std::int64_t transfer_hops_ = 0;
  std::int64_t evictions_ = 0;
  std::int64_t capacity_overflows_ = 0;
  int active_hops_ = 0;  // in-flight hops across all links (contention)

  // Fault state (allocated only when the plan is non-empty).
  FaultStats fstats_;
  std::vector<int> attempts_;
  std::vector<char> node_dead_;
  std::set<int> lost_tiles_;
  std::set<int> recovery_queued_;  // lost tiles with a recovery job pending
  std::map<int, std::vector<int>> waiting_on_lost_;  // tile -> workers
  std::vector<std::deque<RecoveryJob>> pending_recovery_;  // per worker
  std::vector<std::vector<int>> writers_by_tile_;
};

void DesRun::run(RunEngine& engine) {
  // Upper-bounds the concurrent event population (in-flight finishes,
  // transfer hops, planned deaths); sizing from the task count keeps the
  // heap's backing vector from ever reallocating mid-run.
  events_.reserve(static_cast<std::size_t>(graph_.num_tasks()) +
                  opt_.faults.deaths.size() + 64);
  if (has_faults_) {
    for (const WorkerDeath& d : opt_.faults.deaths)
      events_.push(d.time_s, EventType::WorkerDeath, d.worker, 0);
  }
  sched_.initialize(*this);
  lifecycle_.seed(sched_, *this);
  try_start_all_idle();

  // The DES clock is virtual, but the cancel token (when attached) is
  // wall-clock: polled every 64 events so a deadline bounds the host time
  // a simulation may consume. A fired token is the one DES failure that
  // is reported through the returned report instead of thrown -- the
  // serving layer and the CLI share the threaded backends' taxonomy.
  CancelToken* const token = engine.options().cancel;
  std::uint32_t polls = 0;
  while (!lifecycle_.all_done()) {
    if (token != nullptr && (polls++ & 0x3F) == 0) {
      const CancelReason why = token->status();
      if (why != CancelReason::kNone) {
        RunReport& res = engine.report();
        res.success = false;
        res.makespan_s = now_;
        res.transfer_hops = transfer_hops_;
        res.bytes_transferred = static_cast<double>(transfer_hops_) *
                                static_cast<double>(data_.tile_bytes());
        res.evictions = evictions_;
        res.capacity_overflows = capacity_overflows_;
        res.faults = fstats_;
        res.error = why == CancelReason::kDeadline
                        ? "deadline exceeded: simulation aborted mid-run"
                        : "cancelled: simulation aborted mid-run";
        res.error_kind = why == CancelReason::kDeadline
                             ? RunErrorKind::DeadlineExceeded
                             : RunErrorKind::Cancelled;
        return;
      }
    }
    if (events_.empty()) throw_starvation();
    const Event e = events_.pop();
    now_ = e.time;
    switch (e.type) {
      case EventType::TaskFinish:
        on_task_finish(e.a, e.b);
        break;
      case EventType::TransferFinish:
        on_transfer_finish(e.a, e.b);
        break;
      case EventType::WorkerDeath:
        on_worker_death(e.a);
        break;
      case EventType::RetryRelease:
        sched_.on_task_ready(*this, e.a);
        break;
      case EventType::RecoveryFinish:
        on_recovery_finish(e.a, e.b);
        break;
    }
    try_start_all_idle();
  }

  RunReport& res = engine.report();
  res.success = true;
  res.makespan_s = now_;
  res.transfer_hops = transfer_hops_;
  res.bytes_transferred =
      static_cast<double>(transfer_hops_) *
      static_cast<double>(data_.tile_bytes());
  res.evictions = evictions_;
  res.capacity_overflows = capacity_overflows_;
  res.faults = fstats_;
}

}  // namespace

void DiscreteEventBackend::drive(RunEngine& engine) {
  DesRun run(engine);
  run.run(engine);
}

}  // namespace hetsched

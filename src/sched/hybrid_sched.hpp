// Hybrid static/dynamic policy after Donfack et al. (arXiv:1110.2677) and
// Section V-C of the paper: pin a statically placed spine of the DAG to
// per-worker queues and schedule the remainder dynamically, with idle
// workers stealing dynamic work and (optionally) pulling pinned tasks
// across the boundary.
//
// The DAG is split by ALAP slack (bounds::alap_analysis): the
// `static_fraction` of tasks with the least slack -- the critical spine,
// whose placement matters most -- follow a prescribed placement with
// FixedScheduleScheduler's replay mechanics (strict start-time order,
// start-ordered remap on worker death). Every other task is scheduled
// exactly like dmda (minimum-estimated-completion-time commit at push,
// FIFO pop) and may be stolen from the back of the most-loaded victim's
// queue, as in the ws policy. With `steal_static` on, a worker that finds
// no dynamic work may also claim the earliest-starting *ready* pinned task
// of another worker.
//
// The endpoints are exact degenerations, by construction:
//   * static_fraction = 0 is bit-for-bit plain dmda (stealing is disabled
//     when the static pool is empty);
//   * static_fraction = 1 with steal_static off replays the placement
//     exactly like FixedScheduleScheduler.
// So a sweep over the fraction that includes both endpoints can never
// leave the best hybrid worse than either pure policy.
//
// The default placement is a communication-free greedy
// earliest-finish-time list schedule at bottom-level priorities; callers
// holding a better placement (a CP solution -- cp_solve(...).schedule, see
// cp/cp_solver.hpp) pass it explicitly.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "sched/static_hints.hpp"
#include "sched/static_schedule.hpp"
#include "sim/scheduler.hpp"

namespace hetsched::sched {

/// Knobs of the hybrid policy (namespace scope so the defaults are usable
/// as a default constructor argument below).
struct HybridOptions {
  /// How the pinned spine is selected from the DAG.
  enum class Spine {
    kAlap,      ///< least ALAP slack first (the time-critical spine)
    kTrsmDist,  ///< smallest tile-diagonal distance first: the panel
                ///< tasks (POTRF/TRSM and their nearest updates) the
                ///< paper's Section V-C pins to fast workers
  };
  /// Fraction of tasks pinned to the static placement, chosen by
  /// ascending spine order. Must lie in [0, 1].
  double static_fraction = 0.5;
  Spine spine = Spine::kAlap;
  /// Allow idle workers to claim ready pinned tasks of other workers
  /// once they find no dynamic work.
  bool steal_static = false;
  /// Static-knowledge restriction applied to the dynamic (dmda) half.
  WorkerFilter filter;
};

class HybridScheduler final : public Scheduler {
 public:
  using Options = HybridOptions;

  /// Default placement: greedy EFT list schedule (bottom-level priorities,
  /// communication-free) computed from (g, p).
  HybridScheduler(const TaskGraph& g, const Platform& p, Options opt = {});

  /// Externally supplied full placement (every task mapped), e.g. a CP
  /// solution from cp_solve. Throws std::invalid_argument when an
  /// option is out of range or the plan does not cover the graph.
  HybridScheduler(const TaskGraph& g, const Platform& p, StaticSchedule plan,
                  Options opt = {});

  void initialize(SchedulerHost& host) override;
  void on_task_ready(SchedulerHost& host, int task) override;
  int pop_task(SchedulerHost& host, int worker) override;
  std::vector<int> on_worker_dead(SchedulerHost& host, int worker) override;
  std::string name() const override { return "hybrid"; }
  std::map<std::string, std::int64_t> stats() const override;

  /// Tasks pinned to the static placement.
  int static_count() const noexcept { return static_count_; }
  bool is_static(int task) const {
    return is_static_[static_cast<std::size_t>(task)] != 0;
  }
  std::int64_t steals() const noexcept { return steals_; }
  std::int64_t static_pool_hits() const noexcept { return static_hits_; }
  std::int64_t boundary_crossings() const noexcept {
    return boundary_crossings_;
  }

 private:
  void select_static_set(const TaskGraph& g, const Platform& p);
  /// FixedScheduleScheduler's start-ordered insertion (see fixed_sched.hpp
  /// for why append would deadlock the strict-order pop).
  void insert_pending(int worker, int task);
  /// Alive worker to inherit pinned work of one of class `cls`: same class
  /// preferred, earliest expected availability as tie-break.
  int pick_alive(SchedulerHost& host, int cls) const;

  Options opt_;
  StaticSchedule plan_;                 // full placement, every task
  int static_count_ = 0;
  std::vector<char> is_static_;         // per task

  // Static half (FixedScheduleScheduler state, restricted to pinned tasks).
  std::vector<double> starts_;          // per-task prescribed start
  std::vector<std::vector<int>> order_; // per-worker pinned sequence
  std::vector<std::size_t> next_index_; // per-worker progress
  std::vector<int> assigned_worker_;    // per pinned task (-1 for dynamic)
  std::vector<char> ready_;             // per task
  std::vector<char> popped_;            // per task: handed out once already

  // Dynamic half (dmda commit queues doubling as ws steal victims).
  std::vector<std::deque<int>> dyn_;    // per worker

  std::int64_t steals_ = 0;             // dynamic tasks taken from a victim
  std::int64_t static_hits_ = 0;        // own-spine pops
  std::int64_t boundary_crossings_ = 0; // pinned tasks claimed by others
  std::int64_t dynamic_pops_ = 0;       // own dynamic-queue pops
};

}  // namespace hetsched::sched

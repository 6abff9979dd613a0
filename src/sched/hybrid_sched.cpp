#include "sched/hybrid_sched.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <queue>
#include <stdexcept>
#include <utility>

#include "bounds/bound_model.hpp"
#include "core/cholesky_dag.hpp"
#include "sched/priorities.hpp"

namespace hetsched::sched {

namespace {

// Greedy communication-free EFT list schedule at bottom-level priorities:
// the same discipline as cp::list_schedule, kept local so the policy layer
// does not depend on the offline-solver library.
StaticSchedule greedy_eft_plan(const TaskGraph& g, const Platform& p) {
  const int n = g.num_tasks();
  const std::vector<double> prio = bottom_levels_fastest(g, p);
  std::vector<int> indeg(static_cast<std::size_t>(n), 0);
  for (int t = 0; t < n; ++t)
    indeg[static_cast<std::size_t>(t)] =
        static_cast<int>(g.predecessors(t).size());
  const auto cmp = [&prio](int a, int b) {
    const double pa = prio[static_cast<std::size_t>(a)];
    const double pb = prio[static_cast<std::size_t>(b)];
    if (pa != pb) return pa < pb;  // max-heap: highest bottom level first
    return a > b;                  // then lowest id
  };
  std::priority_queue<int, std::vector<int>, decltype(cmp)> ready(cmp);
  for (int t = 0; t < n; ++t)
    if (indeg[static_cast<std::size_t>(t)] == 0) ready.push(t);

  std::vector<double> free_at(static_cast<std::size_t>(p.num_workers()), 0.0);
  std::vector<double> finish(static_cast<std::size_t>(n), 0.0);
  StaticSchedule plan;
  plan.entries.reserve(static_cast<std::size_t>(n));
  while (!ready.empty()) {
    const int t = ready.top();
    ready.pop();
    double est = 0.0;
    for (const int pred : g.predecessors(t))
      est = std::max(est, finish[static_cast<std::size_t>(pred)]);
    int best_w = -1;
    double best_f = std::numeric_limits<double>::infinity();
    double best_s = 0.0;
    for (const Worker& w : p.workers()) {
      const double s = std::max(est, free_at[static_cast<std::size_t>(w.id)]);
      const double f = s + p.worker_time_at(w.id, g.task(t).kernel, g.task(t).nb);
      if (f < best_f) {
        best_f = f;
        best_w = w.id;
        best_s = s;
      }
    }
    free_at[static_cast<std::size_t>(best_w)] = best_f;
    finish[static_cast<std::size_t>(t)] = best_f;
    plan.entries.push_back({t, best_w, best_s});
    for (const int succ : g.successors(t))
      if (--indeg[static_cast<std::size_t>(succ)] == 0) ready.push(succ);
  }
  return plan;
}

void check_options(const HybridScheduler::Options& opt) {
  if (!(opt.static_fraction >= 0.0 && opt.static_fraction <= 1.0))
    throw std::invalid_argument(
        "hybrid: static_fraction must lie in [0, 1]");
}

void check_plan(const StaticSchedule& plan, const TaskGraph& g,
                const Platform& p) {
  const int n = g.num_tasks();
  if (static_cast<int>(plan.entries.size()) != n)
    throw std::invalid_argument(
        "hybrid: placement must map every task of the graph");
  std::vector<char> seen(static_cast<std::size_t>(n), 0);
  for (const StaticSchedule::Entry& e : plan.entries) {
    if (e.task < 0 || e.task >= n || seen[static_cast<std::size_t>(e.task)])
      throw std::invalid_argument("hybrid: placement maps task " +
                                  std::to_string(e.task) + " twice or out "
                                  "of range");
    if (e.worker < 0 || e.worker >= p.num_workers())
      throw std::invalid_argument("hybrid: placement names unknown worker " +
                                  std::to_string(e.worker));
    seen[static_cast<std::size_t>(e.task)] = 1;
  }
}

}  // namespace

HybridScheduler::HybridScheduler(const TaskGraph& g, const Platform& p,
                                 Options opt)
    : HybridScheduler(g, p, greedy_eft_plan(g, p), std::move(opt)) {}

HybridScheduler::HybridScheduler(const TaskGraph& g, const Platform& p,
                                 StaticSchedule plan, Options opt)
    : opt_(std::move(opt)), plan_(std::move(plan)) {
  check_options(opt_);
  check_plan(plan_, g, p);
  select_static_set(g, p);
}

void HybridScheduler::select_static_set(const TaskGraph& g,
                                        const Platform& p) {
  const int n = g.num_tasks();
  is_static_.assign(static_cast<std::size_t>(n), 0);
  static_count_ = static_cast<int>(
      std::llround(opt_.static_fraction * static_cast<double>(n)));
  static_count_ = std::clamp(static_count_, 0, n);
  if (static_count_ == 0) return;

  // Spine key, ascending: ALAP slack (the placement-critical spine) or
  // tile-diagonal distance (the panel neighbourhood, Section V-C's
  // static part). Ties by descending bottom level, then id.
  std::vector<double> key(static_cast<std::size_t>(n));
  if (opt_.spine == Options::Spine::kTrsmDist) {
    for (int t = 0; t < n; ++t)
      key[static_cast<std::size_t>(t)] =
          static_cast<double>(tile_diagonal_distance(g.task(t)));
  } else {
    key = bounds::alap_analysis(g, p).slack;
  }
  const std::vector<double> bottom = bottom_levels_fastest(g, p);
  std::vector<int> ids(static_cast<std::size_t>(n));
  std::iota(ids.begin(), ids.end(), 0);
  std::sort(ids.begin(), ids.end(), [&](int x, int y) {
    const auto ix = static_cast<std::size_t>(x);
    const auto iy = static_cast<std::size_t>(y);
    if (key[ix] != key[iy]) return key[ix] < key[iy];
    if (bottom[ix] != bottom[iy]) return bottom[ix] > bottom[iy];
    return x < y;
  });
  for (int i = 0; i < static_count_; ++i)
    is_static_[static_cast<std::size_t>(ids[static_cast<std::size_t>(i)])] = 1;
}

void HybridScheduler::initialize(SchedulerHost& host) {
  const int nw = host.platform().num_workers();
  const int nt = host.graph().num_tasks();
  order_ = plan_.per_worker_order(nw);
  for (auto& seq : order_)  // keep only the pinned spine in the sequences
    seq.erase(std::remove_if(seq.begin(), seq.end(),
                             [this](int t) { return !is_static(t); }),
              seq.end());
  next_index_.assign(static_cast<std::size_t>(nw), 0);
  ready_.assign(static_cast<std::size_t>(nt), 0);
  popped_.assign(static_cast<std::size_t>(nt), 0);
  assigned_worker_.assign(static_cast<std::size_t>(nt), -1);
  starts_.assign(static_cast<std::size_t>(nt), 0.0);
  for (const StaticSchedule::Entry& e : plan_.entries) {
    if (!is_static(e.task)) continue;
    assigned_worker_[static_cast<std::size_t>(e.task)] = e.worker;
    starts_[static_cast<std::size_t>(e.task)] = e.start;
  }
  dyn_.assign(static_cast<std::size_t>(nw), {});
  steals_ = static_hits_ = boundary_crossings_ = dynamic_pops_ = 0;
}

void HybridScheduler::insert_pending(int worker, int task) {
  auto& seq = order_[static_cast<std::size_t>(worker)];
  std::size_t pos = next_index_[static_cast<std::size_t>(worker)];
  const double s = starts_[static_cast<std::size_t>(task)];
  while (pos < seq.size() && starts_[static_cast<std::size_t>(seq[pos])] <= s)
    ++pos;
  seq.insert(seq.begin() + static_cast<std::ptrdiff_t>(pos), task);
}

int HybridScheduler::pick_alive(SchedulerHost& host, int cls) const {
  const Platform& p = host.platform();
  int best = -1;
  bool best_same = false;
  for (const Worker& w : p.workers()) {
    if (!host.worker_alive(w.id)) continue;
    const bool same = w.cls == cls;
    if (best < 0 || (same && !best_same) ||
        (same == best_same &&
         host.expected_available(w.id) < host.expected_available(best))) {
      best = w.id;
      best_same = same;
    }
  }
  return best;
}

void HybridScheduler::on_task_ready(SchedulerHost& host, int task) {
  if (is_static(task)) {
    // FixedScheduleScheduler's push: mark ready; rehome if the prescribed
    // worker died; re-queue a task already handed out once (retry).
    ready_[static_cast<std::size_t>(task)] = 1;
    int w = assigned_worker_[static_cast<std::size_t>(task)];
    if (w < 0 || !host.worker_alive(w)) {
      const int cls = w >= 0 ? host.platform().worker(w).cls : 0;
      w = pick_alive(host, cls);
      assigned_worker_[static_cast<std::size_t>(task)] = w;
      insert_pending(w, task);
      popped_[static_cast<std::size_t>(task)] = 0;
    } else if (popped_[static_cast<std::size_t>(task)] != 0) {
      insert_pending(w, task);
      popped_[static_cast<std::size_t>(task)] = 0;
    }
    host.note_task_queued(task, w);
    return;
  }

  // Dynamic remainder: dmda's minimum-estimated-completion-time commit.
  const Platform& p = host.platform();
  const Task& t = host.graph().task(task);
  int best_w = -1;
  double best_ect = std::numeric_limits<double>::infinity();
  for (int pass = 0; pass < 2 && best_w < 0; ++pass) {
    // pass 0 honours the filter; pass 1 is the safety fallback in case a
    // filter excluded every worker for this task.
    for (const Worker& w : p.workers()) {
      if (!host.worker_alive(w.id)) continue;
      if (pass == 0 && opt_.filter && !opt_.filter(t, w)) continue;
      const double ect = std::max(host.expected_available(w.id), host.now()) +
                         host.estimated_transfer_seconds(task, w.id) +
                         p.worker_time_at(w.id, t.kernel, t.nb);
      if (ect < best_ect) {
        best_ect = ect;
        best_w = w.id;
      }
    }
  }
  dyn_[static_cast<std::size_t>(best_w)].push_back(task);
  host.note_task_queued(task, best_w);
}

int HybridScheduler::pop_task(SchedulerHost& host, int worker) {
  // 1. Own spine, in strict prescribed order (the static half blocks on an
  //    unready head exactly like FixedScheduleScheduler -- but a hybrid
  //    worker falls through to dynamic work instead of idling).
  auto& idx = next_index_[static_cast<std::size_t>(worker)];
  const auto& seq = order_[static_cast<std::size_t>(worker)];
  if (idx < seq.size()) {
    const int t = seq[idx];
    if (ready_[static_cast<std::size_t>(t)] != 0 &&
        popped_[static_cast<std::size_t>(t)] == 0) {
      ++idx;
      popped_[static_cast<std::size_t>(t)] = 1;
      ++static_hits_;
      return t;
    }
  }

  // 2. Own dynamic queue, FIFO (dmda).
  auto& own = dyn_[static_cast<std::size_t>(worker)];
  if (!own.empty()) {
    const int t = own.front();
    own.pop_front();
    ++dynamic_pops_;
    return t;
  }

  // 3. Steal dynamic work from the back of a victim's queue (ws
  //    mechanics), but only when the thief actually finishes the task
  //    sooner than the victim's backlog would -- an unguarded steal on a
  //    strongly heterogeneous platform drags GPU-committed kernels onto
  //    CPUs an order of magnitude slower. Disabled when nothing is pinned
  //    so static_fraction = 0 stays bit-for-bit identical to plain dmda.
  if (static_count_ > 0) {
    const Platform& p = host.platform();
    const double now = host.now();
    const double thief_free = std::max(host.expected_available(worker), now);
    int victim = -1;
    double best_gain = 0.0;
    for (std::size_t w = 0; w < dyn_.size(); ++w) {
      if (static_cast<int>(w) == worker || dyn_[w].empty()) continue;
      const int t = dyn_[w].back();
      const Task& vt = host.graph().task(t);
      const double thief_ect =
          thief_free + host.estimated_transfer_seconds(t, worker) +
          p.worker_time_at(worker, vt.kernel, vt.nb);
      // The victim's expected availability already covers its queued
      // backlog, t included (t was committed via note_task_queued).
      const double victim_ect =
          std::max(host.expected_available(static_cast<int>(w)), now);
      if (victim_ect - thief_ect > best_gain) {
        best_gain = victim_ect - thief_ect;
        victim = static_cast<int>(w);
      }
    }
    if (victim >= 0) {
      auto& vq = dyn_[static_cast<std::size_t>(victim)];
      const int t = vq.back();
      vq.pop_back();
      ++steals_;
      return t;
    }
  }

  // 4. Break the prescribed order: claim the most urgent (earliest
  //    prescribed start) ready pinned task -- the worker's own blocked
  //    sequence included, so a spine stalled on a dynamic dependency does
  //    not convoy everything pinned behind it. Claims from other workers
  //    pass the same finish-sooner ECT guard as the dynamic steal; own
  //    out-of-order claims are always safe (same worker, same speed).
  if (opt_.steal_static) {
    const Platform& p = host.platform();
    const double now = host.now();
    const double thief_free = std::max(host.expected_available(worker), now);
    int victim = -1;
    std::size_t victim_pos = 0;
    double victim_start = std::numeric_limits<double>::infinity();
    for (std::size_t w = 0; w < order_.size(); ++w) {
      const auto& vseq = order_[w];
      for (std::size_t i = next_index_[w]; i < vseq.size(); ++i) {
        const auto t = static_cast<std::size_t>(vseq[i]);
        if (ready_[t] == 0 || popped_[t] != 0) continue;
        if (static_cast<int>(w) != worker) {
          const Task& vt = host.graph().task(vseq[i]);
          const double thief_ect =
              thief_free + host.estimated_transfer_seconds(vseq[i], worker) +
              p.worker_time_at(worker, vt.kernel, vt.nb);
          const double victim_ect =
              std::max(host.expected_available(static_cast<int>(w)), now);
          if (thief_ect >= victim_ect) break;
        }
        if (starts_[t] < victim_start) {
          victim_start = starts_[t];
          victim = static_cast<int>(w);
          victim_pos = i;
        }
        break;  // later entries of this victim start no earlier
      }
    }
    if (victim >= 0) {
      auto& vseq = order_[static_cast<std::size_t>(victim)];
      const int t = vseq[victim_pos];
      vseq.erase(vseq.begin() + static_cast<std::ptrdiff_t>(victim_pos));
      // Rehome to the thief so a transient retry lines up on a live queue.
      assigned_worker_[static_cast<std::size_t>(t)] = worker;
      popped_[static_cast<std::size_t>(t)] = 1;
      if (victim == worker)
        ++static_hits_;  // own spine, out of order
      else
        ++boundary_crossings_;
      return t;
    }
  }
  return -1;
}

std::vector<int> HybridScheduler::on_worker_dead(SchedulerHost& host,
                                                 int worker) {
  // Pinned half: splice the dead worker's remaining sequence onto
  // survivors in prescribed-start order (FixedScheduleScheduler's remap).
  const auto& seq = order_[static_cast<std::size_t>(worker)];
  const int cls = host.platform().worker(worker).cls;
  for (std::size_t i = next_index_[static_cast<std::size_t>(worker)];
       i < seq.size(); ++i) {
    const int task = seq[i];
    const int w = pick_alive(host, cls);
    assigned_worker_[static_cast<std::size_t>(task)] = w;
    insert_pending(w, task);
  }
  next_index_[static_cast<std::size_t>(worker)] =
      order_[static_cast<std::size_t>(worker)].size();

  // Dynamic half: hand the stranded ready tasks back for re-push; dmda's
  // commit then re-places them on alive workers.
  auto& q = dyn_[static_cast<std::size_t>(worker)];
  std::vector<int> stranded(q.begin(), q.end());
  q.clear();
  return stranded;
}

std::map<std::string, std::int64_t> HybridScheduler::stats() const {
  return {{"static_tasks", static_count_},
          {"static_pool_hits", static_hits_},
          {"dynamic_pops", dynamic_pops_},
          {"steals", steals_},
          {"boundary_crossings", boundary_crossings_}};
}

}  // namespace hetsched::sched

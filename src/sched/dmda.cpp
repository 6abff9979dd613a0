#include "sched/dmda.hpp"

#include <algorithm>
#include <limits>

#include "sched/priorities.hpp"

namespace hetsched {

void DmdaScheduler::initialize(SchedulerHost& host) {
  queues_.assign(static_cast<std::size_t>(host.platform().num_workers()), {});
  class_time_.assign(static_cast<std::size_t>(host.platform().num_classes()),
                     0.0);
}

void DmdaScheduler::on_task_ready(SchedulerHost& host, int task) {
  const Platform& p = host.platform();
  const Task& t = host.graph().task(task);

  // Workers of one class run a task equally fast: price each class once.
  for (int c = 0; c < p.num_classes(); ++c)
    class_time_[static_cast<std::size_t>(c)] =
        p.class_time_at(c, t.kernel, t.nb);

  // Minimum-completion-time worker among the admissible ones.
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
                         class_time_[static_cast<std::size_t>(w.cls)];
      if (ect < best_ect) {
        best_ect = ect;
        best_w = w.id;
      }
    }
  }

  auto& q = queues_[static_cast<std::size_t>(best_w)];
  if (opt_.sorted) {
    // Insert keeping the queue sorted by decreasing priority; FIFO among
    // equal priorities: the new task goes after every queued task of
    // priority >= its own, a prefix of the (always sorted) queue.
    const double pr = priority_of(task);
    q.insert(std::partition_point(q.begin(), q.end(),
                                  [&](int x) { return priority_of(x) >= pr; }),
             task);
  } else {
    q.push_back(task);
  }
  host.note_task_queued(task, best_w);
}

std::vector<int> DmdaScheduler::on_worker_dead(SchedulerHost& host,
                                               int worker) {
  (void)host;
  auto& q = queues_[static_cast<std::size_t>(worker)];
  std::vector<int> stranded(q.begin(), q.end());
  q.clear();
  return stranded;
}

int DmdaScheduler::pop_task(SchedulerHost& host, int worker) {
  auto& q = queues_[static_cast<std::size_t>(worker)];
  if (q.empty()) return -1;
  if (!opt_.data_ready) {
    const int t = q.front();
    q.pop_front();
    return t;
  }
  // dmdar: among the queued tasks, run the one needing the least transfer
  // time right now (FIFO tie-break keeps it starvation-free: a task whose
  // data is resident estimates 0 and leaves in arrival order).
  auto best = q.begin();
  double best_cost = host.estimated_transfer_seconds(*best, worker);
  for (auto it = std::next(q.begin()); it != q.end(); ++it) {
    const double c = host.estimated_transfer_seconds(*it, worker);
    if (c < best_cost - 1e-15) {
      best_cost = c;
      best = it;
    }
  }
  const int t = *best;
  q.erase(best);
  return t;
}

DmdaScheduler make_dmdas(const TaskGraph& g, const Platform& p,
                         WorkerFilter filter) {
  DmdaScheduler::Options opt;
  opt.sorted = true;
  opt.priorities = bottom_levels_fastest(g, p);
  opt.filter = std::move(filter);
  return DmdaScheduler(std::move(opt));
}

DmdaScheduler make_dmda(WorkerFilter filter) {
  DmdaScheduler::Options opt;
  opt.filter = std::move(filter);
  return DmdaScheduler(std::move(opt));
}

DmdaScheduler make_dmdar(WorkerFilter filter) {
  DmdaScheduler::Options opt;
  opt.data_ready = true;
  opt.filter = std::move(filter);
  return DmdaScheduler(std::move(opt));
}

}  // namespace hetsched

#include "serve/job_queue.hpp"

#include <algorithm>

#include "core/flops.hpp"

namespace hetsched::serve {

const char* to_string(JobState s) {
  switch (s) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
    case JobState::kDeadlineExceeded: return "deadline_exceeded";
    case JobState::kShed: return "shed";
  }
  return "?";
}

const char* to_string(RejectReason r) {
  switch (r) {
    case RejectReason::kNone: return "none";
    case RejectReason::kQueueFull: return "queue_full";
    case RejectReason::kLatency: return "latency_slo";
    case RejectReason::kDraining: return "draining";
    case RejectReason::kBadSpec: return "bad_spec";
  }
  return "?";
}

bool valid_job_spec(const JobSpec& spec) {
  if (spec.tiles <= 0 || spec.nb <= 0 || !(spec.deadline_ms >= 0.0) ||
      !(spec.deadline_ms <= kMaxJobDeadlineMs))
    return false;
  // Bytes first, in double: a spec within the byte cap has fewer than 6000
  // tiles, far inside total_task_count's int64 range.
  const double t = spec.tiles, nb = spec.nb;
  return t * (t + 1.0) / 2.0 * nb * nb * sizeof(double) <=
             static_cast<double>(kMaxJobBytes) &&
         total_task_count(spec.tiles) <= kMaxJobTasks;
}

bool BoundedJobQueue::before(const JobPtr& a, const JobPtr& b) const {
  if (a->spec.priority != b->spec.priority)
    return a->spec.priority > b->spec.priority;
  return a->id < b->id;  // FIFO within a band
}

BoundedJobQueue::Admission BoundedJobQueue::admit(const JobPtr& job) {
  Admission res;
  if (!valid_job_spec(job->spec)) {
    res.reason = RejectReason::kBadSpec;
    return res;
  }
  if (ctl_.max_latency_ms > 0.0 && est_service_ms_ > 0.0 &&
      static_cast<double>(jobs_.size()) * est_service_ms_ >
          ctl_.max_latency_ms) {
    res.reason = RejectReason::kLatency;
    return res;
  }
  if (jobs_.size() >= ctl_.max_depth) {
    // Full: shed the lowest-priority queued job iff it ranks strictly
    // below the incoming one (newest within the band goes first -- it has
    // waited least).
    std::size_t victim = jobs_.size();
    for (std::size_t i = 0; i < jobs_.size(); ++i)
      if (victim == jobs_.size() ||
          jobs_[i]->spec.priority < jobs_[victim]->spec.priority ||
          (jobs_[i]->spec.priority == jobs_[victim]->spec.priority &&
           jobs_[i]->id > jobs_[victim]->id))
        victim = i;
    if (!ctl_.shed_low_priority || victim == jobs_.size() ||
        jobs_[victim]->spec.priority >= job->spec.priority) {
      res.reason = RejectReason::kQueueFull;
      return res;
    }
    res.shed = jobs_[victim];
    jobs_[victim] = jobs_.back();
    jobs_.pop_back();
  }
  jobs_.push_back(job);
  res.admitted = true;
  return res;
}

JobPtr BoundedJobQueue::pop_best() {
  if (jobs_.empty()) return nullptr;
  std::size_t best = 0;
  for (std::size_t i = 1; i < jobs_.size(); ++i)
    if (before(jobs_[i], jobs_[best])) best = i;
  JobPtr job = jobs_[best];
  jobs_[best] = jobs_.back();
  jobs_.pop_back();
  return job;
}

std::vector<JobPtr> BoundedJobQueue::pop_batch_like(const JobSpec& like,
                                                    int max_more) {
  std::vector<JobPtr> mates;
  while (static_cast<int>(mates.size()) < max_more) {
    std::size_t best = jobs_.size();
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      if (jobs_[i]->spec.tiles != like.tiles || jobs_[i]->spec.nb != like.nb)
        continue;
      if (best == jobs_.size() || before(jobs_[i], jobs_[best])) best = i;
    }
    if (best == jobs_.size()) break;
    mates.push_back(jobs_[best]);
    jobs_[best] = jobs_.back();
    jobs_.pop_back();
  }
  return mates;
}

std::vector<JobPtr> BoundedJobQueue::drain_all() {
  std::vector<JobPtr> out;
  out.swap(jobs_);
  std::sort(out.begin(), out.end(),
            [this](const JobPtr& a, const JobPtr& b) { return before(a, b); });
  return out;
}

void BoundedJobQueue::observe_service(int jobs, double ms) {
  if (jobs <= 0 || ms < 0.0) return;
  const double per_job = ms / static_cast<double>(jobs);
  est_service_ms_ =
      est_service_ms_ <= 0.0 ? per_job : 0.7 * est_service_ms_ + 0.3 * per_job;
}

}  // namespace hetsched::serve

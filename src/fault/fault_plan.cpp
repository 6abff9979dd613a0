#include "fault/fault_plan.hpp"

#include <cmath>
#include <sstream>

namespace hetsched {

bool FaultPlan::empty() const {
  return deaths.empty() && slowdowns.empty() &&
         transient_failure_prob <= 0.0 && potrf_fail_step < 0 &&
         watchdog_timeout_factor <= 0.0;
}

namespace {

/// x is a finite number >= lo (false for NaN and +-inf).
bool finite_at_least(double x, double lo) {
  return std::isfinite(x) && x >= lo;
}

}  // namespace

std::string FaultPlan::validate(int num_workers) const {
  std::ostringstream err;
  for (const WorkerDeath& d : deaths) {
    if (d.worker < 0 || d.worker >= num_workers) {
      err << "death of unknown worker " << d.worker;
      return err.str();
    }
    if (!finite_at_least(d.time_s, 0.0))
      return "death time not a finite number >= 0";
  }
  for (const SlowdownWindow& s : slowdowns) {
    if (s.worker < 0 || s.worker >= num_workers) {
      err << "slowdown of unknown worker " << s.worker;
      return err.str();
    }
    if (!std::isfinite(s.factor) || s.factor <= 0.0)
      return "slowdown factor not a finite number > 0";
    if (!std::isfinite(s.start_s) || !std::isfinite(s.end_s))
      return "slowdown window bounds not finite";
    if (s.end_s <= s.start_s) return "empty slowdown window";
  }
  if (!(transient_failure_prob >= 0.0 && transient_failure_prob <= 1.0))
    return "transient failure probability outside [0, 1]";
  if (retry.max_retries < 0) return "negative retry budget";
  if (!finite_at_least(retry.backoff_base_s, 0.0))
    return "backoff base not a finite number >= 0";
  if (!finite_at_least(retry.backoff_multiplier, 1.0))
    return "backoff multiplier not a finite number >= 1";
  if (!finite_at_least(watchdog_timeout_factor, 0.0))
    return "watchdog factor not a finite number >= 0";
  return {};
}

double FaultPlan::slowdown_factor(int worker, double time_s) const {
  double f = 1.0;
  for (const SlowdownWindow& s : slowdowns)
    if (s.worker == worker && time_s >= s.start_s && time_s < s.end_s)
      f *= s.factor;
  return f;
}

double FaultPlan::backoff_s(int failed_attempts) const {
  if (failed_attempts <= 0) return 0.0;
  return retry.backoff_base_s *
         std::pow(retry.backoff_multiplier,
                  static_cast<double>(failed_attempts - 1));
}

}  // namespace hetsched

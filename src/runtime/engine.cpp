#include "runtime/engine.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>
#include <utility>

#include "bounds/bound_model.hpp"

namespace hetsched {

RunEngine::RunEngine(const TaskGraph& g, const Platform& p, Scheduler& sched,
                     const RunOptions& opt)
    : graph_(g),
      platform_(p),
      sched_(sched),
      opt_(opt),
      lifecycle_(g, p.num_workers()),
      lanes_(static_cast<std::size_t>(p.num_workers() + 1),
             Trace(p.num_workers())) {}

void RunEngine::validate(const Backend& backend) const {
  const std::string prefix = backend.error_prefix();
  for (const Task& t : graph_.tasks())
    // Repack tasks (SPLIT/MERGE) are priced via the bus model, never the
    // timing table, so calibration cannot (and need not) cover them.
    if (!is_repack(t.kernel) && !platform_.supports(t.kernel))
      throw std::invalid_argument(
          prefix + ": platform '" + platform_.name() +
          "' is not calibrated for kernel " + std::string(to_string(t.kernel)));
  if (!opt_.faults.empty()) {
    const std::string err = opt_.faults.validate(platform_.num_workers());
    if (!err.empty())
      throw std::invalid_argument(prefix + ": bad fault plan: " + err);
  }
  // Unknown bound-model names fail before the run spends any time; the
  // lookup throws std::invalid_argument listing the registered models.
  for (const std::string& m : opt_.bound_models) bounds::bound_model(m);
}

RunReport RunEngine::run(Backend& backend) {
  validate(backend);
  // One streaming lane per worker plus one shared by single-threaded
  // drivers (DES) and the fault-service thread (threaded backend).
  if (opt_.stream) opt_.stream->begin_run(platform_.num_workers() + 1);
  const auto t0 = std::chrono::steady_clock::now();
  try {
    backend.drive(*this);
  } catch (...) {
    // Run failures come back in the report; what escapes a drive is not a
    // run failure (std::bad_alloc, a thread that failed to start). Drain
    // and stop the sink thread before it propagates.
    if (opt_.stream) opt_.stream->end_run();
    throw;
  }
  if (opt_.stream) {
    opt_.stream->end_run();
    report_.dropped_events =
        static_cast<std::int64_t>(opt_.stream->dropped_events());
  }
  report_.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  report_.success = !failed() && lifecycle_.all_done();
  report_.backend = backend.name();
  report_.trace = merged_trace();
  // Per-policy counters (ws steals, hybrid boundary crossings, ...); kept
  // even on failure -- partial counts help diagnose a starved run.
  report_.scheduler_stats = sched_.stats();
  // Bound ratios of the finished run: one registry evaluation per selected
  // model, the ratio the exact double division makespan_s / bound_s (the
  // same expression the metrics stream and post-run recomputation use, so
  // the three agree bit-for-bit). A failed run reports no ratios -- its
  // makespan is not a schedule of the whole graph.
  if (report_.success) {
    for (const std::string& m : opt_.bound_models) {
      const double bound_s =
          bounds::evaluate_bound_s(m, graph_, platform_);
      report_.bound_ratios[m] =
          bound_s > 0.0 ? report_.makespan_s / bound_s : 0.0;
    }
  }
  return std::move(report_);
}

Trace RunEngine::merged_trace() {
  // The driver lane (the DES loop) is already in event order. Worker lanes
  // (compute records only: the threaded backends move no tiles) run
  // concurrently, so their records merge by (start, end, task).
  Trace out = std::move(lanes_.back());
  std::vector<ComputeRecord> all;
  for (std::size_t w = 0; w + 1 < lanes_.size(); ++w)
    all.insert(all.end(), lanes_[w].compute().begin(),
               lanes_[w].compute().end());
  std::sort(all.begin(), all.end(),
            [](const ComputeRecord& x, const ComputeRecord& y) {
              if (x.start != y.start) return x.start < y.start;
              if (x.end != y.end) return x.end < y.end;
              return x.task < y.task;
            });
  for (const ComputeRecord& r : all) out.record_compute(r);
  return out;
}

std::string retry_budget_message(int task, int attempts,
                                 const char* last_cause) {
  return "retry budget exhausted: task " + std::to_string(task) + " failed " +
         std::to_string(attempts) + " time(s) (last: " + last_cause + ")";
}

}  // namespace hetsched

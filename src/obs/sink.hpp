// Pluggable consumers of the event stream (see docs/observability.md).
//
// A Sink receives every drained event exactly once, in sink-thread order
// (`seq` is the global drain sequence number, strictly increasing). All
// on_event/flush calls happen on the single sink thread, so a Sink needs
// no internal locking for its own state; MetricsAggregator additionally
// guards its counters with a mutex because `snapshot()` may be called
// concurrently from other threads (a live metrics poll).
#pragma once

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault_plan.hpp"
#include "obs/event.hpp"

namespace hetsched {
class Platform;
}

namespace hetsched::obs {

class Sink {
 public:
  virtual ~Sink() = default;

  /// One drained event. `seq` is the global drain order (0, 1, 2, ...).
  virtual void on_event(std::uint64_t seq, const TraceEvent& e) = 0;

  /// End of a run: durable sinks write out buffered data here.
  virtual void flush() {}
};

/// Discards everything (measures pure streaming overhead).
class NullSink final : public Sink {
 public:
  void on_event(std::uint64_t, const TraceEvent&) override { ++count_; }
  std::uint64_t count() const noexcept { return count_; }

 private:
  std::uint64_t count_ = 0;
};

/// One JSON object per line. Schema (docs/observability.md):
///   {"seq":N,"kind":"compute","worker":W,"task":T,"kernel":"GEMM",
///    "start":S,"end":E}
///   {"seq":N,"kind":"transfer","tile":T,"from":F,"to":D,"start":S,"end":E}
///   {"seq":N,"kind":"fault","event":"retry","worker":W,"task":T,
///    "tile":L,"time":S,"value":V}
/// Doubles are printed with %.17g, so values round-trip exactly: a parsed
/// stream compares bit-for-bit against the post-run trace.
class JsonlSink final : public Sink {
 public:
  /// Appends to `path` (truncates an existing file).
  explicit JsonlSink(const std::string& path);
  /// Writes to a caller-owned stream (tests).
  explicit JsonlSink(std::ostream& out);

  bool ok() const;

  void on_event(std::uint64_t seq, const TraceEvent& e) override;
  void flush() override;

  /// The serialization on_event uses, reusable to render a post-run trace
  /// in the identical shape (equality tests, tools/trace_check fixtures).
  static std::string format(std::uint64_t seq, const TraceEvent& e);

 private:
  std::ofstream file_;
  std::ostream* out_;
};

/// Point-in-time view of the running aggregates.
struct MetricsSnapshot {
  std::uint64_t compute_events = 0;
  std::uint64_t transfer_events = 0;
  std::uint64_t fault_events = 0;
  /// Max compute end time seen so far (the running makespan).
  double makespan_s = 0.0;
  /// Cumulative kernel flops of completed attempts (0 until configure()).
  double flops_total = 0.0;
  /// flops_total / makespan_s, in GFLOP/s.
  double gflops = 0.0;
  /// Per resource class (configure() order): busy seconds and the idle
  /// fraction 1 - busy / (makespan * workers_in_class).
  std::vector<std::string> class_names;
  std::vector<double> busy_s_per_class;
  std::vector<double> idle_frac_per_class;
  /// makespan_s / reference bound (0 when no bound was set): the paper's
  /// ratio of achieved schedule to the single reference lower bound.
  double bound_ratio = 0.0;
  /// Running ratio against every named yardstick handed to
  /// set_reference_bounds() (bound-model registry names, insertion order):
  /// makespan_s / bound_s, the exact double division RunReport::
  /// bound_ratios performs -- with dropped_events == 0 the streamed values
  /// converge bit-for-bit onto the report's.
  std::vector<std::pair<std::string, double>> bound_ratios;
  /// One-per-increment fault tallies; equals the run's FaultStats when no
  /// event was dropped.
  FaultStats faults;
  /// Per-policy counters accumulated through add_scheduler_stats()
  /// (RunReport::scheduler_stats of each observed run, summed by key):
  /// steal counts, static-pool hits, boundary crossings, ... Sorted by
  /// key; empty when no run reported any.
  std::vector<std::pair<std::string, std::int64_t>> scheduler_stats;
};

/// In-process aggregator: running makespan, GFLOP/s, idle-per-class,
/// ratio-to-bound and FaultStats-shaped fault tallies, with an optional
/// periodic report line. snapshot() is safe from any thread.
class MetricsAggregator final : public Sink {
 public:
  MetricsAggregator() = default;

  /// Worker -> class mapping, class names and the tile size feeding the
  /// flops and idle-per-class aggregates. Without it only event counts,
  /// makespan and fault tallies are maintained.
  void configure(const Platform& p);

  /// Reference makespan (e.g. the mixed bound) for bound_ratio.
  void set_reference_bound(double bound_s) {
    std::lock_guard<std::mutex> lock(mu_);
    bound_s_ = bound_s;
  }

  /// Named yardsticks for MetricsSnapshot::bound_ratios: pairs of
  /// (bound-model name, bound seconds), typically pre-evaluated through
  /// bounds::evaluate_bound_s on the run's graph and platform. Replaces
  /// any previous set; order is preserved into the snapshot.
  void set_reference_bounds(
      std::vector<std::pair<std::string, double>> named_bounds) {
    std::lock_guard<std::mutex> lock(mu_);
    named_bounds_ = std::move(named_bounds);
  }

  /// Accumulates one run's RunReport::scheduler_stats into the snapshot
  /// (values sum per key across runs -- a sweep's totals). Schedulers do
  /// not stream their counters as events, so the runtime hands them over
  /// post-run.
  void add_scheduler_stats(
      const std::map<std::string, std::int64_t>& stats) {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [key, value] : stats) sched_stats_[key] += value;
  }

  /// Print a one-line report to `out` at most every `interval_s` seconds
  /// of wall time (checked per event on the sink thread) and once at
  /// flush(). Disabled by default.
  void set_report(std::FILE* out, double interval_s);

  void on_event(std::uint64_t seq, const TraceEvent& e) override;
  void flush() override;

  MetricsSnapshot snapshot() const;

 private:
  void report_line(const MetricsSnapshot& s) const;

  mutable std::mutex mu_;
  MetricsSnapshot snap_;
  std::vector<int> worker_class_;
  std::vector<int> class_worker_count_;
  std::vector<double> busy_s_per_worker_;
  int nb_ = 0;
  double bound_s_ = 0.0;
  std::vector<std::pair<std::string, double>> named_bounds_;
  std::map<std::string, std::int64_t> sched_stats_;
  std::FILE* report_out_ = nullptr;
  double report_interval_s_ = 0.0;
  double last_report_ = -1.0;  // steady-clock seconds of the last line
};

}  // namespace hetsched::obs

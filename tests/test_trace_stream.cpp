// Streaming-vs-trace equivalence: when nothing is dropped, the streamed
// JSONL event set must equal the post-run RunReport trace event-for-event,
// on both the DES and the wall-clock emulation backend (the acceptance
// bar of the observability layer); a fault-injected run streamed through
// the MetricsAggregator must reproduce the report's FaultStats exactly,
// and its periodic report line must parse; and an undersized ring must
// surface its losses as RunReport::dropped_events rather than blocking or
// lying.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/cholesky_dag.hpp"
#include "exec/scheduled_executor.hpp"
#include "obs/event.hpp"
#include "obs/sink.hpp"
#include "obs/stream.hpp"
#include "platform/calibration.hpp"
#include "runtime/experiment.hpp"
#include "sched/scheduler_registry.hpp"
#include "sim/simulator.hpp"

namespace hetsched {
namespace {

// Drops the leading {"seq":N, field and any trailing newline, so lines
// compare by payload: the drain order (hence seq) legitimately differs
// from trace order.
std::string payload(const std::string& line) {
  std::string s = line;
  while (!s.empty() && (s.back() == '\n' || s.back() == '\r')) s.pop_back();
  const auto comma = s.find(',');
  return "{" + s.substr(comma + 1);
}

std::vector<std::string> streamed_payloads(const std::string& jsonl) {
  std::vector<std::string> out;
  std::istringstream in(jsonl);
  std::string line;
  while (std::getline(in, line)) out.push_back(payload(line));
  std::sort(out.begin(), out.end());
  return out;
}

// The post-run trace rendered through the same serializer as the stream.
std::vector<std::string> trace_payloads(const runtime::Trace& t) {
  std::vector<std::string> out;
  for (const ComputeRecord& c : t.compute())
    out.push_back(payload(obs::JsonlSink::format(
        0, obs::TraceEvent::compute(c.worker, c.task, c.kernel, c.start,
                                    c.end))));
  for (const TransferRecord& x : t.transfers())
    out.push_back(payload(obs::JsonlSink::format(
        0, obs::TraceEvent::transfer(x.tile, x.from_node, x.to_node, x.start,
                                     x.end))));
  std::sort(out.begin(), out.end());
  return out;
}

void expect_same_fault_stats(const FaultStats& a, const FaultStats& b) {
  EXPECT_EQ(a.worker_deaths, b.worker_deaths);
  EXPECT_EQ(a.transient_failures, b.transient_failures);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.tasks_requeued, b.tasks_requeued);
  EXPECT_EQ(a.slowdown_hits, b.slowdown_hits);
  EXPECT_EQ(a.watchdog_timeouts, b.watchdog_timeouts);
  EXPECT_EQ(a.sole_copy_losses, b.sole_copy_losses);
  EXPECT_EQ(a.recomputations, b.recomputations);
  EXPECT_DOUBLE_EQ(a.recovery_time_s, b.recovery_time_s);
  EXPECT_EQ(a.degraded, b.degraded);
}

TEST(TraceStream, DesStreamEqualsPostRunTrace) {
  const TaskGraph g = build_cholesky_dag(10);
  const Platform p = mirage_platform();
  auto sched = hetsched::sched::make_scheduler("dmda", g, p);

  std::ostringstream jsonl;
  obs::TraceStreamer streamer;
  obs::JsonlSink sink(jsonl);
  streamer.add_sink(&sink);

  RunOptions opt;
  opt.record_trace = true;
  opt.stream = &streamer;
  const RunReport r = simulate(g, p, *sched, opt);

  ASSERT_EQ(r.dropped_events, 0);
  EXPECT_EQ(streamer.delivered_events(),
            r.trace.compute().size() + r.trace.transfers().size());
  EXPECT_EQ(streamed_payloads(jsonl.str()), trace_payloads(r.trace));
  EXPECT_GT(r.trace.transfers().size(), 0u);  // both kinds exercised
}

TEST(TraceStream, EmulationStreamEqualsPostRunTrace) {
  const TaskGraph g = build_cholesky_dag(10);
  const Platform p = mirage_platform().without_communication();
  auto sched = hetsched::sched::make_scheduler("dmda", g, p);

  std::ostringstream jsonl;
  obs::TraceStreamer streamer;
  obs::JsonlSink sink(jsonl);
  streamer.add_sink(&sink);

  RunOptions opt;
  opt.record_trace = true;
  opt.stream = &streamer;
  const RunReport r = emulate_with_scheduler(g, p, *sched, 0.01, opt);

  ASSERT_TRUE(r.success) << r.error;
  ASSERT_EQ(r.dropped_events, 0);
  ASSERT_EQ(r.trace.compute().size(), static_cast<std::size_t>(g.num_tasks()));
  EXPECT_EQ(streamer.delivered_events(),
            r.trace.compute().size() + r.trace.transfers().size());
  EXPECT_EQ(streamed_payloads(jsonl.str()), trace_payloads(r.trace));
}

TEST(TraceStream, MetricsAggregatorReproducesFaultStats) {
  const TaskGraph g = build_cholesky_dag(10);
  const Platform p = mirage_platform();

  // Healthy makespan to place the death deep enough to orphan work.
  auto ref_sched = hetsched::sched::make_scheduler("dmda", g, p);
  const double healthy = simulate(g, p, *ref_sched).makespan_s;

  obs::TraceStreamer streamer;
  obs::MetricsAggregator metrics;
  metrics.configure(p);
  streamer.add_sink(&metrics);

  RunOptions opt;
  opt.record_trace = false;  // streaming replaces the trace
  opt.stream = &streamer;
  opt.faults.deaths.push_back({9, 0.3 * healthy});
  opt.faults.transient_failure_prob = 0.1;
  auto sched = hetsched::sched::make_scheduler("dmda", g, p);
  const RunReport r = simulate(g, p, *sched, opt);

  ASSERT_TRUE(r.success) << r.error;
  ASSERT_EQ(r.dropped_events, 0);
  const obs::MetricsSnapshot s = metrics.snapshot();
  EXPECT_GT(s.faults.worker_deaths, 0);
  expect_same_fault_stats(s.faults, r.faults);
  // Aggregator makespan is the last compute end; the DES clock may run a
  // hair past it on a trailing non-compute event.
  EXPECT_GT(s.makespan_s, 0.0);
  EXPECT_LE(s.makespan_s, r.makespan_s + 1e-12);
}

// The periodic report line must render every field from its own argument:
// with named bounds and fault events present, faults= and pack= read the
// tallies, not a shifted vararg.
TEST(TraceStream, MetricsReportLineWithFaultsParses) {
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  obs::MetricsAggregator metrics;
  metrics.set_reference_bounds({{"mixed", 0.5}});
  metrics.set_report(f, 1e9);
  using obs::FaultEventKind;
  using obs::TraceEvent;
  metrics.on_event(0, TraceEvent::compute(0, 0, Kernel::POTRF, 0.0, 1.0));
  metrics.on_event(1, TraceEvent::fault_event(FaultEventKind::WorkerDeath,
                                              0.5, 0));
  metrics.on_event(2, TraceEvent::fault_event(
                          FaultEventKind::TransientFailure, 0.6, 1));
  metrics.flush();

  std::rewind(f);
  std::string last;
  char buf[512];
  while (std::fgets(buf, sizeof(buf), f) != nullptr) last = buf;
  std::fclose(f);
  const auto at = last.find("faults=");
  ASSERT_NE(at, std::string::npos) << last;
  unsigned long long faults = 0, hits = 0, misses = 0;
  ASSERT_EQ(std::sscanf(last.c_str() + at, "faults=%llu pack=%llu/%llu",
                        &faults, &hits, &misses),
            3)
      << last;
  EXPECT_EQ(faults, 2u);
  EXPECT_EQ(hits, 0u);
  EXPECT_EQ(misses, 0u);
  EXPECT_NE(last.find("bound_ratio=0.000 bounds=mixed:2.000 faults="),
            std::string::npos)
      << last;
}

// A sink this slow behind rings this small cannot keep up with a DES run:
// the losses must show up in the report, and the delivered+dropped split
// must account for every emitted event.
class StallSink final : public obs::Sink {
 public:
  void on_event(std::uint64_t, const obs::TraceEvent&) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ++count_;
  }
  std::uint64_t count() const noexcept { return count_; }

 private:
  std::uint64_t count_ = 0;
};

TEST(TraceStream, OverflowSurfacesAsDroppedEventsInReport) {
  const TaskGraph g = build_cholesky_dag(10);
  const Platform p = mirage_platform();
  auto sched = hetsched::sched::make_scheduler("dmda", g, p);

  obs::TraceStreamer streamer(/*ring_capacity=*/2);
  StallSink stall;
  streamer.add_sink(&stall);

  RunOptions opt;
  opt.record_trace = true;
  opt.stream = &streamer;
  const RunReport r = simulate(g, p, *sched, opt);

  const auto emitted = r.trace.compute().size() + r.trace.transfers().size();
  EXPECT_GT(r.dropped_events, 0);
  EXPECT_EQ(static_cast<std::uint64_t>(r.dropped_events), streamer.dropped_events());
  EXPECT_EQ(streamer.dropped_events() + streamer.delivered_events(), emitted);
  EXPECT_EQ(stall.count(), streamer.delivered_events());
}

}  // namespace
}  // namespace hetsched

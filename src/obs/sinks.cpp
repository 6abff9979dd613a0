#include "obs/sink.hpp"

#include <chrono>
#include <cstdio>

#include "core/flops.hpp"
#include "platform/platform.hpp"

namespace hetsched::obs {

namespace {

// %.17g round-trips doubles exactly; see JsonlSink docs.
void append_number(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

void append_int(std::string& out, long long v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld", v);
  out += buf;
}

double steady_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* to_string(FaultEventKind k) noexcept {
  switch (k) {
    case FaultEventKind::WorkerDeath: return "worker_death";
    case FaultEventKind::TransientFailure: return "transient_failure";
    case FaultEventKind::Retry: return "retry";
    case FaultEventKind::TaskRequeued: return "task_requeued";
    case FaultEventKind::SlowdownHit: return "slowdown_hit";
    case FaultEventKind::WatchdogTimeout: return "watchdog_timeout";
    case FaultEventKind::SoleCopyLoss: return "sole_copy_loss";
    case FaultEventKind::Recomputation: return "recomputation";
  }
  return "unknown";
}

// ---- JsonlSink ------------------------------------------------------------

JsonlSink::JsonlSink(const std::string& path)
    : file_(path, std::ios::trunc), out_(&file_) {}

JsonlSink::JsonlSink(std::ostream& out) : out_(&out) {}

bool JsonlSink::ok() const { return out_ != &file_ || file_.good(); }

std::string JsonlSink::format(std::uint64_t seq, const TraceEvent& e) {
  std::string line;
  line.reserve(160);
  line += "{\"seq\":";
  append_int(line, static_cast<long long>(seq));
  switch (e.kind) {
    case TraceEvent::Kind::Compute:
      line += ",\"kind\":\"compute\",\"worker\":";
      append_int(line, e.worker);
      line += ",\"task\":";
      append_int(line, e.task);
      line += ",\"kernel\":\"";
      line += to_string(e.kernel);
      line += "\",\"start\":";
      append_number(line, e.start);
      line += ",\"end\":";
      append_number(line, e.end);
      break;
    case TraceEvent::Kind::Transfer:
      line += ",\"kind\":\"transfer\",\"tile\":";
      append_int(line, e.tile);
      line += ",\"from\":";
      append_int(line, e.from_node);
      line += ",\"to\":";
      append_int(line, e.to_node);
      line += ",\"start\":";
      append_number(line, e.start);
      line += ",\"end\":";
      append_number(line, e.end);
      break;
    case TraceEvent::Kind::Fault:
      line += ",\"kind\":\"fault\",\"event\":\"";
      line += to_string(e.fault);
      line += "\",\"worker\":";
      append_int(line, e.worker);
      line += ",\"task\":";
      append_int(line, e.task);
      line += ",\"tile\":";
      append_int(line, e.tile);
      line += ",\"time\":";
      append_number(line, e.start);
      line += ",\"value\":";
      append_number(line, e.value);
      break;
  }
  line += "}\n";
  return line;
}

void JsonlSink::on_event(std::uint64_t seq, const TraceEvent& e) {
  *out_ << format(seq, e);
}

void JsonlSink::flush() { out_->flush(); }

// ---- CsvSink --------------------------------------------------------------

CsvSink::CsvSink(const std::string& path)
    : file_(path, std::ios::trunc), out_(&file_) {
  header();
}

CsvSink::CsvSink(std::ostream& out) : out_(&out) { header(); }

bool CsvSink::ok() const { return out_ != &file_ || file_.good(); }

void CsvSink::header() {
  *out_ << "seq,kind,worker,task,kernel,tile,from_node,to_node,start,end,"
           "value\n";
}

void CsvSink::on_event(std::uint64_t seq, const TraceEvent& e) {
  std::string line;
  line.reserve(128);
  append_int(line, static_cast<long long>(seq));
  switch (e.kind) {
    case TraceEvent::Kind::Compute:
      line += ",compute,";
      append_int(line, e.worker);
      line += ',';
      append_int(line, e.task);
      line += ',';
      line += to_string(e.kernel);
      line += ",,,,";
      append_number(line, e.start);
      line += ',';
      append_number(line, e.end);
      line += ',';
      break;
    case TraceEvent::Kind::Transfer:
      line += ",transfer,,,,";
      append_int(line, e.tile);
      line += ',';
      append_int(line, e.from_node);
      line += ',';
      append_int(line, e.to_node);
      line += ',';
      append_number(line, e.start);
      line += ',';
      append_number(line, e.end);
      line += ',';
      break;
    case TraceEvent::Kind::Fault:
      line += ",fault,";
      append_int(line, e.worker);
      line += ',';
      append_int(line, e.task);
      line += ',';
      line += to_string(e.fault);
      line += ',';
      append_int(line, e.tile);
      line += ",,,";
      append_number(line, e.start);
      line += ",,";
      append_number(line, e.value);
      break;
  }
  line += '\n';
  *out_ << line;
}

void CsvSink::flush() { out_->flush(); }

// ---- MetricsAggregator ----------------------------------------------------

void MetricsAggregator::configure(const Platform& p) {
  std::lock_guard<std::mutex> lock(mu_);
  nb_ = p.nb();
  worker_class_.clear();
  for (const Worker& w : p.workers()) worker_class_.push_back(w.cls);
  busy_s_per_worker_.assign(worker_class_.size(), 0.0);
  class_worker_count_.assign(static_cast<std::size_t>(p.num_classes()), 0);
  snap_.class_names.clear();
  for (int c = 0; c < p.num_classes(); ++c) {
    snap_.class_names.push_back(p.resource_class(c).name);
    class_worker_count_[static_cast<std::size_t>(c)] =
        p.resource_class(c).count;
  }
  snap_.busy_s_per_class.assign(snap_.class_names.size(), 0.0);
  snap_.idle_frac_per_class.assign(snap_.class_names.size(), 0.0);
  pack_base_ = kernels::process_pack_cache().stats();
  pack_configured_ = true;
}

void MetricsAggregator::set_report(std::FILE* out, double interval_s) {
  std::lock_guard<std::mutex> lock(mu_);
  report_out_ = out;
  report_interval_s_ = interval_s;
  last_report_ = -1.0;
}

void MetricsAggregator::on_event(std::uint64_t, const TraceEvent& e) {
  bool report_due = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    switch (e.kind) {
      case TraceEvent::Kind::Compute: {
        ++snap_.compute_events;
        if (e.end > snap_.makespan_s) snap_.makespan_s = e.end;
        if (nb_ > 0) snap_.flops_total += kernel_flops(e.kernel, nb_);
        if (e.worker >= 0 &&
            static_cast<std::size_t>(e.worker) < busy_s_per_worker_.size()) {
          busy_s_per_worker_[static_cast<std::size_t>(e.worker)] +=
              e.end - e.start;
        }
        break;
      }
      case TraceEvent::Kind::Transfer:
        ++snap_.transfer_events;
        break;
      case TraceEvent::Kind::Fault: {
        ++snap_.fault_events;
        FaultStats& f = snap_.faults;
        switch (e.fault) {
          case FaultEventKind::WorkerDeath:
            ++f.worker_deaths;
            f.degraded = true;
            break;
          case FaultEventKind::TransientFailure: ++f.transient_failures; break;
          case FaultEventKind::Retry:
            ++f.retries;
            f.recovery_time_s += e.value;
            break;
          case FaultEventKind::TaskRequeued: ++f.tasks_requeued; break;
          case FaultEventKind::SlowdownHit: ++f.slowdown_hits; break;
          case FaultEventKind::WatchdogTimeout: ++f.watchdog_timeouts; break;
          case FaultEventKind::SoleCopyLoss: ++f.sole_copy_losses; break;
          case FaultEventKind::Recomputation:
            ++f.recomputations;
            f.recovery_time_s += e.value;
            break;
        }
        break;
      }
    }
    if (report_out_ != nullptr) {
      const double now = steady_seconds();
      if (last_report_ < 0.0 || now - last_report_ >= report_interval_s_) {
        last_report_ = now;
        report_due = true;
      }
    }
  }
  if (report_due) report_line(snapshot());
}

MetricsSnapshot MetricsAggregator::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot s = snap_;
  // Derived values are computed on demand, not per event.
  if (s.makespan_s > 0.0) s.gflops = s.flops_total / 1e9 / s.makespan_s;
  if (bound_s_ > 0.0 && s.makespan_s > 0.0)
    s.bound_ratio = s.makespan_s / bound_s_;
  for (const auto& [name, bound_s] : named_bounds_)
    s.bound_ratios.emplace_back(
        name, bound_s > 0.0 && s.makespan_s > 0.0 ? s.makespan_s / bound_s
                                                  : 0.0);
  for (std::size_t w = 0; w < busy_s_per_worker_.size(); ++w) {
    const auto c = static_cast<std::size_t>(worker_class_[w]);
    if (c < s.busy_s_per_class.size())
      s.busy_s_per_class[c] += busy_s_per_worker_[w];
  }
  for (std::size_t c = 0; c < s.busy_s_per_class.size(); ++c) {
    const double denom =
        s.makespan_s * static_cast<double>(class_worker_count_[c]);
    s.idle_frac_per_class[c] =
        denom > 0.0 ? 1.0 - s.busy_s_per_class[c] / denom : 0.0;
  }
  if (pack_configured_) {
    const kernels::PackCacheStats p = kernels::process_pack_cache().stats();
    s.pack_hits = p.hits - pack_base_.hits;
    s.pack_misses = p.misses - pack_base_.misses;
    s.pack_evictions = p.evictions - pack_base_.evictions;
    s.pack_bytes_packed = p.bytes_packed - pack_base_.bytes_packed;
  }
  for (const auto& [key, value] : sched_stats_)
    s.scheduler_stats.emplace_back(key, value);
  return s;
}

void MetricsAggregator::report_line(const MetricsSnapshot& s) const {
  std::string idle;
  for (std::size_t c = 0; c < s.class_names.size(); ++c) {
    if (!idle.empty()) idle += ',';
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s:%.1f%%", s.class_names[c].c_str(),
                  s.idle_frac_per_class[c] * 100.0);
    idle += buf;
  }
  // Named yardsticks render as "bounds=mixed:1.42,alap:1.31" after the
  // legacy single-bound ratio field.
  std::string named;
  for (const auto& [name, ratio] : s.bound_ratios) {
    if (!named.empty()) named += ',';
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s:%.3f", name.c_str(), ratio);
    named += buf;
  }
  if (!named.empty()) named = " bounds=" + named;
  // Post-run policy counters render as "sched=steals:12,static_pool_hits:88".
  std::string sched;
  for (const auto& [name, value] : s.scheduler_stats) {
    if (!sched.empty()) sched += ',';
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s:%lld", name.c_str(),
                  static_cast<long long>(value));
    sched += buf;
  }
  if (!sched.empty()) named += " sched=" + sched;
  std::fprintf(report_out_,
               "[obs] events=%llu makespan=%.4fs gflops=%.1f idle=%s "
               "bound_ratio=%.3f%s faults=%llu pack=%llu/%llu\n",
               static_cast<unsigned long long>(
                   s.compute_events + s.transfer_events + s.fault_events),
               s.makespan_s, s.gflops, idle.empty() ? "-" : idle.c_str(),
               s.bound_ratio, named.c_str(),
               static_cast<unsigned long long>(s.fault_events),
               static_cast<unsigned long long>(s.pack_hits),
               static_cast<unsigned long long>(s.pack_misses));
  std::fflush(report_out_);
}

void MetricsAggregator::flush() {
  bool report = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    report = report_out_ != nullptr;
  }
  if (report) report_line(snapshot());
}

}  // namespace hetsched::obs

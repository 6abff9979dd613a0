// hetsched_bench: the committed benchmark of hetsched (see README.md here).
//
// One process, one public header. Six workloads drive the library the way
// a user does -- real threaded Cholesky, the TilePlan executor, the
// serving layer, the paper's simulator sweep and the partition auto-tuner
// -- and every call into a layer is timed from outside. Outputs are
// checked outside the timers; any failed check makes the exit code
// non-zero.
//
// The default pass reports the end-to-end metrics with tracing off. The
// --traced pass turns on record_trace, wraps every layer call in a
// benchmark-owned span and derives the per-layer metrics from the spans
// and the RunReports; the spans are written to <out>.spans.jsonl.
//
// Usage: hetsched_bench [--workload=NAME] [--seed=S] [--seconds=T]
//                       [--traced] [--smoke] [--out=FILE]
//   --workload  chol-nb64, chol-nb384, chol-plan, serve-mixed, sim-paper or
//               tune-plan (default: all of them)
//   --seed      input seed (default 1): matrices, job mix, arrival times,
//               platform jitter
//   --seconds   measurement length per workload (default 15)
//   --traced    per-layer pass instead of the end-to-end pass
//   --smoke     every workload, both passes, about half a second each;
//               exits non-zero when any check fails
//   --out       also write the results (and spans) to FILE
// The last line of stdout is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "hetsched.hpp"

namespace {

namespace hs = hetsched;
using Clock = std::chrono::steady_clock;
using hs::Kernel;

// ---- Run constants ----------------------------------------------------------

constexpr double kDefaultSeconds = 15.0;
constexpr double kSmokeSeconds = 0.5;
constexpr int kSetupReps = 5;     // set-ups per run; setup_s is their median
constexpr int kWarmupCalls = 3;   // warm-up calls inside each set-up
constexpr int kThreads = 4;       // a 4-core target: never more busy threads
constexpr int kCheckEvery = 10;   // Freivalds check cadence (plus last call)
constexpr double kFreivaldsTol = 1e-10;

// Serving: 3 batch workers + the dispatcher + the generator (main thread).
constexpr int kServeWorkers = 3;
constexpr int kServeMaxBatch = 8;
constexpr double kOpenRatePerS = 120.0;  // about 35 % of measured capacity
constexpr double kOpenShare = 0.6;  // of the run; the backlog gets the rest
constexpr double kBacklogJobsPerS = 100.0;  // backlog size per run second
constexpr int kServeGeometries[4][2] = {{6, 64}, {8, 64}, {8, 96}, {12, 64}};
constexpr double kLateMs = 1.0;  // a submission this late counts as late

// Simulator sweep of the paper: tiles x policies on the PCIe mirage model.
constexpr int kSimTiles[] = {8, 16, 24, 32};
constexpr const char* kSimPolicies[] = {"eager", "dmda", "dmdas"};
constexpr const char* kSimBounds[] = {"mixed", "alap"};
constexpr double kPlatformJitter = 0.02;  // seeded +-2 % on mirage timings

constexpr int kTuneTiles = 10;

// Traced pass: shares of the run length.
constexpr double kTracedBaselineShare = 0.25;  // untraced, for the overhead
constexpr double kTracedShare = 0.45;
constexpr double kSingleThreadShare = 0.15;    // chol 1-thread series

// ---- Metric declarations (BENCHMARK.json lists the same names) -------------

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"p50_ms", "ms"},
    {"throughput", "work/s"},
};

constexpr MetricDef kPerLayer[] = {
    {"host.probe_us", "us"},
    {"kernels.potrf.nb64.gflops", "GFLOP/s"},
    {"kernels.trsm.nb64.gflops", "GFLOP/s"},
    {"kernels.syrk.nb64.gflops", "GFLOP/s"},
    {"kernels.gemm.nb64.gflops", "GFLOP/s"},
    {"kernels.potrf.nb384.gflops", "GFLOP/s"},
    {"kernels.trsm.nb384.gflops", "GFLOP/s"},
    {"kernels.syrk.nb384.gflops", "GFLOP/s"},
    {"kernels.gemm.nb384.gflops", "GFLOP/s"},
    {"kernels.inrun.potrf.gflops", "GFLOP/s"},
    {"kernels.inrun.trsm.gflops", "GFLOP/s"},
    {"kernels.inrun.syrk.gflops", "GFLOP/s"},
    {"kernels.inrun.gemm.gflops", "GFLOP/s"},
    {"kernels.pack_hit_ratio", "ratio"},
    {"kernels.pack_mib_per_op", "MiB"},
    {"kernels.pack_evictions_per_op", "count"},
    {"runtime.busy_frac", "ratio"},
    {"runtime.overhead_frac", "ratio"},
    {"runtime.alap_ratio", "ratio"},
    {"runtime.speedup_1to4", "ratio"},
    {"runtime.call_overhead_frac", "ratio"},
    {"core.dag_build_frac", "ratio"},
    {"core.fill_frac", "ratio"},
    {"serve.mean_batch.open", "jobs"},
    {"serve.mean_batch.backlog", "jobs"},
    {"serve.p99_over_p50", "ratio"},
    {"serve.queue_frac", "ratio"},
    {"serve.batches", "count"},
    {"sim.tasks_per_s.eager", "tasks/s"},
    {"sim.tasks_per_s.dmda", "tasks/s"},
    {"sim.tasks_per_s.dmdas", "tasks/s"},
    {"sim.transfer_hops_per_task", "ratio"},
    {"sched.dmda.share", "ratio"},
    {"sched.dmdas.share", "ratio"},
    {"bounds.mixed.evals_per_s", "1/s"},
    {"bounds.alap.evals_per_s", "1/s"},
    {"bounds.min_ratio", "ratio"},
    {"partition.rollouts", "count"},
    {"partition.rollouts_per_s", "1/s"},
    {"partition.gain", "ratio"},
    {"obs.trace_overhead_frac", "ratio"},
    {"obs.spans", "count"},
    {"bench.gen_late_jobs", "count"},
    {"bench.op_p90_ms", "ms"},
};

using Metrics = std::map<std::string, double>;

// ---- Small helpers ---------------------------------------------------------

double now_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile; 0 for an empty series.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

/// Failures of one run: every operation attempted, every one that failed
/// or produced a wrong output.
struct Outcome {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> errors;

  void fail(const std::string& why) {
    ++failed;
    if (errors.size() < 8) errors.push_back(why);
  }
};

// ---- Spans -----------------------------------------------------------------

/// Benchmark-owned spans around calls into the library's layers, kept in
/// memory and written out when the run ends. A null SpanLog* (the
/// untraced pass) records nothing.
class SpanLog {
 public:
  struct Span {
    int id = -1;
    int parent = -1;
    std::string name;
    double start = 0.0;
    double end = 0.0;
  };

  int open(std::string name, int parent) {
    Span s;
    s.id = static_cast<int>(spans_.size());
    s.parent = parent;
    s.name = std::move(name);
    s.start = now_s();
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }
  void close(int id) { spans_[static_cast<std::size_t>(id)].end = now_s(); }

  /// Durations (seconds) of every span called `name`.
  std::vector<double> durations(const std::string& name) const {
    std::vector<double> d;
    for (const Span& s : spans_)
      if (s.name == name) d.push_back(s.end - s.start);
    return d;
  }
  std::size_t size() const { return spans_.size(); }

  bool write_jsonl(const std::string& path, const std::string& workload,
                   bool append) const {
    std::FILE* f = std::fopen(path.c_str(), append ? "a" : "w");
    if (!f) return false;
    const double origin = spans_.empty() ? 0.0 : spans_.front().start;
    for (const Span& s : spans_)
      std::fprintf(f,
                   "{\"workload\":\"%s\",\"id\":%d,\"parent\":%d,"
                   "\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f}\n",
                   workload.c_str(), s.id, s.parent, s.name.c_str(),
                   (s.start - origin) * 1e6, (s.end - origin) * 1e6);
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
};

/// Scoped span; a no-op when `log` is null.
class SpanScope {
 public:
  SpanScope(SpanLog* log, std::string name, int parent) : log_(log) {
    if (log_) id_ = log_->open(std::move(name), parent);
  }
  ~SpanScope() {
    if (log_) log_->close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanLog* log_;
  int id_ = -1;
};

// ---- Workload interface ----------------------------------------------------

/// One workload. run_workload() times construction + setup() kSetupReps times
/// (setup_s), then calls end_to_end() or traced() on the last instance.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds inputs and makes kWarmupCalls warm-up calls.
  virtual void setup(Outcome& out) = 0;

  /// Runs operations for `seconds`; returns each one's wall time (s).
  /// Spans go to `spans` (null: untraced) under `parent`.
  virtual std::vector<double> run_ops(double seconds, SpanLog* spans,
                                      int parent, Outcome& out) = 0;

  /// Work done by one operation, in the unit `throughput` counts.
  virtual double work_per_op() const = 0;

  /// Median operation and throughput = work / median op.
  virtual void end_to_end(double seconds, Outcome& out, Metrics& m) {
    const std::vector<double> ops = run_ops(seconds, nullptr, -1, out);
    m["p50_ms"] = median(ops) * 1e3;
    m["throughput"] = ratio(work_per_op(), median(ops));
  }

  /// Fills the workload's per-layer metrics.
  virtual void traced(double seconds, SpanLog& spans, int parent,
                      Outcome& out, Metrics& m) = 0;
};

/// The untraced operations' tail and the tracing overhead, from an untraced
/// and a traced series of operations.
void report_tail_and_overhead(const std::vector<double>& plain,
                              const std::vector<double>& traced, Metrics& m) {
  m["bench.op_p90_ms"] = quantile(plain, 0.9) * 1e3;
  m["obs.trace_overhead_frac"] = ratio(median(traced), median(plain)) - 1.0;
}

/// Untraced then traced operations; returns the traced series.
std::vector<double> overhead_pair(Workload& w, double seconds, SpanLog& spans,
                                  int parent, Outcome& out, Metrics& m) {
  const std::vector<double> plain =
      w.run_ops(seconds * kTracedBaselineShare, nullptr, parent, out);
  std::vector<double> traced =
      w.run_ops(seconds * kTracedShare, &spans, parent, out);
  report_tail_and_overhead(plain, traced, m);
  return traced;
}

// ---- Cholesky: execute_parallel and execute_plan_parallel ------------------

/// Relative l1 residual of the Freivalds check |L(L^T x) - Ax| / |Ax| for
/// the lower-stored symmetric `a` and its factor `l` (lower triangles only).
double freivalds_residual(const hs::TileMatrix& a, const hs::TileMatrix& l,
                          const std::vector<double>& x) {
  const int n = a.n_tiles();
  const int nb = a.nb();
  const auto N = static_cast<std::size_t>(a.n_elems());
  const auto at = [nb](const double* t, int r, int c) {
    return t[static_cast<std::size_t>(r) +
             static_cast<std::size_t>(c) * static_cast<std::size_t>(nb)];
  };
  const auto idx = [nb](int tile, int e) {
    return static_cast<std::size_t>(tile) * static_cast<std::size_t>(nb) +
           static_cast<std::size_t>(e);
  };
  std::vector<double> y(N, 0.0), w(N, 0.0), z(N, 0.0);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j <= i; ++j) {
      const double* ta = a.tile(i, j);
      const double* tl = l.tile(i, j);
      for (int c = 0; c < nb; ++c) {
        for (int r = (i == j ? c : 0); r < nb; ++r) {
          const double va = at(ta, r, c);
          y[idx(i, r)] += va * x[idx(j, c)];
          if (i != j || r != c) y[idx(j, c)] += va * x[idx(i, r)];
          w[idx(j, c)] += at(tl, r, c) * x[idx(i, r)];  // w = L^T x
        }
      }
    }
  }
  for (int i = 0; i < n; ++i)
    for (int j = 0; j <= i; ++j) {
      const double* tl = l.tile(i, j);
      for (int c = 0; c < nb; ++c)
        for (int r = (i == j ? c : 0); r < nb; ++r)
          z[idx(i, r)] += at(tl, r, c) * w[idx(j, c)];  // z = L w
    }
  double num = 0.0;
  double den = 0.0;
  for (std::size_t e = 0; e < N; ++e) {
    num += std::fabs(z[e] - y[e]);
    den += std::fabs(y[e]);
  }
  return ratio(num, den);
}

void copy_tiles(const hs::TileMatrix& from, hs::TileMatrix& to) {
  const int tiles = hs::num_lower_tiles(from.n_tiles());
  for (int h = 0; h < tiles; ++h)
    std::memcpy(to.tile(h), from.tile(h), from.tile_bytes());
}

/// The fixed mixed plan of chol-plan: level 0 for columns 0-3, 1 for
/// columns 4-5, 2 for columns 6-7 of an 8 x 8 grid.
hs::TilePlan mixed_plan(int tiles, int base_nb) {
  hs::TilePlan plan = hs::TilePlan::uniform(tiles, base_nb, 0);
  for (int i = 0; i < tiles; ++i)
    for (int j = 0; j <= i; ++j)
      plan.set_level(i, j, j < 4 ? 0 : (j < 6 ? 1 : 2));
  return plan;
}

class CholWorkload final : public Workload {
 public:
  CholWorkload(int tiles, int nb, bool plan, unsigned seed)
      : tiles_(tiles), nb_(nb), use_plan_(plan), seed_(seed),
        a0_(hs::TileMatrix::synthetic_spd(tiles, nb, seed)),
        a_(tiles, nb) {}

  void setup(Outcome& out) override {
    if (use_plan_) {
      plan_ = mixed_plan(tiles_, nb_);
      graph_ = hs::build_cholesky_dag_plan(plan_);
    } else {
      graph_ = hs::build_cholesky_dag(tiles_, nb_);
    }
    std::mt19937_64 rng(seed_ ^ 0x5eedf00dULL);
    std::uniform_real_distribution<double> u(-1.0, 1.0);
    x_.resize(static_cast<std::size_t>(a0_.n_elems()));
    for (double& v : x_) v = u(rng);
    for (int i = 0; i < kWarmupCalls; ++i) call(kThreads, out);
  }

  double work_per_op() const override {
    return hs::cholesky_flops(a0_.n_elems()) * 1e-9;  // GFLOP
  }

  std::vector<double> run_ops(double seconds, SpanLog* spans, int parent,
                              Outcome& out) override {
    std::vector<double> walls;
    calls_for(seconds, kThreads, spans, parent, out,
              [&](const Call& c) { walls.push_back(c.wall); });
    return walls;
  }

  void traced(double seconds, SpanLog& spans, int parent, Outcome& out,
              Metrics& m) override {
    // Untraced baseline: call wall and makespan without record_trace.
    std::vector<double> walls, makespans;
    calls_for(seconds * kTracedBaselineShare, kThreads, nullptr, parent, out,
              [&](const Call& c) {
                walls.push_back(c.wall);
                makespans.push_back(c.report.makespan_s);
              });
    // Traced series: per-kernel in-run durations, busy share, pack counters.
    std::vector<double> traced_walls, traced_makespans, busy;
    std::vector<double> task_s[4], task_gflops[4];
    double pack_hits = 0, pack_lookups = 0, pack_bytes = 0, pack_evict = 0;
    std::vector<double> build_s;
    calls_for(seconds * kTracedShare, kThreads, &spans, parent, out,
              [&](const Call& c) {
      traced_walls.push_back(c.wall);
      traced_makespans.push_back(c.report.makespan_s);
      double task_sum = 0.0;
      for (const hs::ComputeRecord& r : c.report.trace.compute()) {
        const hs::Task& t = graph_.task(r.task);
        const double d = r.end - r.start;
        task_sum += d;
        if (hs::is_repack(t.kernel)) continue;
        const int k = hs::kernel_index(t.kernel);
        const int tnb = t.nb > 0 ? t.nb : nb_;
        if (tnb == nb_) task_s[k].push_back(d);
        if (d > 0.0)
          task_gflops[k].push_back(hs::kernel_flops(t.kernel, tnb) / d * 1e-9);
      }
      busy.push_back(ratio(task_sum, kThreads * c.report.makespan_s));
      pack_hits += static_cast<double>(c.report.pack_hits);
      pack_lookups +=
          static_cast<double>(c.report.pack_hits + c.report.pack_misses);
      pack_bytes += static_cast<double>(c.report.pack_bytes);
      pack_evict += static_cast<double>(c.report.pack_evictions);
      if (use_plan_) {
        // The plan executor lowers the plan on every call; time the same
        // lowering on its own to attribute it to the core layer.
        SpanScope s(&spans, "core.build_cholesky_dag_plan", parent);
        const double t0 = now_s();
        const hs::TaskGraph g = hs::build_cholesky_dag_plan(plan_);
        build_s.push_back(now_s() - t0);
      }
    });
    // One-thread series for the scaling ratio.
    std::vector<double> single;
    calls_for(seconds * kSingleThreadShare, 1, nullptr, parent, out,
              [&](const Call& c) { single.push_back(c.wall); }, 3);
    const auto calls = static_cast<double>(traced_walls.size());
    report_tail_and_overhead(walls, traced_walls, m);
    static const char* kNames[4] = {"potrf", "trsm", "syrk", "gemm"};
    for (int k = 0; k < 4; ++k)
      m[std::string("kernels.inrun.") + kNames[k] + ".gflops"] =
          median(task_gflops[k]);
    m["kernels.pack_hit_ratio"] = ratio(pack_hits, pack_lookups);
    m["kernels.pack_mib_per_op"] = pack_bytes / calls / (1024.0 * 1024.0);
    m["kernels.pack_evictions_per_op"] = pack_evict / calls;
    m["runtime.busy_frac"] = median(busy);
    m["runtime.speedup_1to4"] = ratio(median(single), median(walls));
    m["runtime.call_overhead_frac"] =
        ratio(median(walls) - median(makespans), median(walls));
    m["core.dag_build_frac"] = ratio(median(build_s), median(walls));

    // DES replay of the measured kernel medians: a 4-core platform
    // calibrated from the traced calls, the same central priority order, no
    // runtime overhead. What the makespans of those same calls spend above
    // it is runtime overhead.
    double cpu_times[hs::kNumKernels] = {};
    double ratios[hs::kNumKernels];
    for (double& r : ratios) r = 1.0;
    for (int k = 0; k < 4; ++k) cpu_times[k] = median(task_s[k]);
    const hs::Platform cal =
        hs::custom_platform(kThreads, 0, cpu_times, ratios, nb_, "measured");
    double replay_s = 0.0;
    {
      SpanScope s(&spans, "sim.simulate.replay", parent);
      auto sched = hs::sched::make_scheduler("priority", graph_, cal);
      hs::RunOptions ro;
      ro.record_trace = false;
      replay_s = hs::simulate(graph_, cal, *sched, ro).makespan_s;
    }
    double alap_s = 0.0;
    {
      SpanScope s(&spans, "bounds.evaluate_bound_s.alap", parent);
      alap_s = hs::bounds::evaluate_bound_s("alap", graph_, cal);
    }
    const double mk = median(traced_makespans);
    m["runtime.overhead_frac"] = ratio(mk - replay_s, mk);
    m["runtime.alap_ratio"] = ratio(mk, alap_s);
  }

 private:
  struct Call {
    double wall = 0.0;
    hs::RunReport report;
  };

  /// Back-to-back calls for `seconds` (at least `min_calls`), traced when
  /// `spans` is set; Freivalds-checks every kCheckEvery-th and the last one.
  template <class OnCall>
  void calls_for(double seconds, int threads, SpanLog* spans, int parent,
                 Outcome& out, OnCall on_call, std::size_t min_calls = 1) {
    const double end = now_s() + seconds;
    std::size_t n = 0;
    bool settled = false;  // the last call was checked or already failed
    do {
      const bool verify = n++ % kCheckEvery == 0;
      const Call c = call(threads, out, spans, parent, verify);
      settled = verify || !c.report.success;
      on_call(c);
    } while (now_s() < end || n < min_calls);
    if (!settled) check(out);
  }

  /// One public call on a fresh copy of the input, with record_trace on
  /// when `spans` is set; `verify` runs the Freivalds check on the factor
  /// afterwards, outside the timer. Counts at most one failure.
  Call call(int threads, Outcome& out, SpanLog* spans = nullptr,
            int parent = -1, bool verify = false) {
    copy_tiles(a0_, a_);
    hs::ExecOptions opt;
    opt.num_threads = threads;
    opt.record_trace = spans != nullptr;
    Call c;
    {
      SpanScope s(spans,
                  use_plan_ ? "runtime.execute_plan_parallel"
                            : "runtime.execute_parallel",
                  parent);
      const double t0 = now_s();
      c.report = use_plan_ ? hs::execute_plan_parallel(a_, plan_, opt)
                           : hs::execute_parallel(a_, graph_, opt);
      c.wall = now_s() - t0;
    }
    ++out.attempted;
    if (!c.report.success) {
      out.fail("factorization failed: " + c.report.error);
    } else if (verify) {
      check(out);
    }
    return c;
  }

  /// Freivalds check of the factor currently in a_.
  void check(Outcome& out) {
    const double res = freivalds_residual(a0_, a_, x_);
    if (!(res <= kFreivaldsTol)) {
      char msg[64];
      std::snprintf(msg, sizeof(msg), "Freivalds residual %.3e > %.0e", res,
                    kFreivaldsTol);
      out.fail(msg);
    }
  }

  int tiles_;
  int nb_;
  bool use_plan_;
  unsigned seed_;
  hs::TileMatrix a0_;  // pristine input
  hs::TileMatrix a_;   // refilled from a0_ before every call
  hs::TilePlan plan_;
  hs::TaskGraph graph_;
  std::vector<double> x_;
};

// ---- Serving: FactorizationServer -------------------------------------------

class ServeWorkload final : public Workload {
 public:
  explicit ServeWorkload(unsigned seed) : seed_(seed), rng_(seed) {
    opt_.threads = kServeWorkers;
    opt_.max_batch = kServeMaxBatch;
    opt_.policy = "priority";
    opt_.admission.max_depth = std::size_t{1} << 20;  // nothing is rejected
    opt_.seed = seed;
  }
  ~ServeWorkload() override {
    if (server_) server_->shutdown();
  }

  void setup(Outcome& out) override {
    server_ = std::make_unique<hs::serve::FactorizationServer>(opt_);
    std::vector<int> ids;  // queued before start(): the same batches every run
    for (int i = 0; i < kWarmupCalls; ++i)
      ids.push_back(submit(*server_, out, nullptr, -1));
    server_->start();
    for (const int id : ids) wait(*server_, id, out, nullptr, -1);
  }

  double work_per_op() const override { return 1.0; }  // jobs

  /// Open loop: Poisson arrivals at kOpenRatePerS; each latency is timed
  /// from the job's due time, so generator stalls count against it.
  std::vector<double> run_ops(double seconds, SpanLog* spans, int parent,
                              Outcome& out) override {
    std::exponential_distribution<double> gap(kOpenRatePerS);
    std::vector<double> due;
    for (double t = gap(rng_); t < seconds; t += gap(rng_)) due.push_back(t);
    if (due.empty()) due.push_back(0.0);
    std::vector<int> ids(due.size());
    std::vector<double> late_s(due.size());
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < due.size(); ++i) {
      const auto when = t0 + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(due[i]));
      std::this_thread::sleep_until(when);
      late_s[i] = std::chrono::duration<double>(Clock::now() - when).count();
      ids[i] = submit(*server_, out, spans, parent);
    }
    std::vector<double> latency;
    queue_ms_ = 0.0;
    latency_ms_ = 0.0;
    late_jobs_ = 0;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const auto st = wait(*server_, ids[i], out, spans, parent);
      latency.push_back(late_s[i] + st.latency_ms * 1e-3);
      queue_ms_ += st.queue_ms;
      latency_ms_ += st.latency_ms;
      if (late_s[i] * 1e3 > kLateMs) ++late_jobs_;
    }
    return latency;
  }

  void end_to_end(double seconds, Outcome& out, Metrics& m) override {
    const std::vector<double> lat =
        run_ops(seconds * kOpenShare, nullptr, -1, out);
    m["p50_ms"] = median(lat) * 1e3;
    m["throughput"] = backlog(seconds, out, nullptr, -1).jobs_per_s;
  }

  void traced(double seconds, SpanLog& spans, int parent, Outcome& out,
              Metrics& m) override {
    const hs::serve::ServeMetrics before = server_->metrics();
    const std::vector<double> lat =
        overhead_pair(*this, seconds * kOpenShare, spans, parent, out, m);
    const hs::serve::ServeMetrics open = server_->metrics();
    const Backlog b = backlog(seconds, out, &spans, parent);

    // The dispatcher fills every job's input matrix serially before the
    // batch runs; time that fill on its own for the backlog's job mix.
    double fill_s = 0.0;
    for (const auto& [geometry, count] : b.geometry_counts) {
      std::vector<double> t;
      for (int r = 0; r < 5; ++r) {
        SpanScope s(&spans, "core.synthetic_spd", parent);
        const double t0 = now_s();
        const hs::TileMatrix mat = hs::TileMatrix::synthetic_spd(
            geometry.first, geometry.second, seed_);
        t.push_back(now_s() - t0);
      }
      fill_s += median(t) * count;
    }
    const auto open_batches =
        static_cast<double>(open.batches - before.batches);
    m["serve.mean_batch.open"] =
        ratio(static_cast<double>(open.batched_jobs - before.batched_jobs),
              open_batches);
    m["serve.mean_batch.backlog"] = b.mean_batch;
    m["serve.p99_over_p50"] = ratio(quantile(lat, 0.99), median(lat));
    m["serve.queue_frac"] = ratio(queue_ms_, latency_ms_);
    m["serve.batches"] = open_batches + b.batches;
    m["kernels.pack_hit_ratio"] =
        ratio(static_cast<double>(open.pack_hits - before.pack_hits),
              static_cast<double>(open.pack_hits + open.pack_misses -
                                  before.pack_hits - before.pack_misses));
    m["core.fill_frac"] = ratio(fill_s, b.wall_s);
    m["bench.gen_late_jobs"] = static_cast<double>(late_jobs_);
  }

 private:
  struct Backlog {
    double jobs_per_s = 0.0;
    double wall_s = 0.0;
    double mean_batch = 0.0;
    double batches = 0.0;
    std::map<std::pair<int, int>, int> geometry_counts;
  };

  /// Capacity: a fresh server gets its whole backlog before start().
  Backlog backlog(double seconds, Outcome& out, SpanLog* spans, int parent) {
    hs::serve::FactorizationServer server(opt_);
    const int jobs =
        4 * std::max(2, static_cast<int>(kBacklogJobsPerS * seconds / 4));
    Backlog b;
    std::vector<int> ids;
    next_geometry_ = 4;  // whole shuffles: an exactly even mix
    for (int i = 0; i < jobs; ++i) {
      ids.push_back(submit(server, out, spans, parent));
      ++b.geometry_counts[last_geometry_];
    }
    const double t0 = now_s();
    server.start();
    for (const int id : ids) wait(server, id, out, spans, parent);
    b.wall_s = now_s() - t0;
    const hs::serve::ServeMetrics sm = server.metrics();
    server.shutdown();
    b.jobs_per_s = ratio(jobs, b.wall_s);
    b.batches = static_cast<double>(sm.batches);
    b.mean_batch = ratio(static_cast<double>(sm.batched_jobs), b.batches);
    return b;
  }

  /// Jobs take the four geometries in seeded shuffles of all four, so every
  /// run has the same mix and only the order and the inputs vary by seed.
  int submit(hs::serve::FactorizationServer& server, Outcome& out,
             SpanLog* spans, int parent) {
    if (next_geometry_ == 4) {
      std::shuffle(std::begin(order_), std::end(order_), rng_);
      next_geometry_ = 0;
    }
    const int* g = kServeGeometries[order_[next_geometry_++]];
    hs::serve::JobSpec spec;
    spec.tiles = g[0];
    spec.nb = g[1];
    spec.seed = static_cast<unsigned>(rng_());
    last_geometry_ = {g[0], g[1]};
    SpanScope s(spans, "serve.submit", parent);
    const hs::serve::SubmitResult r = server.submit(spec);
    ++out.attempted;
    if (!r.admitted) out.fail("job rejected: " + r.message);
    return r.id;
  }

  hs::serve::FactorizationServer::JobStatus wait(
      hs::serve::FactorizationServer& server, int id, Outcome& out,
      SpanLog* spans, int parent) {
    SpanScope s(spans, "serve.wait", parent);
    auto st = server.wait(id);
    if (id >= 0 && st.state != hs::serve::JobState::kDone)
      out.fail(std::string("job ended ") + hs::serve::to_string(st.state) +
               ": " + st.error);
    return st;
  }

  unsigned seed_;
  std::mt19937_64 rng_;
  hs::serve::ServerOptions opt_;
  std::unique_ptr<hs::serve::FactorizationServer> server_;
  int order_[4] = {0, 1, 2, 3};
  int next_geometry_ = 4;
  std::pair<int, int> last_geometry_{0, 0};
  double queue_ms_ = 0.0;
  double latency_ms_ = 0.0;
  int late_jobs_ = 0;
};

// ---- Simulator sweep and bounds --------------------------------------------

/// The mirage model (9 CPUs + 3 GPUs over PCIe) with every calibrated time
/// and GPU ratio jittered by a seeded +-2 %, so each seed is a slightly
/// different machine of the same shape.
hs::Platform seeded_mirage(unsigned seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> jitter(-kPlatformJitter,
                                                kPlatformJitter);
  double cpu[hs::kNumKernels];
  double gpu[hs::kNumKernels];
  for (int k = 0; k < hs::kNumKernels; ++k) {
    cpu[k] = hs::kMirageCpuTime[k] * (1.0 + jitter(rng));
    gpu[k] = hs::kMirageGpuRatio[k] * (1.0 + jitter(rng));
  }
  return hs::custom_platform(9, 3, cpu, gpu, hs::kPaperTileSize, "mirage");
}

class SimWorkload final : public Workload {
 public:
  explicit SimWorkload(unsigned seed)
      : platform_(seeded_mirage(seed)),
        nocomm_(platform_.without_communication()) {}

  void setup(Outcome& out) override {
    for (const int n : kSimTiles) {
      graphs_.push_back(hs::build_cholesky_dag(n));
      tasks_per_pass_ += 3.0 * static_cast<double>(hs::total_task_count(n));
    }
    for (int i = 0; i < kWarmupCalls; ++i) {
      auto sched = hs::sched::make_scheduler(kSimPolicies[i % 3], graphs_[0],
                                             platform_);
      hs::RunOptions ro;
      ro.record_trace = false;
      hs::simulate(graphs_[0], platform_, *sched, ro);
      ++out.attempted;
    }
  }

  double work_per_op() const override { return tasks_per_pass_; }

  /// One pass: every (tiles, policy) cell plus both bounds per size.
  std::vector<double> run_ops(double seconds, SpanLog* spans, int parent,
                              Outcome& out) override {
    std::vector<double> walls;
    const double end = now_s() + seconds;
    do {
      const double t0 = now_s();
      std::vector<double> makespans, bounds;
      for (std::size_t gi = 0; gi < graphs_.size(); ++gi) {
        const hs::TaskGraph& g = graphs_[gi];
        for (const char* policy : kSimPolicies) {
          SpanScope s(spans, std::string("sim.simulate.") + policy, parent);
          auto sched = hs::sched::make_scheduler(policy, g, platform_);
          hs::RunOptions ro;
          ro.record_trace = spans != nullptr;
          const hs::RunReport r = hs::simulate(g, platform_, *sched, ro);
          makespans.push_back(r.makespan_s);
          if (spans && std::string(policy) == "dmdas")
            hops_ += static_cast<double>(r.transfer_hops);
        }
        for (const char* model : kSimBounds) {
          SpanScope s(spans, std::string("bounds.evaluate_bound_s.") + model,
                      parent);
          bounds.push_back(hs::bounds::evaluate_bound_s(model, g, nocomm_));
        }
      }
      walls.push_back(now_s() - t0);
      ++out.attempted;
      check(makespans, bounds, out);
    } while (now_s() < end);
    return walls;
  }

  void traced(double seconds, SpanLog& spans, int parent, Outcome& out,
              Metrics& m) override {
    hops_ = 0.0;
    const std::vector<double> passes =
        overhead_pair(*this, seconds, spans, parent, out, m);
    const auto n_passes = static_cast<double>(passes.size());
    double sim_tasks = 0.0;
    for (const int n : kSimTiles)
      sim_tasks += static_cast<double>(hs::total_task_count(n));
    double policy_s[3];
    for (int p = 0; p < 3; ++p) {
      policy_s[p] =
          sum(spans.durations(std::string("sim.simulate.") + kSimPolicies[p]));
      m[std::string("sim.tasks_per_s.") + kSimPolicies[p]] =
          ratio(sim_tasks * n_passes, policy_s[p]);
    }
    m["sim.transfer_hops_per_task"] = ratio(hops_, sim_tasks * n_passes);
    m["sched.dmda.share"] = 1.0 - ratio(policy_s[0], policy_s[1]);
    m["sched.dmdas.share"] = 1.0 - ratio(policy_s[0], policy_s[2]);
    for (const char* model : kSimBounds) {
      const std::vector<double> d =
          spans.durations(std::string("bounds.evaluate_bound_s.") + model);
      m[std::string("bounds.") + model + ".evals_per_s"] =
          ratio(static_cast<double>(d.size()), sum(d));
    }
    m["bounds.min_ratio"] = min_ratio_;
  }

 private:
  /// Makespans and bounds repeat bit for bit; the ALAP bound of the
  /// no-comm platform lies below every makespan of its size.
  void check(const std::vector<double>& makespans,
             const std::vector<double>& bounds, Outcome& out) {
    const char* why = nullptr;
    if (first_makespans_.empty()) {
      first_makespans_ = makespans;
      first_bounds_ = bounds;
    } else if (makespans != first_makespans_ || bounds != first_bounds_) {
      why = "simulated makespans or bounds changed between passes";
    }
    min_ratio_ = 1e300;
    for (std::size_t gi = 0; gi < graphs_.size(); ++gi) {
      const double alap = bounds[gi * 2 + 1];
      for (std::size_t p = 0; p < 3; ++p) {
        const double mk = makespans[gi * 3 + p];
        if (!(alap <= mk)) why = "ALAP bound above a simulated makespan";
        min_ratio_ = std::min(min_ratio_, ratio(mk, alap));
      }
    }
    if (why) out.fail(why);
  }

  hs::Platform platform_;
  hs::Platform nocomm_;
  std::vector<hs::TaskGraph> graphs_;
  double tasks_per_pass_ = 0.0;
  std::vector<double> first_makespans_;
  std::vector<double> first_bounds_;
  double min_ratio_ = 0.0;
  double hops_ = 0.0;
};

// ---- Partition auto-tuner ---------------------------------------------------

/// The tuner's input is the paper's own no-comm mirage platform for every
/// seed: a jittered platform changes the greedy search path, and with it
/// the rollouts per call by more than 2x.
class TuneWorkload final : public Workload {
 public:
  TuneWorkload() : nocomm_(hs::mirage_platform().without_communication()) {}

  void setup(Outcome& out) override {
    opt_.policy = "dmdas";
    const hs::TilePlan uniform =
        hs::TilePlan::uniform(kTuneTiles, hs::kPaperTileSize, 0);
    for (int i = 0; i < kWarmupCalls; ++i) {
      hs::partition::rollout_makespan_s(uniform, nocomm_, opt_.policy);
      ++out.attempted;
    }
  }

  double work_per_op() const override { return rollouts_; }

  std::vector<double> run_ops(double seconds, SpanLog* spans, int parent,
                              Outcome& out) override {
    std::vector<double> walls;
    const double end = now_s() + seconds;
    do {
      hs::partition::AutoTuneResult r;
      {
        SpanScope s(spans, "partition.auto_tune", parent);
        const double t0 = now_s();
        r = hs::partition::auto_tune(kTuneTiles, hs::kPaperTileSize, nocomm_,
                                     opt_);
        walls.push_back(now_s() - t0);
      }
      ++out.attempted;
      check(r, out);
    } while (now_s() < end);
    return walls;
  }

  void traced(double seconds, SpanLog& spans, int parent, Outcome& out,
              Metrics& m) override {
    const std::vector<double> calls =
        overhead_pair(*this, seconds, spans, parent, out, m);
    m["partition.rollouts"] = rollouts_;
    m["partition.rollouts_per_s"] = ratio(rollouts_, median(calls));
    m["partition.gain"] =
        1.0 - ratio(first_.makespan_s, first_.uniform_makespan_s);
  }

 private:
  /// Never worse than the best uniform plan, and the same plan every call.
  void check(const hs::partition::AutoTuneResult& r, Outcome& out) {
    if (rollouts_ == 0.0) {
      first_ = r;
      rollouts_ = r.rollouts;
    }
    if (!(r.makespan_s <= r.uniform_makespan_s))
      out.fail("auto_tune result worse than the best uniform plan");
    else if (!(r.plan == first_.plan) || r.makespan_s != first_.makespan_s)
      out.fail("auto_tune returned a different plan");
  }

  hs::Platform nocomm_;
  hs::partition::AutoTuneOptions opt_;
  hs::partition::AutoTuneResult first_;
  double rollouts_ = 0.0;
};

// ---- Common per-layer probes ----------------------------------------------

/// A fixed dependent scalar loop: it moves only when the host does, so a
/// shift flags machine drift rather than a code change. It does not see
/// contention on the vector units; the standalone kernel rates do.
double host_probe_us(unsigned seed) {
  std::vector<double> t;
  for (int r = 0; r < 11; ++r) {
    std::uint64_t x = seed + static_cast<std::uint64_t>(r);
    const double t0 = now_s();
    for (int i = 0; i < 1000000; ++i)
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    t.push_back((now_s() - t0) * 1e6);
    volatile std::uint64_t sink = x;
    (void)sink;
  }
  return median(t);
}

/// Standalone single-thread kernel calls at nb 64 and 384: median GFLOP/s.
void kernel_probe(bool smoke, SpanLog& spans, int parent, Metrics& m) {
  static const Kernel kKernels[4] = {Kernel::POTRF, Kernel::TRSM, Kernel::SYRK,
                                     Kernel::GEMM};
  static const char* kNames[4] = {"potrf", "trsm", "syrk", "gemm"};
  for (const int nb : {64, 384}) {
    // Deterministic operands: a well-conditioned lower factor and an SPD
    // tile with a dominant diagonal, so every call stays finite.
    const auto n = static_cast<std::size_t>(nb);
    std::vector<double> a(n * n), b(n * n), l(n * n, 0.0), spd(n * n), w;
    for (std::size_t i = 0; i < n * n; ++i) {
      a[i] = 0.25 + 1e-3 * static_cast<double>((i * 31 + 1) % 97);
      b[i] = 0.25 + 1e-3 * static_cast<double>((i * 31 + 2) % 97);
      spd[i] = a[i];
    }
    for (std::size_t j = 0; j < n; ++j) {
      spd[j * (n + 1)] = 2.0 * static_cast<double>(nb);
      l[j * (n + 1)] = 4.0;
      for (std::size_t i = j + 1; i < n; ++i) l[i + j * n] = 1e-3 * b[i];
    }
    const int reps = smoke ? 3 : (nb == 64 ? 200 : 20);
    for (int k = 0; k < 4; ++k) {
      const std::string name =
          std::string("kernels.") + kNames[k] + ".nb" + std::to_string(nb);
      std::vector<double> t;
      w = spd;
      for (int r = 0; r < reps; ++r) {
        if (kKernels[k] == Kernel::POTRF) w = spd;
        if (kKernels[k] == Kernel::TRSM) w = a;
        SpanScope s(&spans, name, parent);
        const double t0 = now_s();
        switch (kKernels[k]) {
          case Kernel::POTRF:
            hs::kernels::potrf(nb, w.data(), nb);
            break;
          case Kernel::TRSM:
            hs::kernels::trsm(nb, l.data(), nb, w.data(), nb);
            break;
          case Kernel::SYRK:
            hs::kernels::syrk(nb, a.data(), nb, w.data(), nb);
            break;
          default:
            hs::kernels::gemm(nb, a.data(), nb, b.data(), nb, w.data(), nb);
            break;
        }
        t.push_back(now_s() - t0);
      }
      m[name + ".gflops"] =
          ratio(hs::kernel_flops(kKernels[k], nb) * 1e-9, median(t));
    }
  }
}

// ---- Main ------------------------------------------------------------------

const char* const kWorkloadNames[] = {"chol-nb64", "chol-nb384", "chol-plan",
                                      "serve-mixed", "sim-paper", "tune-plan"};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        unsigned seed) {
  if (name == "chol-nb64")
    return std::make_unique<CholWorkload>(24, 64, false, seed);
  if (name == "chol-nb384")
    return std::make_unique<CholWorkload>(10, 384, false, seed);
  if (name == "chol-plan")
    return std::make_unique<CholWorkload>(8, 256, true, seed);
  if (name == "serve-mixed") return std::make_unique<ServeWorkload>(seed);
  if (name == "sim-paper") return std::make_unique<SimWorkload>(seed);
  if (name == "tune-plan") return std::make_unique<TuneWorkload>();
  return nullptr;
}

struct Args {
  std::string workload;
  unsigned seed = 1;
  double seconds = kDefaultSeconds;
  bool traced = false;
  bool smoke = false;
  std::string out;
};

struct Result {
  std::string workload;
  bool traced = false;
  Outcome outcome;
  Metrics metrics;
};

/// One pass over workload `name`: end-to-end when `spans` is null, else
/// traced with its spans recorded there.
Result run_workload(const std::string& name, const Args& args, double seconds,
                    SpanLog* spans) {
  const bool traced = spans != nullptr;
  Result res;
  res.workload = name;
  res.traced = traced;
  Outcome& out = res.outcome;
  try {
    std::unique_ptr<Workload> w;
    if (!traced) {
      // A fixed count: every extra set-up changes the process state (heap,
      // pack cache) the measured operations then run in.
      std::vector<double> setup;
      for (int r = 0; r < kSetupReps; ++r) {
        w.reset();
        const double t0 = now_s();
        w = make_workload(name, args.seed);
        w->setup(out);
        setup.push_back(now_s() - t0);
      }
      res.metrics["setup_s"] = median(setup);
      w->end_to_end(seconds, out, res.metrics);
    } else {
      // Metrics of layers this workload does not call stay 0.
      for (const MetricDef& d : kPerLayer) res.metrics[d.name] = 0.0;
      const double probe_before = host_probe_us(args.seed);
      const int root = spans->open("bench." + name, -1);
      // Standalone kernel rates first, before the workload loads the cores.
      kernel_probe(args.smoke, *spans, root, res.metrics);
      w = make_workload(name, args.seed);
      w->setup(out);
      w->traced(seconds, *spans, root, out, res.metrics);
      spans->close(root);
      res.metrics["obs.spans"] = static_cast<double>(spans->size());
      res.metrics["host.probe_us"] =
          0.5 * (probe_before + host_probe_us(args.seed));
    }
  } catch (const std::exception& e) {
    out.fail(std::string("exception: ") + e.what());
  }
  if (out.attempted == 0) out.attempted = 1;
  // Every declared metric is present and finite; end-to-end ones positive.
  const std::span<const MetricDef> declared =
      traced ? std::span<const MetricDef>(kPerLayer)
             : std::span<const MetricDef>(kEndToEnd);
  for (const MetricDef& d : declared) {
    auto it = res.metrics.find(d.name);
    if (it == res.metrics.end()) {
      out.fail(std::string("metric missing: ") + d.name);
      res.metrics[d.name] = 0.0;
    } else if (!std::isfinite(it->second) || (!traced && it->second <= 0.0)) {
      out.fail(std::string("metric not measured: ") + d.name);
      it->second = 0.0;
    }
  }
  return res;
}

const char* unit_of(const std::string& name) {
  for (const MetricDef& d : kEndToEnd)
    if (name == d.name) return d.unit;
  for (const MetricDef& d : kPerLayer)
    if (name == d.name) return d.unit;
  return "";
}

std::string result_json(const Result& r) {
  std::string s = "{\"correct\": ";
  s += r.outcome.failed == 0 ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(r.outcome.attempted);
  s += ", \"failed\": " + std::to_string(r.outcome.failed);
  s += ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& [name, value] : r.metrics) {
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    s += (first ? "\"" : ", \"") + name + "\": {\"value\": " + buf +
         ", \"unit\": \"" + unit_of(name) + "\"}";
    first = false;
  }
  s += "}}";
  return s;
}

void print_table(const Result& r) {
  std::printf("# %s (%s pass): attempted %lld, failed %lld\n",
              r.workload.c_str(), r.traced ? "traced" : "end-to-end",
              static_cast<long long>(r.outcome.attempted),
              static_cast<long long>(r.outcome.failed));
  for (const std::string& e : r.outcome.errors)
    std::printf("#   FAILED: %s\n", e.c_str());
  for (const auto& [name, value] : r.metrics)
    std::printf("%-32s %16.6f %s\n", name.c_str(), value, unit_of(name));
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&arg](const char* flag) -> const char* {
      const std::size_t n = std::strlen(flag);
      return arg.compare(0, n, flag) == 0 ? arg.c_str() + n : nullptr;
    };
    try {
      if (const char* v = value("--workload=")) {
        a.workload = v;
        if (std::find(std::begin(kWorkloadNames), std::end(kWorkloadNames),
                      a.workload) == std::end(kWorkloadNames))
          return false;
      } else if (const char* s = value("--seed=")) {
        a.seed = static_cast<unsigned>(std::stoul(s));
      } else if (const char* t = value("--seconds=")) {
        a.seconds = std::stod(t);
        if (!(a.seconds > 0.0 && a.seconds <= 60.0)) return false;
      } else if (const char* o = value("--out=")) {
        a.out = o;
      } else if (arg == "--traced") {
        a.traced = true;
      } else if (arg == "--smoke") {
        a.smoke = true;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: hetsched_bench [--workload=NAME] [--seed=S] "
                 "[--seconds=T] [--traced] [--smoke] [--out=FILE]\n"
                 "workloads: chol-nb64 chol-nb384 chol-plan serve-mixed "
                 "sim-paper tune-plan\n");
    return 2;
  }
  std::vector<std::string> workloads;
  if (args.workload.empty())
    workloads.assign(std::begin(kWorkloadNames), std::end(kWorkloadNames));
  else
    workloads.push_back(args.workload);
  const double seconds = args.smoke ? kSmokeSeconds : args.seconds;
  std::vector<bool> passes;
  if (args.smoke) passes = {false, true};
  else passes = {args.traced};

  std::printf("# hetsched_bench seed=%u seconds=%g tier=%s threads=%u\n",
              args.seed, seconds,
              hs::kernels::tier_name(hs::kernels::engine_tier()),
              std::thread::hardware_concurrency());
  std::vector<Result> results;
  bool spans_written = false;
  bool ok = true;
  for (const std::string& name : workloads) {
    for (const bool traced : passes) {
      SpanLog local;
      results.push_back(
          run_workload(name, args, seconds, traced ? &local : nullptr));
      print_table(results.back());
      std::printf("%s\n", result_json(results.back()).c_str());
      std::fflush(stdout);
      ok = ok && results.back().outcome.failed == 0;
      if (traced && !args.out.empty()) {
        if (!local.write_jsonl(args.out + ".spans.jsonl", name,
                               spans_written)) {
          std::fprintf(stderr, "hetsched_bench: cannot write spans\n");
          ok = false;
        }
        spans_written = true;
      }
    }
  }
  if (!args.out.empty()) {
    std::FILE* f = std::fopen(args.out.c_str(), "w");
    bool wrote = f != nullptr;
    if (f) {
      std::fputs("{", f);
      for (std::size_t i = 0; i < results.size(); ++i)
        std::fprintf(f, "%s\"%s%s\": %s", i ? ",\n " : "\n ",
                     results[i].workload.c_str(),
                     results[i].traced ? "/traced" : "",
                     result_json(results[i]).c_str());
      std::fputs("\n}\n", f);
      wrote = std::fclose(f) == 0;
    }
    if (!wrote) {
      std::fprintf(stderr, "hetsched_bench: cannot write %s\n",
                   args.out.c_str());
      ok = false;
    }
  }
  return ok ? 0 : 1;
}

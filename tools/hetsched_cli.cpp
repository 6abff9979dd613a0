// hetsched_cli -- run the paper's experiments from the command line.
//
//   hetsched_cli bounds   --algo=cholesky|lu|qr --tiles=N [--integral]
//                         [--platform=mirage|related|homogeneous] [--prefix]
//   hetsched_cli simulate --algo=... --tiles=N
//                         --sched=SPEC (a SchedulerRegistry spec: a policy
//                         name, optionally with options, e.g.
//                         "hybrid:static_fraction=0.6"; --policy is an
//                         alias; --policy help lists the registered names)
//                         [--no-comm] [--trsm-cpu-k=K] [--gemm-syrk-gpu]
//                         [--overhead=SECONDS] [--noise=CV] [--seed=S]
//                         [--memory-tiles=M] [--trace] [--bounds=LIST]
//                         [--trace-stream=FILE] [--metrics-interval=S]
//   hetsched_cli exec     --tiles=N [--nb=B] [--threads=T] [--seed=S]
//                         [--kernel-tier=generic|avx2] [--deadline-ms=D]
//                         [--trace] [--json] [--bounds=LIST]
//   hetsched_cli submit   --socket=PATH [--count=N] [--tiles=N] [--nb=B]
//                         [--seed=S] [--priority=P] [--deadline-ms=D]
//                         [--wait] [--metrics] [--drain] [--ping]
//   hetsched_cli solve    --tiles=N [--budget=SECONDS] [--inject]
//   hetsched_cli sweep    --algo=... --sched=... [--no-comm] [--max-tiles=N]
//                         [--bounds=LIST] [--csv|--json]
//   hetsched_cli faults   --tiles=N --sched=...
//                         [--kill-worker=W --kill-at=T] [--slow-worker=W
//                         --slow-from=T --slow-until=T --slow-factor=F]
//                         [--fail-prob=P] [--retries=R] [--potrf-fail-k=K]
//                         [--seed=S] [--emulate [--time-scale=X]] [--trace]
//                         [--json] [--trace-stream=FILE]
//                         [--metrics-interval=S] [--deadline-ms=D]
//
// Every command prints a short human-readable report (or machine-readable
// JSON where --json is accepted); `hetsched_cli --help` lists the commands
// and exit codes. Exit code 0 on success, 2 on bad usage (including a
// numeric flag that is not a whole, in-range, finite number), and for a
// failed run the code of its RunReport::error_kind: 3 if the scheduling
// policy starved ready tasks, 4 on a numeric (non-SPD) failure, 5 on an
// unrecoverable injected fault, 6 when the run was cancelled or its
// --deadline-ms elapsed.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "flag_values.hpp"
#include "hetsched.hpp"

namespace hetsched::tools {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "error: %s\n", why);
  std::fprintf(stderr,
               "usage: hetsched_cli bounds|simulate|solve|sweep|faults|exec|submit [--key=value ...]\n"
               "       (run `hetsched_cli --help` for details)\n");
  std::exit(2);
}

}  // namespace hetsched::tools

namespace {

using namespace hetsched;
using tools::int_flag;
using tools::real_flag;
using tools::usage;

struct Args {
  std::string command;
  std::string algo = "cholesky";
  std::string sched = "dmdas";
  std::string platform = "mirage";
  int tiles = 8;
  int max_tiles = 32;
  bool integral = false;
  bool prefix = false;
  bool no_comm = false;
  bool gemm_syrk_gpu = false;
  bool trace = false;
  bool inject = false;
  bool csv = false;
  bool json = false;
  int trsm_cpu_k = 0;
  int memory_tiles = 0;
  double overhead = 0.0;
  double noise = 0.0;
  double budget = 2.0;
  unsigned seed = 0;
  // Fault injection (the `faults` command).
  int kill_worker = -1;
  double kill_at = 0.0;
  int slow_worker = -1;
  double slow_from = 0.0;
  double slow_until = 0.0;
  double slow_factor = 2.0;
  double fail_prob = 0.0;
  int retries = 3;
  int potrf_fail_k = -1;
  bool emulate = false;
  double time_scale = 1.0;
  // Streaming observability (simulate and faults).
  std::string trace_stream;       ///< JSONL event stream destination
  double metrics_interval = 0.0;  ///< live metrics line period, seconds
  // Bound-model registry names, comma-separated (simulate / sweep / exec).
  std::string bounds_list;
  // Variable tile-size partitioning (simulate / exec, cholesky only):
  // "auto" (partition::auto_tune), "uniform:NB" (every cell split until
  // the subtile side is NB), or a TilePlan text file path.
  std::string tile_plan;
  // Real execution (the `exec` command) and kernel knobs.
  int threads = 4;
  int nb = 256;
  std::string kernel_tier;  ///< "" (auto) | "generic" | "avx2"
  // Cooperative deadline (exec / faults): abort at a task boundary after
  // this many wall-clock milliseconds (0 = none). Exit code 6 when it fires.
  double deadline_ms = 0.0;
  // Serving client (the `submit` command).
  std::string socket_path;  ///< hetsched_serve Unix socket
  int count = 1;            ///< jobs to submit
  int priority = 0;         ///< admission priority of submitted jobs
  bool wait = false;        ///< block until every submitted job is terminal
  bool metrics = false;     ///< fetch the server metrics JSON
  bool drain = false;       ///< ask the server to drain
  bool ping = false;        ///< liveness probe only
};

[[noreturn]] void help() {
  std::printf(
      "usage: hetsched_cli COMMAND [--key=value ...]\n"
      "\n"
      "commands:\n"
      "  bounds    critical-path / area / mixed lower bounds of a DAG\n"
      "  simulate  one discrete-event simulation under a policy\n"
      "  solve     CP-SAT static schedule (optionally replayed in the\n"
      "            simulator with --inject)\n"
      "  sweep     simulate sizes 1..--max-tiles and tabulate GFLOP/s\n"
      "            against the mixed bound (--csv / --json for machines)\n"
      "  faults    run under an injected fault plan; --emulate runs the\n"
      "            wall-clock emulation backend instead of the simulator;\n"
      "            --json emits the report as JSON\n"
      "  exec      factorize a random SPD tiled matrix for real on a\n"
      "            thread pool (the compute backend) and report wall-clock\n"
      "            GFLOP/s\n"
      "  submit    client of a running hetsched_serve daemon: submit jobs\n"
      "            over its Unix socket (--socket=PATH), optionally --wait\n"
      "            for results, fetch --metrics, ask it to --drain or\n"
      "            --ping it (see docs/serving.md)\n"
      "\n"
      "exec flags: --tiles=N --nb=B --threads=T --seed=S --trace --json\n"
      "  --deadline-ms=D          abort cooperatively once D ms of wall\n"
      "                           clock elapse (exit code 6); also accepted\n"
      "                           by `faults`\n"
      "  --kernel-tier=generic|avx2  force the micro-kernel tier (default:\n"
      "                           best supported, or HETSCHED_KERNEL_TIER)\n"
      "\n"
      "common flags: --algo=cholesky|lu|qr --tiles=N\n"
      "  --sched=SPEC (alias --policy): a SchedulerRegistry spec, i.e. a\n"
      "                       policy name optionally followed by\n"
      "                       :key=value,... options, e.g.\n"
      "                       hybrid:static_fraction=0.6,steal_static=on;\n"
      "                       registered policies: %s\n"
      "                       (--policy help describes each)\n"
      "  --platform=mirage|related|homogeneous --no-comm --seed=S --trace\n"
      "  --tile-plan=auto|uniform:NB|FILE  variable tile-size partition\n"
      "                       (cholesky only): auto-tune a quadtree split\n"
      "                       plan, split uniformly to subtile side NB, or\n"
      "                       load a TilePlan text file (simulate / exec)\n"
      "  --trace-stream=FILE  stream events as JSONL while running\n"
      "  --metrics-interval=S live aggregate metrics on stderr every S s\n"
      "  --bounds=LIST        comma-separated bound models to report the\n"
      "                       makespan ratio against (simulate/sweep/exec);\n"
      "                       registered models: %s\n"
      "(see the header of tools/hetsched_cli.cpp for the full per-command\n"
      "flag list)\n"
      "\n"
      "exit codes:\n"
      "  0  success\n"
      "  2  bad usage (unknown command/flag/value)\n"
      "  3  scheduler starvation: the policy held back ready tasks until\n"
      "     no progress was possible\n"
      "  4  numeric failure: a tile factorization hit a non-SPD pivot\n"
      "  5  unrecoverable injected fault: every worker died, a task\n"
      "     exhausted its retry budget or a lost tile could not be rebuilt\n"
      "  6  cancelled: the run's --deadline-ms elapsed (or a submitted\n"
      "     job came back cancelled / deadline-exceeded under --wait)\n",
      sched::scheduler_names_joined(',').c_str(),
      bounds::bound_model_names_joined(',').c_str());
  std::exit(0);
}

/// `--name=v` as an int >= lo.
int int_arg(const char* name, const std::string& v, int lo) {
  return static_cast<int>(
      int_flag(name, v, lo, std::numeric_limits<int>::max()));
}

bool parse_flag(const std::string& arg, const char* name, std::string* out) {
  const std::string prefix = std::string("--") + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *out = arg.substr(prefix.size());
  return true;
}

/// --bounds=mixed,alap -> {"mixed", "alap"}. Names are validated by the
/// registry lookup at evaluation time; an unknown one throws the
/// std::invalid_argument that main() maps to exit code 2.
std::vector<std::string> split_bounds(const std::string& list) {
  std::vector<std::string> out;
  std::string cur;
  for (const char c : list) {
    if (c == ',') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

Args parse(int argc, char** argv) {
  if (argc < 2) usage("missing command");
  Args a;
  a.command = argv[1];
  if (a.command == "--help" || a.command == "help") help();
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string v;
    if (parse_flag(arg, "algo", &v)) a.algo = v;
    else if (parse_flag(arg, "sched", &v)) a.sched = v;
    else if (parse_flag(arg, "policy", &v)) a.sched = v;
    else if (arg == "--sched" || arg == "--policy") {
      // Two-token form, mostly for the documented `--policy help`.
      if (i + 1 >= argc) usage((arg + " needs a value").c_str());
      a.sched = argv[++i];
    }
    else if (parse_flag(arg, "platform", &v)) a.platform = v;
    else if (parse_flag(arg, "tiles", &v))
      a.tiles = int_arg("tiles", v, 1);
    else if (parse_flag(arg, "max-tiles", &v))
      a.max_tiles = int_arg("max-tiles", v, 1);
    else if (parse_flag(arg, "trsm-cpu-k", &v))
      a.trsm_cpu_k = int_arg("trsm-cpu-k", v, 0);
    else if (parse_flag(arg, "memory-tiles", &v))
      a.memory_tiles = int_arg("memory-tiles", v, 0);
    else if (parse_flag(arg, "overhead", &v))
      a.overhead = real_flag("overhead", v);
    else if (parse_flag(arg, "noise", &v)) a.noise = real_flag("noise", v);
    else if (parse_flag(arg, "budget", &v)) a.budget = real_flag("budget", v);
    else if (parse_flag(arg, "seed", &v))
      a.seed = static_cast<unsigned>(
          int_flag("seed", v, 0, std::numeric_limits<unsigned>::max()));
    else if (parse_flag(arg, "kill-worker", &v))
      a.kill_worker = int_arg("kill-worker", v, 0);
    else if (parse_flag(arg, "kill-at", &v))
      a.kill_at = real_flag("kill-at", v);
    else if (parse_flag(arg, "slow-worker", &v))
      a.slow_worker = int_arg("slow-worker", v, 0);
    else if (parse_flag(arg, "slow-from", &v))
      a.slow_from = real_flag("slow-from", v);
    else if (parse_flag(arg, "slow-until", &v))
      a.slow_until = real_flag("slow-until", v);
    else if (parse_flag(arg, "slow-factor", &v))
      a.slow_factor = real_flag("slow-factor", v);
    else if (parse_flag(arg, "fail-prob", &v))
      a.fail_prob = real_flag("fail-prob", v);
    else if (parse_flag(arg, "retries", &v))
      a.retries = int_arg("retries", v, 0);
    else if (parse_flag(arg, "potrf-fail-k", &v))
      a.potrf_fail_k = int_arg("potrf-fail-k", v, 0);
    else if (parse_flag(arg, "time-scale", &v))
      a.time_scale = real_flag("time-scale", v);
    else if (parse_flag(arg, "threads", &v))
      a.threads = int_arg("threads", v, 1);
    else if (parse_flag(arg, "nb", &v)) a.nb = int_arg("nb", v, 1);
    else if (parse_flag(arg, "tile-plan", &v)) a.tile_plan = v;
    else if (parse_flag(arg, "kernel-tier", &v)) a.kernel_tier = v;
    else if (parse_flag(arg, "trace-stream", &v)) a.trace_stream = v;
    else if (parse_flag(arg, "bounds", &v)) a.bounds_list = v;
    else if (parse_flag(arg, "metrics-interval", &v))
      a.metrics_interval = real_flag("metrics-interval", v);
    else if (parse_flag(arg, "deadline-ms", &v))
      a.deadline_ms = real_flag("deadline-ms", v);
    else if (parse_flag(arg, "socket", &v)) a.socket_path = v;
    else if (parse_flag(arg, "count", &v)) a.count = int_arg("count", v, 1);
    else if (parse_flag(arg, "priority", &v))
      a.priority = int_arg("priority", v, std::numeric_limits<int>::min());
    else if (arg == "--wait") a.wait = true;
    else if (arg == "--metrics") a.metrics = true;
    else if (arg == "--drain") a.drain = true;
    else if (arg == "--ping") a.ping = true;
    else if (arg == "--emulate") a.emulate = true;
    else if (arg == "--integral") a.integral = true;
    else if (arg == "--prefix") a.prefix = true;
    else if (arg == "--no-comm") a.no_comm = true;
    else if (arg == "--gemm-syrk-gpu") a.gemm_syrk_gpu = true;
    else if (arg == "--trace") a.trace = true;
    else if (arg == "--inject") a.inject = true;
    else if (arg == "--csv") a.csv = true;
    else if (arg == "--json") a.json = true;
    else if (arg == "--help") help();
    else usage(("unknown option " + arg).c_str());
  }
  if (a.sched == "help" || a.sched == "list") {
    // `--policy help`: the registry's own catalog, names + descriptions.
    std::fputs(sched::scheduler_help_text().c_str(), stdout);
    std::exit(0);
  }
  return a;
}

/// --kernel-tier=generic|avx2 (an unsupported avx2 request falls back to
/// generic inside set_engine_tier, matching the env-var behaviour).
void apply_kernel_tier(const Args& a) {
  if (a.kernel_tier.empty()) return;
  if (a.kernel_tier == "generic")
    kernels::set_engine_tier(kernels::Tier::kGeneric);
  else if (a.kernel_tier == "avx2")
    kernels::set_engine_tier(kernels::Tier::kAvx2);
  else
    usage("unknown --kernel-tier (generic|avx2)");
}

TaskGraph build_graph(const Args& a, int n) {
  if (a.algo == "cholesky") return build_cholesky_dag(n);
  if (a.algo == "lu") return build_lu_dag(n);
  if (a.algo == "qr") return build_qr_dag(n);
  usage("unknown --algo (cholesky|lu|qr)");
}

/// --tile-plan=auto|uniform:NB|FILE -> a validated TilePlan for a.tiles x
/// base_nb. "auto" runs the partition auto-tuner against `p` (rollout
/// policy = --sched, a registry spec) and reports what it found on
/// stderr; "uniform:NB" splits every cell until the subtile side is NB;
/// anything else is read as a TilePlan text file.
TilePlan resolve_tile_plan(const Args& a, int base_nb, const Platform& p) {
  if (a.algo != "cholesky")
    usage("--tile-plan applies to --algo=cholesky only");
  if (a.tile_plan == "auto") {
    partition::AutoTuneOptions topt;
    topt.policy = a.sched;
    const partition::AutoTuneResult r =
        partition::auto_tune(a.tiles, base_nb, p, topt);
    std::fprintf(stderr,
                 "auto-tuned partition: simulated %.4f s (best uniform "
                 "%.4f s at level %d; %d rollouts, %d rounds)\n",
                 r.makespan_s, r.uniform_makespan_s, r.uniform_level,
                 r.rollouts, r.rounds);
    return r.plan;
  }
  if (a.tile_plan.rfind("uniform:", 0) == 0) {
    const int want = int_arg("tile-plan=uniform:", a.tile_plan.substr(8), 1);
    for (int l = 0; l <= kMaxTileSplitLevel; ++l)
      if ((base_nb >> l) == want && base_nb % (1 << l) == 0)
        return TilePlan::uniform(a.tiles, base_nb, l);
    usage("--tile-plan=uniform:NB needs NB = tile size halved at most "
          "3 times");
  }
  std::FILE* f = std::fopen(a.tile_plan.c_str(), "rb");
  if (f == nullptr)
    usage(("--tile-plan: cannot open " + a.tile_plan).c_str());
  std::string text;
  char buf[4096];
  for (std::size_t got; (got = std::fread(buf, 1, sizeof buf, f)) > 0;)
    text.append(buf, got);
  std::fclose(f);
  TilePlan plan = TilePlan::from_text(text);
  if (plan.n_tiles != a.tiles || plan.base_nb != base_nb)
    usage(("--tile-plan file is for " + std::to_string(plan.n_tiles) +
           " tiles of " + std::to_string(plan.base_nb) + ", run wants " +
           std::to_string(a.tiles) + " of " + std::to_string(base_nb))
              .c_str());
  return plan;
}

double algo_gflops(const Args& a, int n, int nb, double seconds) {
  if (a.algo == "lu") return lu_gflops(n, nb, seconds);
  if (a.algo == "qr") return qr_gflops(n, nb, seconds);
  return gflops(n, nb, seconds);
}

AreaBoundSolution algo_area(const Args& a, int n, const Platform& p) {
  if (a.algo == "lu") return area_bound_for(lu_histogram(n), p, a.integral);
  if (a.algo == "qr") return area_bound_for(qr_histogram(n), p, a.integral);
  return area_bound(n, p, a.integral);
}

AreaBoundSolution algo_mixed(const Args& a, int n, const Platform& p) {
  if (a.algo == "lu") return lu_mixed_bound(n, p, a.integral);
  if (a.algo == "qr") return qr_mixed_bound(n, p, a.integral);
  return mixed_bound(n, p, a.integral);
}

Platform build_platform(const Args& a, int n) {
  Platform p = a.platform == "related" ? mirage_related_platform(n)
               : a.platform == "homogeneous" ? homogeneous_platform(9)
               : a.platform == "mirage" ? mirage_platform()
                                        : (usage("unknown --platform"), mirage_platform());
  return a.no_comm ? p.without_communication() : p;
}

std::unique_ptr<Scheduler> build_scheduler(const Args& a, const TaskGraph& g,
                                           const Platform& p) {
  WorkerFilter filter = hints::none();
  if (a.trsm_cpu_k > 0)
    filter = hints::combine(
        filter, hints::force_trsm_distance_to_class(a.trsm_cpu_k,
                                                    p.class_index("CPU")));
  if (a.gemm_syrk_gpu) {
    const int gpu = p.class_index("GPU");
    if (gpu < 0) usage("--gemm-syrk-gpu needs a platform with GPUs");
    filter = hints::combine(
        hints::combine(filter, hints::force_kernel_to_class(Kernel::GEMM, gpu)),
        hints::force_kernel_to_class(Kernel::SYRK, gpu));
  }
  try {
    return sched::make_scheduler(a.sched, g, p, a.seed, std::move(filter));
  } catch (const std::invalid_argument& e) {
    // The registry error already lists the registered names / valid
    // option keys.
    usage(e.what());
  }
}

/// "sched stats: steals=12 static_pool_hits=40 ..." or nothing when the
/// policy reported no counters.
void print_scheduler_stats(const RunReport& r) {
  if (r.scheduler_stats.empty()) return;
  std::printf("sched stats:");
  for (const auto& [key, value] : r.scheduler_stats)
    std::printf(" %s=%lld", key.c_str(), static_cast<long long>(value));
  std::printf("\n");
}

// Streaming attachments of one run: a JSONL sink for --trace-stream, a
// metrics aggregator for --metrics-interval (live stderr lines) and for
// the faults --json report (whose fault totals come from the aggregated
// event stream). Build one, pass &streamer through RunOptions::stream.
struct Streaming {
  // `force_metrics` attaches the aggregator even without an interval
  // (quiet aggregation for the JSON report).
  Streaming(const Args& a, const Platform& p, double bound_s,
            bool force_metrics)
      : label(a.trace_stream.empty() ? "metrics" : a.trace_stream) {
    if (!a.trace_stream.empty()) {
      auto jsonl = std::make_unique<obs::JsonlSink>(a.trace_stream);
      if (!jsonl->ok())
        throw std::invalid_argument("--trace-stream: cannot open " +
                                    a.trace_stream);
      streamer.add_owned_sink(std::move(jsonl));
      used = true;
    }
    if (a.metrics_interval > 0.0 || force_metrics) {
      metrics.configure(p);
      metrics.set_reference_bound(bound_s);
      if (a.metrics_interval > 0.0)
        metrics.set_report(stderr, a.metrics_interval);
      streamer.add_sink(&metrics);
      used = true;
    }
  }

  obs::TraceStreamer* stream() { return used ? &streamer : nullptr; }

  void report_drops(const RunReport& r) const {
    if (!used) return;
    std::printf("streamed %llu events to %s (%lld dropped)\n",
                static_cast<unsigned long long>(streamer.delivered_events()),
                label.c_str(), static_cast<long long>(r.dropped_events));
  }

  obs::TraceStreamer streamer;
  obs::MetricsAggregator metrics;
  bool used = false;
  std::string label;
};

// A failed run: its error on stderr and the exit code of its kind (the
// --help text): 3 scheduler starvation, 4 numeric, 6 cancelled / deadline,
// 5 the rest.
int failure_exit_code(const RunReport& r) {
  std::fprintf(stderr, "%s run failed: %s\n", r.backend.c_str(),
               r.error.c_str());
  switch (r.error_kind) {
    case RunErrorKind::Scheduler: return 3;
    case RunErrorKind::Numeric: return 4;
    case RunErrorKind::Cancelled:
    case RunErrorKind::DeadlineExceeded: return 6;
    default: return 5;
  }
}

int cmd_bounds(const Args& a) {
  const Platform p = build_platform(a, a.tiles);
  const TaskGraph g = build_graph(a, a.tiles);
  const int nb = p.nb();
  std::printf("bounds for %s, %dx%d tiles of %d on %s%s:\n", a.algo.c_str(),
              a.tiles, a.tiles, nb, p.name().c_str(),
              a.integral ? " (integral)" : "");
  const double cp = critical_path_seconds(g, p.timings());
  const double area = algo_area(a, a.tiles, p).makespan_s;
  const double mixed = algo_mixed(a, a.tiles, p).makespan_s;
  std::printf("  critical path : %10.4f s  (%8.1f GFLOP/s)\n", cp,
              algo_gflops(a, a.tiles, nb, cp));
  std::printf("  area bound    : %10.4f s  (%8.1f GFLOP/s)\n", area,
              algo_gflops(a, a.tiles, nb, area));
  std::printf("  mixed bound   : %10.4f s  (%8.1f GFLOP/s)\n", mixed,
              algo_gflops(a, a.tiles, nb, mixed));
  if (a.prefix && a.algo == "cholesky") {
    const double pre = prefix_bound(a.tiles, p);
    std::printf("  prefix bound  : %10.4f s  (%8.1f GFLOP/s)\n", pre,
                algo_gflops(a, a.tiles, nb, pre));
  }
  std::printf("  gemm peak     : %8.1f GFLOP/s\n", gemm_peak_gflops(p));
  return 0;
}

int cmd_simulate(const Args& a) {
  const Platform p = build_platform(a, a.tiles);
  const TaskGraph g =
      a.tile_plan.empty()
          ? build_graph(a, a.tiles)
          : build_cholesky_dag_plan(resolve_tile_plan(a, p.nb(), p));
  auto sched = build_scheduler(a, g, p);
  RunOptions opt;
  opt.per_task_overhead_s = a.overhead;
  opt.noise_cv = a.noise;
  opt.noise_seed = a.seed;
  if (a.memory_tiles > 0)
    opt.accel_memory_bytes = static_cast<std::size_t>(a.memory_tiles) *
                             static_cast<std::size_t>(p.nb()) *
                             static_cast<std::size_t>(p.nb()) * sizeof(double);
  // Mixed-nb graphs price their bound from the actual task set (the
  // closed-form yardstick assumes one uniform tile size).
  const double bound = a.tile_plan.empty()
                           ? algo_mixed(a, a.tiles, p).makespan_s
                           : bounds::evaluate_bound_s("mixed", g, p);
  // --bounds=LIST: registry evaluation happens here (fail-fast on an
  // unknown name -> exit 2), the ratios land in RunReport::bound_ratios
  // via RunOptions::bound_models, and the same (name, seconds) pairs feed
  // the metrics stream so a --metrics-interval line shows every yardstick.
  opt.bound_models = split_bounds(a.bounds_list);
  std::vector<std::pair<std::string, double>> named;
  for (const std::string& m : opt.bound_models)
    named.emplace_back(m, bounds::evaluate_bound_s(m, g, p));
  Streaming streaming(a, p, bound, /*force_metrics=*/false);
  if (!named.empty()) streaming.metrics.set_reference_bounds(named);
  opt.stream = streaming.stream();
  const RunReport r = simulate(g, p, *sched, opt);
  if (!r.success) return failure_exit_code(r);
  std::printf("%s on %s (%s, %d tasks): makespan %.4f s = %.1f GFLOP/s\n",
              sched->name().c_str(), p.name().c_str(), a.algo.c_str(),
              g.num_tasks(), r.makespan_s,
              algo_gflops(a, a.tiles, p.nb(), r.makespan_s));
  std::printf("transfers: %lld hops, %.2f GB; evictions %lld, overflows %lld\n",
              static_cast<long long>(r.transfer_hops),
              r.bytes_transferred / 1e9, static_cast<long long>(r.evictions),
              static_cast<long long>(r.capacity_overflows));
  std::printf("mixed bound: %.4f s -> efficiency %.1f%%\n", bound,
              bound / r.makespan_s * 100.0);
  for (const auto& [name, bound_s] : named) {
    const auto it = r.bound_ratios.find(name);
    const double ratio = it != r.bound_ratios.end() ? it->second : 0.0;
    std::printf("bound[%s]: %.4f s -> ratio %.3f\n", name.c_str(), bound_s,
                ratio);
  }
  print_scheduler_stats(r);
  streaming.metrics.add_scheduler_stats(r.scheduler_stats);
  streaming.report_drops(r);
  if (a.trace) std::printf("%s", r.trace.ascii_gantt(100).c_str());
  return 0;
}

int cmd_solve(const Args& a) {
  if (a.algo != "cholesky")
    std::printf("note: solving the %s graph\n", a.algo.c_str());
  const Platform p = build_platform(a, a.tiles).without_communication();
  const TaskGraph g = build_graph(a, a.tiles);
  CpOptions opt;
  opt.time_limit_s = a.budget;
  opt.seed = a.seed;
  const CpResult res = cp_solve(g, p, opt);
  std::printf("static solve of %d tasks in %.1fs budget: makespan %.4f s "
              "(%.1f GFLOP/s), stage=%s%s\n",
              g.num_tasks(), a.budget, res.makespan_s,
              algo_gflops(a, a.tiles, p.nb(), res.makespan_s),
              res.winning_stage.c_str(),
              res.proven_optimal ? ", PROVEN OPTIMAL" : "");
  const std::string err = res.schedule.validate(g, p);
  std::printf("schedule validity: %s\n", err.empty() ? "OK" : err.c_str());
  if (a.inject) {
    FixedScheduleScheduler replay(res.schedule);
    const RunReport sim = simulate(g, p, replay);
    if (!sim.success) return failure_exit_code(sim);
    std::printf("injected into the simulator: %.4f s (%.2f%% of the CP "
                "value)\n",
                sim.makespan_s, sim.makespan_s / res.makespan_s * 100.0);
  }
  return err.empty() ? 0 : 1;
}

FaultPlan build_fault_plan(const Args& a) {
  FaultPlan plan;
  if (a.kill_worker >= 0) plan.deaths.push_back({a.kill_worker, a.kill_at});
  if (a.slow_worker >= 0)
    plan.slowdowns.push_back(
        {a.slow_worker, a.slow_from, a.slow_until, a.slow_factor});
  plan.transient_failure_prob = a.fail_prob;
  plan.potrf_fail_step = a.potrf_fail_k;
  plan.seed = a.seed;
  plan.retry.max_retries = a.retries;
  if (a.emulate) plan.watchdog_timeout_factor = 50.0;
  return plan;
}

void print_fault_stats(const FaultStats& f) {
  std::printf("faults: %lld deaths, %lld transient failures, %lld retries, "
              "%lld requeued\n",
              static_cast<long long>(f.worker_deaths),
              static_cast<long long>(f.transient_failures),
              static_cast<long long>(f.retries),
              static_cast<long long>(f.tasks_requeued));
  std::printf("        %lld slowdown hits, %lld watchdog timeouts, "
              "%lld sole-copy losses, %lld recomputations\n",
              static_cast<long long>(f.slowdown_hits),
              static_cast<long long>(f.watchdog_timeouts),
              static_cast<long long>(f.sole_copy_losses),
              static_cast<long long>(f.recomputations));
  std::printf("        recovery time %.4f s\n", f.recovery_time_s);
}

// Machine-readable faults report, one flat row in the shape of
// ExperimentTable::json ({"command": ..., "results": [{...}]}).
void print_faults_json(const Args& a, const std::string& sched_name,
                       double makespan, double wall_seconds,
                       const FaultStats& f, double healthy_bound,
                       std::int64_t dropped_events) {
  std::printf("{\n  \"command\": \"faults\",\n  \"results\": [\n");
  std::printf("    {\"sched\": \"%s\", \"algo\": \"%s\", \"tiles\": %d, "
              "\"mode\": \"%s\", ",
              sched_name.c_str(), a.algo.c_str(), a.tiles,
              a.emulate ? "emulate" : "sim");
  std::printf("\"makespan_s\": %.6f, \"wall_s\": %.6f, \"gflops\": %.3f, ",
              makespan, wall_seconds,
              algo_gflops(a, a.tiles, build_platform(a, a.tiles).nb(),
                          makespan));
  std::printf("\"mixed_bound_s\": %.6f, \"efficiency_pct\": %.2f, ",
              healthy_bound, healthy_bound / makespan * 100.0);
  std::printf("\"worker_deaths\": %lld, \"transient_failures\": %lld, "
              "\"retries\": %lld, \"tasks_requeued\": %lld, "
              "\"slowdown_hits\": %lld, \"watchdog_timeouts\": %lld, "
              "\"sole_copy_losses\": %lld, \"recomputations\": %lld, "
              "\"recovery_time_s\": %.6f, \"dropped_events\": %lld}\n",
              static_cast<long long>(f.worker_deaths),
              static_cast<long long>(f.transient_failures),
              static_cast<long long>(f.retries),
              static_cast<long long>(f.tasks_requeued),
              static_cast<long long>(f.slowdown_hits),
              static_cast<long long>(f.watchdog_timeouts),
              static_cast<long long>(f.sole_copy_losses),
              static_cast<long long>(f.recomputations), f.recovery_time_s,
              static_cast<long long>(dropped_events));
  std::printf("  ]\n}\n");
}

int cmd_faults(const Args& a) {
  const Platform p = build_platform(a, a.tiles);
  const TaskGraph g = build_graph(a, a.tiles);
  auto sched = build_scheduler(a, g, p);
  const FaultPlan plan = build_fault_plan(a);
  if (plan.empty() && !a.json)
    std::printf("note: empty fault plan -- this is a plain run\n");

  const double healthy = algo_mixed(a, a.tiles, p).makespan_s;
  // With --json the metrics aggregator is always attached: the report's
  // fault totals are read back from the aggregated event stream, so the
  // flat row and a streamed JSONL trace describe the same events.
  Streaming streaming(a, p, healthy, /*force_metrics=*/a.json);

  CancelToken deadline;
  if (a.deadline_ms > 0.0) deadline.set_deadline_after(a.deadline_ms / 1000.0);
  RunOptions opt;
  opt.record_trace = a.trace;
  opt.noise_seed = a.seed;
  opt.faults = plan;
  opt.stream = streaming.stream();
  if (a.deadline_ms > 0.0) opt.cancel = &deadline;
  const RunReport r =
      a.emulate ? emulate_with_scheduler(g, p, *sched, a.time_scale, opt)
                : simulate(g, p, *sched, opt);
  if (!r.success) return failure_exit_code(r);
  const double makespan = r.makespan_s;

  if (a.json) {
    // The aggregated stream is authoritative unless a ring overflowed (the
    // report's own counters are then the complete account).
    const FaultStats fstats = r.dropped_events == 0
                                  ? streaming.metrics.snapshot().faults
                                  : r.faults;
    print_faults_json(a, sched->name(), makespan, r.wall_seconds, fstats,
                      healthy, r.dropped_events);
    return 0;
  }
  if (a.emulate)
    std::printf("%s emulated on %s (%d tasks): makespan %.4f s "
                "(scaled from %.4f s wall)\n",
                sched->name().c_str(), p.name().c_str(), g.num_tasks(),
                makespan, r.wall_seconds);
  else
    std::printf("%s on %s (%d tasks): makespan %.4f s = %.1f GFLOP/s\n",
                sched->name().c_str(), p.name().c_str(), g.num_tasks(),
                makespan, algo_gflops(a, a.tiles, p.nb(), makespan));
  print_fault_stats(r.faults);
  print_scheduler_stats(r);
  streaming.report_drops(r);
  if (a.trace) std::printf("%s", r.trace.ascii_gantt(100).c_str());
  std::printf("mixed bound (healthy) : %.4f s -> efficiency %.1f%%\n",
              healthy, healthy / makespan * 100.0);
  if (a.kill_worker >= 0 && a.algo == "cholesky") {
    const std::vector<int> dead = {a.kill_worker};
    const double degraded = degraded_mixed_bound_s(a.tiles, p, dead);
    std::printf("mixed bound (degraded): %.4f s -> recovery quality %.1f%%\n",
                degraded, degraded_efficiency(a.tiles, p, dead, makespan) *
                              100.0);
  }
  return 0;
}

int cmd_exec(const Args& a) {
  if (a.algo != "cholesky")
    usage("exec runs the numeric Cholesky kernels (--algo=cholesky only)");
  apply_kernel_tier(a);
  TileMatrix m = TileMatrix::synthetic_spd(a.tiles, a.nb, a.seed);
  // --tile-plan: the plan is resolved against the measured local platform
  // (what the pool actually runs on); "auto" tunes its rollouts there too.
  const bool planned = !a.tile_plan.empty();
  TilePlan plan;
  if (planned)
    plan = resolve_tile_plan(a, a.nb,
                             measured_local_platform(a.threads, a.nb));
  const TaskGraph g =
      planned ? build_cholesky_dag_plan(plan) : build_cholesky_dag(a.tiles);
  // --bounds: yardsticks of the real run come from the measured local
  // platform (same thread count and tile size the pool executes with), not
  // the paper's modeled machine. Evaluated before the run so an unknown
  // model name exits 2 without burning compute time.
  std::vector<std::pair<std::string, double>> named;
  if (!a.bounds_list.empty()) {
    const Platform local = measured_local_platform(a.threads, a.nb);
    for (const std::string& bm : split_bounds(a.bounds_list))
      named.emplace_back(bm, bounds::evaluate_bound_s(bm, g, local));
  }
  CancelToken deadline;
  ExecOptions opt;
  opt.num_threads = a.threads;
  opt.record_trace = a.trace;
  if (a.deadline_ms > 0.0) {
    deadline.set_deadline_after(a.deadline_ms / 1000.0);
    opt.cancel = &deadline;
  }
  const RunReport r =
      planned ? execute_plan_parallel(m, plan, opt) : execute_parallel(m, g, opt);
  if (!r.success) return failure_exit_code(r);
  const double gf = gflops(a.tiles, a.nb, r.makespan_s);
  const char* tier = kernels::tier_name(kernels::engine_tier());
  // Flat "<model>_bound_s"/"<model>_ratio" pairs appended to the JSON row.
  std::string bound_fields;
  for (const auto& [bname, bound_s] : named) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  ", \"%s_bound_s\": %.6f, \"%s_ratio\": %.4f", bname.c_str(),
                  bound_s, bname.c_str(),
                  bound_s > 0.0 ? r.makespan_s / bound_s : 0.0);
    bound_fields += buf;
  }
  if (a.json) {
    std::printf("{\n  \"command\": \"exec\",\n  \"results\": [\n");
    std::printf("    {\"tiles\": %d, \"nb\": %d, \"threads\": %d, "
                "\"tier\": \"%s\", \"seconds\": %.6f, \"gflops\": %.3f%s}\n",
                a.tiles, a.nb, a.threads, tier, r.makespan_s, gf,
                bound_fields.c_str());
    std::printf("  ]\n}\n");
    return 0;
  }
  std::printf("cholesky %dx%d tiles of %d on %d threads (%s kernels): "
              "%.4f s = %.1f GFLOP/s\n",
              a.tiles, a.tiles, a.nb, a.threads, tier, r.makespan_s, gf);
  for (const auto& [bname, bound_s] : named)
    std::printf("bound[%s] (measured local platform): %.4f s -> ratio %.3f\n",
                bname.c_str(), bound_s,
                bound_s > 0.0 ? r.makespan_s / bound_s : 0.0);
  if (a.trace) std::printf("%s", r.trace.ascii_gantt(100).c_str());
  return 0;
}

// ---- `submit`: line-protocol client of the hetsched_serve daemon ----
// (protocol in docs/serving.md; the daemon lives in tools/hetsched_serve.)

// Connects to the daemon's Unix socket, retrying for ~5 s so scripted
// "start daemon & submit" sequences need no explicit readiness dance.
int connect_with_retry(const std::string& path) {
  for (int attempt = 0; attempt < 50; ++attempt) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0)
      return fd;
    ::close(fd);
    ::usleep(100 * 1000);
  }
  return -1;
}

bool send_line(int fd, const std::string& line) {
  const std::string msg = line + "\n";
  std::size_t off = 0;
  while (off < msg.size()) {
    const ssize_t n = ::write(fd, msg.data() + off, msg.size() - off);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

bool recv_line(int fd, std::string* line) {
  line->clear();
  char c = 0;
  for (;;) {
    const ssize_t n = ::read(fd, &c, 1);
    if (n <= 0) return false;
    if (c == '\n') return true;
    line->push_back(c);
  }
}

int cmd_submit(const Args& a) {
  if (a.socket_path.empty()) usage("submit needs --socket=PATH");
  const int fd = connect_with_retry(a.socket_path);
  if (fd < 0) {
    std::fprintf(stderr, "error: cannot connect to %s\n",
                 a.socket_path.c_str());
    return 1;
  }
  int worst = 0;
  std::string reply;
  const auto rpc = [&](const std::string& req) -> bool {
    if (send_line(fd, req) && recv_line(fd, &reply)) return true;
    std::fprintf(stderr, "error: connection lost talking to %s\n",
                 a.socket_path.c_str());
    return false;
  };
  if (a.ping) {
    if (!rpc("PING")) { ::close(fd); return 1; }
    std::printf("%s\n", reply.c_str());
    ::close(fd);
    return reply == "PONG" ? 0 : 1;
  }
  std::vector<int> ids;
  if (!a.metrics && !a.drain) {
    // Plain `submit` (no --metrics/--drain): push --count jobs.
    for (int i = 0; i < a.count; ++i) {
      char req[160];
      std::snprintf(req, sizeof req, "SUBMIT %d %d %u %d %.3f", a.tiles, a.nb,
                    a.seed + static_cast<unsigned>(i), a.priority,
                    a.deadline_ms);
      if (!rpc(req)) { ::close(fd); return 1; }
      int id = -1;
      if (std::sscanf(reply.c_str(), "OK %d", &id) == 1) {
        ids.push_back(id);
      } else {
        std::fprintf(stderr, "rejected: %s\n", reply.c_str());
        worst = std::max(worst, 1);
      }
    }
    std::printf("submitted %zu/%d job(s)\n", ids.size(), a.count);
  }
  if (a.wait) {
    for (const int id : ids) {
      if (!rpc("WAIT " + std::to_string(id))) { ::close(fd); return 1; }
      std::printf("%s\n", reply.c_str());
      // "DONE <id> <state> <attempts> <latency_ms> [error...]"
      char state[48] = {0};
      int rid = -1;
      if (std::sscanf(reply.c_str(), "DONE %d %47s", &rid, state) == 2) {
        const std::string s = state;
        if (s == "failed") worst = std::max(worst, 4);
        else if (s != "done") worst = std::max(worst, 6);
      } else {
        worst = std::max(worst, 1);
      }
    }
  }
  if (a.metrics) {
    if (!rpc("METRICS")) { ::close(fd); return 1; }
    std::printf("%s\n", reply.c_str());
  }
  if (a.drain) {
    if (!rpc("DRAIN")) { ::close(fd); return 1; }
    std::printf("%s\n", reply.c_str());
  }
  ::close(fd);
  return worst;
}

int cmd_sweep(const Args& a) {
  Experiment e;
  e.title = "sweep: " + a.algo + " / " + a.sched +
            (a.no_comm ? " (no comm)" : "");
  for (int n = 1; n <= a.max_tiles; n = n < 4 ? n + 1 : n + 4)
    e.sizes.push_back(n);
  e.graph = [&a](int n) { return build_graph(a, n); };
  e.platform = [&a](int n) { return build_platform(a, n); };

  // The makespan column builds the scheduler through the CLI's own factory
  // (seed + hint flags) rather than a plain policy series, so --seed and
  // --trsm-cpu-k keep their documented meaning.
  SeriesSpec makespan;
  makespan.name = "makespan";
  makespan.precision = 4;
  makespan.value = [&a](int /*n*/, const TaskGraph& g, const Platform& p,
                        const std::vector<ExperimentCell>&) {
    auto sched = build_scheduler(a, g, p);
    return simulate(g, p, *sched).makespan_s;
  };
  SeriesSpec gf;
  gf.name = "gflops";
  gf.value = [&a](int n, const TaskGraph&, const Platform& p,
                  const std::vector<ExperimentCell>& row) {
    return algo_gflops(a, n, p.nb(), row[0].mean);
  };
  SeriesSpec bound;
  bound.name = "mixed_bnd";
  bound.value = [&a](int n, const TaskGraph&, const Platform& p,
                     const std::vector<ExperimentCell>&) {
    return algo_gflops(a, n, p.nb(), algo_mixed(a, n, p).makespan_s);
  };
  SeriesSpec eff;
  eff.name = "efficiency_pct";
  eff.value = [](int, const TaskGraph&, const Platform&,
                 const std::vector<ExperimentCell>& row) {
    return row[1].mean / row[2].mean * 100.0;
  };
  e.series = {makespan, gf, bound, eff};

  // --bounds=LIST: two derived columns per registry model -- the bound in
  // the table's GFLOP/s unit and the makespan / bound ratio (>= 1 for a
  // valid lower bound; row[0] is the makespan column above).
  for (const std::string& bm : split_bounds(a.bounds_list)) {
    SeriesSpec bnd;
    bnd.name = bm + "_bnd";
    bnd.value = [&a, bm](int n, const TaskGraph& g, const Platform& p,
                         const std::vector<ExperimentCell>&) {
      return algo_gflops(a, n, p.nb(), bounds::evaluate_bound_s(bm, g, p));
    };
    SeriesSpec ratio;
    ratio.name = bm + "_ratio";
    ratio.precision = 3;
    ratio.value = [bm](int /*n*/, const TaskGraph& g, const Platform& p,
                       const std::vector<ExperimentCell>& row) {
      const double bound_s = bounds::evaluate_bound_s(bm, g, p);
      return bound_s > 0.0 ? row[0].mean / bound_s : 0.0;
    };
    e.series.push_back(bnd);
    e.series.push_back(ratio);
  }

  const ExperimentTable t = run_experiment(e);
  const std::string body = a.json ? t.json() : a.csv ? t.csv() : t.text();
  std::fputs(body.c_str(), stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  try {
    if (a.command == "bounds") return cmd_bounds(a);
    if (a.command == "simulate") return cmd_simulate(a);
    if (a.command == "solve") return cmd_solve(a);
    if (a.command == "sweep") return cmd_sweep(a);
    if (a.command == "faults") return cmd_faults(a);
    if (a.command == "exec") return cmd_exec(a);
    if (a.command == "submit") return cmd_submit(a);
  } catch (const std::invalid_argument& e) {
    // Bad fault plans and other rejected inputs (e.g. a kill-worker id
    // outside the platform) are usage errors, not crashes.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  usage(("unknown command " + a.command).c_str());
}

// Self-contained kernel benchmark runner emitting machine-readable JSON.
//
// CI runs this in the Release job and uploads the output as the
// BENCH_kernels.json artifact, so per-kernel GFLOP/s (reference loops vs
// the packed engine, see docs/kernels.md) are tracked per commit without
// needing google-benchmark's console output to be parsed.
//
// Usage: bench_to_json [--quick] [--serving] [--bounds] [--hybrid]
//                      [--partition] [--out=FILE]
//   --quick   small tiles + one repetition (used as a ctest smoke test)
//   --serving FactorizationServer batch-mode sweep (throughput and latency
//             per max_batch at small nb); CI uploads this output as
//             BENCH_serving.json
//   --bounds  bound-model registry grid (models x n_tiles on the no-comm
//             mirage platform): bound seconds, bound GFLOP/s and the dmdas
//             makespan / bound ratio per cell; CI uploads this output as
//             BENCH_bounds.json
//   --hybrid  hybrid-policy grid (static_fraction x steal_static x
//             n_tiles on the no-comm mirage platform) on one shared CP
//             placement per size (cp::extract_spine), with dmda and pure
//             static replay reference columns and the policy's steal /
//             boundary-crossing counters per cell; CI uploads this output
//             as BENCH_hybrid.json
//   --partition  variable tile-size grid (uniform TilePlans at nb =
//             960/480/240 vs the greedy auto-tuned mixed plan per size,
//             no-comm mirage, dmdas rollouts); CI uploads this output as
//             BENCH_partition.json
//   --out     write JSON to FILE instead of stdout
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "hetsched.hpp"

namespace {

using hetsched::Kernel;
using hetsched::kernel_flops;
namespace kernels = hetsched::kernels;
using Clock = std::chrono::steady_clock;

std::vector<double> noise_tile(int nb, unsigned seed) {
  std::vector<double> t(static_cast<std::size_t>(nb) *
                        static_cast<std::size_t>(nb));
  for (std::size_t i = 0; i < t.size(); ++i)
    t[i] = 0.25 + 1e-3 * static_cast<double>((i * 31 + seed) % 97);
  return t;
}

std::vector<double> lower_tile(int nb) {
  auto t = noise_tile(nb, 3);
  for (int j = 0; j < nb; ++j) {
    for (int i = 0; i < j; ++i)
      t[static_cast<std::size_t>(i) +
        static_cast<std::size_t>(j) * static_cast<std::size_t>(nb)] = 0.0;
    t[static_cast<std::size_t>(j) * (static_cast<std::size_t>(nb) + 1)] = 4.0;
  }
  return t;
}

std::vector<double> spd_tile(int nb) {
  auto t = noise_tile(nb, 7);
  for (int j = 0; j < nb; ++j)
    t[static_cast<std::size_t>(j) * (static_cast<std::size_t>(nb) + 1)] =
        2.0 * static_cast<double>(nb);
  return t;
}

/// Best-of-`reps` wall time of one kernel invocation. `opt` selects the
/// packed engine vs the kernels::ref oracles; destructive kernels get a
/// fresh copy of their input each repetition (copy is outside the timer).
double time_kernel(Kernel k, int nb, bool opt, int reps) {
  const auto a = noise_tile(nb, 1);
  const auto b = noise_tile(nb, 2);
  const auto c0 = noise_tile(nb, 5);
  const auto l = lower_tile(nb);
  const auto spd = spd_tile(nb);
  std::vector<double> w = c0;
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    switch (k) {
      case Kernel::TRSM:
        std::copy(c0.begin(), c0.end(), w.begin());
        break;
      case Kernel::POTRF:
        std::copy(spd.begin(), spd.end(), w.begin());
        break;
      default:
        break;
    }
    const auto t0 = Clock::now();
    switch (k) {
      case Kernel::GEMM:
        if (opt)
          kernels::gemm(nb, a.data(), nb, b.data(), nb, w.data(), nb);
        else
          kernels::ref::gemm(nb, a.data(), nb, b.data(), nb, w.data(), nb);
        break;
      case Kernel::SYRK:
        if (opt)
          kernels::syrk(nb, a.data(), nb, w.data(), nb);
        else
          kernels::ref::syrk(nb, a.data(), nb, w.data(), nb);
        break;
      case Kernel::TRSM:
        if (opt)
          kernels::trsm(nb, l.data(), nb, w.data(), nb);
        else
          kernels::ref::trsm(nb, l.data(), nb, w.data(), nb);
        break;
      case Kernel::POTRF: {
        const int info = opt ? kernels::potrf_info(nb, w.data(), nb)
                             : kernels::ref::potrf_info(nb, w.data(), nb);
        if (info != 0) {
          std::fprintf(stderr, "bench_to_json: potrf failed, info=%d\n", info);
          return -1.0;
        }
        break;
      }
      default:
        return -1.0;
    }
    const double s = std::chrono::duration<double>(Clock::now() - t0).count();
    best = std::min(best, s);
  }
  return best;
}

const char* kernel_name(Kernel k) {
  switch (k) {
    case Kernel::POTRF: return "potrf";
    case Kernel::TRSM: return "trsm";
    case Kernel::SYRK: return "syrk";
    case Kernel::GEMM: return "gemm";
    default: return "?";
  }
}

bool write_json(const std::string& json, const std::string& out_path) {
  if (out_path.empty()) {
    std::fputs(json.c_str(), stdout);
    return true;
  }
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "bench_to_json: cannot open %s\n", out_path.c_str());
    return false;
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::fprintf(stderr, "wrote %s\n", out_path.c_str());
  return true;
}

/// Batch-mode serving sweep: one FactorizationServer per max_batch value,
/// fed the same set of small-geometry jobs. Fusing more jobs per batch
/// amortizes graph construction, so the sweep reports throughput and mean
/// latency side by side per batch size.
int run_serving_bench(bool quick, const std::string& out_path) {
  const int tiles = quick ? 5 : 8;
  const int jobs = quick ? 8 : 32;
  const std::vector<int> nbs = quick ? std::vector<int>{64}
                                     : std::vector<int>{64, 96};
  const std::vector<int> batch_sizes = quick ? std::vector<int>{1, 4}
                                             : std::vector<int>{1, 2, 4, 8};
  const unsigned hw = std::thread::hardware_concurrency();
  const int threads = static_cast<int>(hw == 0 ? 1 : std::min(4u, hw));

  std::string json = "{\n";
  json += "  \"tier\": \"";
  json += kernels::tier_name(kernels::engine_tier());
  json += "\",\n  \"threads\": " + std::to_string(threads) +
          ",\n  \"jobs\": " + std::to_string(jobs) + ",\n  \"results\": [\n";
  bool first = true;
  for (const int nb : nbs) {
    for (const int max_batch : batch_sizes) {
      hetsched::serve::ServerOptions so;
      so.threads = threads;
      so.max_batch = max_batch;
      so.admission.max_depth = static_cast<std::size_t>(jobs) + 1;
      hetsched::serve::FactorizationServer server(so);
      // Submit everything before starting the dispatcher so every batch is
      // as full as max_batch allows (steady-state backlog, not arrival
      // timing, is what the sweep varies).
      std::vector<int> ids;
      ids.reserve(static_cast<std::size_t>(jobs));
      for (int i = 0; i < jobs; ++i) {
        hetsched::serve::JobSpec spec;
        spec.tiles = tiles;
        spec.nb = nb;
        spec.seed = static_cast<unsigned>(i);
        const hetsched::serve::SubmitResult res = server.submit(spec);
        if (!res.admitted) {
          std::fprintf(stderr, "bench_to_json: serving submit rejected: %s\n",
                       res.message.c_str());
          return 1;
        }
        ids.push_back(res.id);
      }
      const auto t0 = Clock::now();
      server.start();
      for (const int id : ids) {
        const auto s = server.wait(id);
        if (s.state != hetsched::serve::JobState::kDone) {
          std::fprintf(stderr, "bench_to_json: serving job %d ended %s: %s\n",
                       id, hetsched::serve::to_string(s.state),
                       s.error.c_str());
          return 1;
        }
      }
      const double secs =
          std::chrono::duration<double>(Clock::now() - t0).count();
      const hetsched::serve::ServeMetrics m = server.metrics();
      server.shutdown(
          hetsched::serve::FactorizationServer::Shutdown::kGraceful);
      char row[320];
      std::snprintf(row, sizeof(row),
                    "%s    {\"tiles\": %d, \"nb\": %d, \"max_batch\": %d, "
                    "\"batches\": %lld, \"seconds\": %.6e, "
                    "\"jobs_per_s\": %.3f, \"latency_ms_mean\": %.3f}",
                    first ? "" : ",\n", tiles, nb, max_batch,
                    static_cast<long long>(m.batches), secs,
                    secs > 0.0 ? static_cast<double>(jobs) / secs : 0.0,
                    m.latency_ms_mean);
      json += row;
      first = false;
    }
  }
  json += "\n  ]\n}\n";
  return write_json(json, out_path) ? 0 : 1;
}

/// Bound-model registry grid on the no-comm mirage platform: every
/// registered model crossed with the paper's n_tiles sweep, plus one dmdas
/// simulation per size so every cell carries the makespan / bound ratio
/// (>= 1 for a valid bound -- a ratio below 1 in CI is a correctness
/// regression in a bound, not a performance story).
int run_bounds_bench(bool quick, const std::string& out_path) {
  namespace bounds = hetsched::bounds;
  const std::vector<int> sizes = quick
                                     ? std::vector<int>{2, 4, 8}
                                     : std::vector<int>{1, 2, 4, 6, 8, 10, 12,
                                                        16, 20, 24, 28, 32};
  const hetsched::Platform p =
      hetsched::mirage_platform().without_communication();
  const std::vector<std::string> models = bounds::bound_model_names();

  std::string json = "{\n  \"platform\": \"";
  json += p.name();
  json += "\",\n  \"results\": [\n";
  bool first = true;
  for (const int n : sizes) {
    const hetsched::TaskGraph g = hetsched::build_cholesky_dag(n);
    auto dmdas = hetsched::sched::make_scheduler("dmdas", g, p);
    const double makespan = hetsched::simulate(g, p, *dmdas).makespan_s;
    for (const std::string& m : models) {
      const double bound_s = bounds::evaluate_bound_s(m, g, p);
      char row[320];
      std::snprintf(row, sizeof(row),
                    "%s    {\"model\": \"%s\", \"tiles\": %d, "
                    "\"bound_s\": %.6e, \"bound_gflops\": %.3f, "
                    "\"dmdas_makespan_s\": %.6e, \"dmdas_ratio\": %.4f}",
                    first ? "" : ",\n", m.c_str(), n, bound_s,
                    hetsched::gflops(n, p.nb(), bound_s), makespan,
                    bound_s > 0.0 ? makespan / bound_s : 0.0);
      json += row;
      first = false;
    }
  }
  json += "\n  ]\n}\n";
  return write_json(json, out_path) ? 0 : 1;
}

/// Hybrid-policy grid: the Donfack static-fraction curve on a CP-quality
/// placement. One cp::extract_spine solve per size feeds every fraction
/// and both steal modes, so the cells differ only in the policy knobs;
/// the dmda and FixedScheduleScheduler references run on the same graph
/// and platform. Every simulation is deterministic (no noise, no seeds).
int run_hybrid_bench(bool quick, const std::string& out_path) {
  namespace sched = hetsched::sched;
  const std::vector<int> sizes = quick
                                     ? std::vector<int>{2, 4, 8}
                                     : std::vector<int>{1, 2, 4, 6, 8, 10, 12,
                                                        16, 20, 24, 28, 32};
  const std::vector<double> fractions = {0.0, 0.25, 0.5, 0.75, 1.0};
  const hetsched::Platform p =
      hetsched::mirage_platform().without_communication();
  hetsched::RunOptions opt;
  opt.record_trace = false;

  std::string json = "{\n  \"platform\": \"";
  json += p.name();
  json += "\",\n  \"results\": [\n";
  bool first = true;
  for (const int n : sizes) {
    const hetsched::TaskGraph g = hetsched::build_cholesky_dag(n);
    hetsched::cp::SpineOptions sopt;
    sopt.solve_budget_s = quick ? 0.2 : 1.0;
    const hetsched::cp::SpinePlan spine = hetsched::cp::extract_spine(g, p, sopt);

    auto dmda = sched::make_scheduler("dmda", g, p);
    const double dmda_s = hetsched::simulate(g, p, *dmda, opt).makespan_s;
    hetsched::FixedScheduleScheduler replay(spine.schedule);
    const double fixed_s = hetsched::simulate(g, p, replay, opt).makespan_s;

    for (const bool steal : {false, true}) {
      for (const double f : fractions) {
        sched::HybridOptions hopt;
        hopt.static_fraction = f;
        hopt.steal_static = steal;
        sched::HybridScheduler hybrid(g, p, spine.schedule, hopt);
        const double makespan =
            hetsched::simulate(g, p, hybrid, opt).makespan_s;
        char row[512];
        std::snprintf(
            row, sizeof(row),
            "%s    {\"tiles\": %d, \"fraction\": %.2f, "
            "\"steal_static\": %s, \"makespan_s\": %.6e, \"gflops\": %.3f, "
            "\"steals\": %lld, \"static_pool_hits\": %lld, "
            "\"boundary_crossings\": %lld, \"dmda_makespan_s\": %.6e, "
            "\"fixed_makespan_s\": %.6e}",
            first ? "" : ",\n", n, f, steal ? "true" : "false", makespan,
            hetsched::gflops(n, p.nb(), makespan),
            static_cast<long long>(hybrid.steals()),
            static_cast<long long>(hybrid.static_pool_hits()),
            static_cast<long long>(hybrid.boundary_crossings()), dmda_s,
            fixed_s);
        json += row;
        first = false;
      }
    }
  }
  json += "\n  ]\n}\n";
  return write_json(json, out_path) ? 0 : 1;
}

/// Partitioning grid: uniform TilePlans at levels 0..2 against the greedy
/// auto-tuned plan, per paper size on the no-comm mirage platform under
/// dmdas. `auto_gain` is the relative makespan win of the tuned plan over
/// the best uniform one -- never negative (the tuner seeds with the best
/// uniform plan), and >= 0.03 at some mid size on a healthy build. CI
/// uploads this output as BENCH_partition.json.
int run_partition_bench(bool quick, const std::string& out_path) {
  namespace partition = hetsched::partition;
  // Full mode stops at 12 tiles: each auto cell costs a few hundred DES
  // rollouts and the crossover story lives in the 6..12 range.
  const std::vector<int> sizes = quick ? std::vector<int>{2, 4, 8}
                                       : std::vector<int>{2, 4, 6, 8, 10, 12};
  const hetsched::Platform p =
      hetsched::mirage_platform().without_communication();

  std::string json = "{\n  \"platform\": \"";
  json += p.name();
  json += "\",\n  \"results\": [\n";
  bool first = true;
  for (const int n : sizes) {
    double uniform_s[3] = {0.0, 0.0, 0.0};
    for (int level = 0; level < 3; ++level)
      uniform_s[level] = partition::rollout_makespan_s(
          hetsched::TilePlan::uniform(n, p.nb(), level), p, "dmdas");
    const double best_uniform_s =
        std::min({uniform_s[0], uniform_s[1], uniform_s[2]});
    partition::AutoTuneOptions topt;
    topt.policy = "dmdas";
    const partition::AutoTuneResult r = partition::auto_tune(n, p.nb(), p, topt);
    char row[512];
    std::snprintf(row, sizeof(row),
                  "%s    {\"tiles\": %d, \"uniform_nb960_s\": %.6e, "
                  "\"uniform_nb480_s\": %.6e, \"uniform_nb240_s\": %.6e, "
                  "\"best_uniform_s\": %.6e, \"auto_s\": %.6e, "
                  "\"auto_gain\": %.4f, \"seed_level\": %d, "
                  "\"rounds\": %d, \"rollouts\": %d}",
                  first ? "" : ",\n", n, uniform_s[0], uniform_s[1],
                  uniform_s[2], best_uniform_s, r.makespan_s,
                  best_uniform_s > 0.0
                      ? (best_uniform_s - r.makespan_s) / best_uniform_s
                      : 0.0,
                  r.uniform_level, r.rounds, r.rollouts);
    json += row;
    first = false;
  }
  json += "\n  ]\n}\n";
  return write_json(json, out_path) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool serving = false;
  bool bounds_grid = false;
  bool hybrid_grid = false;
  bool partition_grid = false;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--serving") == 0) {
      serving = true;
    } else if (std::strcmp(argv[i], "--bounds") == 0) {
      bounds_grid = true;
    } else if (std::strcmp(argv[i], "--hybrid") == 0) {
      hybrid_grid = true;
    } else if (std::strcmp(argv[i], "--partition") == 0) {
      partition_grid = true;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--serving] [--bounds] [--hybrid] "
                   "[--partition] [--out=FILE]\n",
                   argv[0]);
      return 2;
    }
  }
  if (partition_grid) return run_partition_bench(quick, out_path);
  if (hybrid_grid) return run_hybrid_bench(quick, out_path);
  if (bounds_grid) return run_bounds_bench(quick, out_path);
  if (serving) return run_serving_bench(quick, out_path);

  const std::vector<int> sizes =
      quick ? std::vector<int>{64, 192} : std::vector<int>{192, 480, 960};
  const int reps = quick ? 1 : 3;
  const Kernel ks[] = {Kernel::POTRF, Kernel::TRSM, Kernel::SYRK,
                       Kernel::GEMM};

  std::string json = "{\n";
  json += "  \"tier\": \"";
  json += kernels::tier_name(kernels::engine_tier());
  json += "\",\n  \"results\": [\n";
  bool first = true;
  for (const Kernel k : ks) {
    for (const int nb : sizes) {
      for (const bool opt : {false, true}) {
        const double secs = time_kernel(k, nb, opt, reps);
        if (secs <= 0.0) return 1;
        const double gflops = kernel_flops(k, nb) / secs * 1e-9;
        char row[256];
        std::snprintf(row, sizeof(row),
                      "%s    {\"kernel\": \"%s\", \"nb\": %d, "
                      "\"variant\": \"%s\", \"seconds\": %.6e, "
                      "\"gflops\": %.3f}",
                      first ? "" : ",\n", kernel_name(k), nb,
                      opt ? "opt" : "ref", secs, gflops);
        json += row;
        first = false;
      }
    }
  }
  json += "\n  ]\n}\n";
  return write_json(json, out_path) ? 0 : 1;
}

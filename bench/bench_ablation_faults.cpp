// Ablation: fault injection and recovery quality. Kills one GPU of the
// Mirage platform at a varying fraction of the healthy makespan and sweeps
// the schedulers, reporting the degraded makespan, the recovery accounting,
// and the makespan-vs-degraded-mixed-bound ratio -- the "how much of the
// surviving machine does the recovered run still exploit" yardstick of
// docs/faults.md. A transient-failure sweep closes the table.
#include "bench_common.hpp"

#include "fault/recovery.hpp"
#include "sched/ws_sched.hpp"

int main() {
  using namespace hetsched;
  using namespace hetsched::bench;

  const int n = 16;
  const int victim = 9;  // first GPU worker of the Mirage platform
  const TaskGraph g = build_cholesky_dag(n);
  const Platform p = mirage_platform();

  const auto make_sched = [&](const std::string& name)
      -> std::unique_ptr<Scheduler> {
    if (name == "eager") return std::make_unique<EagerScheduler>();
    if (name == "ws") return std::make_unique<WorkStealingScheduler>();
    if (name == "dmda") return std::make_unique<DmdaScheduler>(make_dmda());
    return std::make_unique<DmdaScheduler>(make_dmdas(g, p));
  };
  const std::vector<std::string> policies = {"eager", "ws", "dmda", "dmdas"};
  // A fault run that fails has no makespan to tabulate.
  const auto failed = [](const RunReport& r) {
    std::fprintf(stderr, "fault run failed: %s\n", r.error.c_str());
    return 1;
  };

  std::printf("# Ablation: kill GPU worker %d at a fraction of the healthy "
              "makespan (n=%d)\n",
              victim, n);
  std::printf("%-8s %-10s %10s %10s %6s %6s %10s %9s\n", "sched", "kill_at",
              "makespan", "recovery", "lost", "requd", "degr_bnd", "quality");

  for (const std::string& name : policies) {
    const double healthy = [&] {
      auto s = make_sched(name);
      return simulate(g, p, *s).makespan_s;
    }();
    std::printf("%-8s %-10s %10.4f %10.4f %6s %6s %10s %8s%%\n", name.c_str(),
                "never", healthy, 0.0, "-", "-", "-", "-");
    for (const double frac : {0.1, 0.3, 0.5, 0.7, 0.9}) {
      auto s = make_sched(name);
      RunOptions opt;
      opt.faults.deaths.push_back({victim, frac * healthy});
      const RunReport r = simulate(g, p, *s, opt);
      if (!r.success) return failed(r);
      const double quality =
          degraded_efficiency(n, p, {victim}, r.makespan_s) * 100.0;
      const double bound = degraded_mixed_bound_s(n, p, {victim});
      std::printf("%-8s %-10.2f %10.4f %10.4f %6lld %6lld %10.4f %8.1f%%\n",
                  name.c_str(), frac, r.makespan_s, r.faults.recovery_time_s,
                  static_cast<long long>(r.faults.sole_copy_losses),
                  static_cast<long long>(r.faults.tasks_requeued), bound,
                  quality);
    }
  }

  std::printf("\n# Transient failures (dmdas, n=%d): failure probability vs "
              "retries and backoff cost\n",
              n);
  std::printf("%-10s %10s %8s %8s %10s\n", "fail_prob", "makespan", "fails",
              "retries", "recovery");
  for (const double prob : {0.0, 0.01, 0.05, 0.10, 0.20}) {
    auto s = make_sched("dmdas");
    RunOptions opt;
    opt.faults.transient_failure_prob = prob;
    opt.faults.retry.max_retries = 20;  // ample budget for the sweep
    opt.faults.seed = 42;
    const RunReport r = simulate(g, p, *s, opt);
    if (!r.success) return failed(r);
    std::printf("%-10.2f %10.4f %8lld %8lld %10.4f\n", prob, r.makespan_s,
                static_cast<long long>(r.faults.transient_failures),
                static_cast<long long>(r.faults.retries),
                r.faults.recovery_time_s);
  }

  std::printf(
      "\nExpected shape: early deaths cost little extra (few sole copies,\n"
      "small requeue set) and late deaths approach the healthy makespan\n"
      "plus the lost-tile recomputation; recovery quality stays within a\n"
      "modest factor of the degraded-platform bound for the model-aware\n"
      "schedulers. Transient failures degrade smoothly with probability.\n");
  return 0;
}

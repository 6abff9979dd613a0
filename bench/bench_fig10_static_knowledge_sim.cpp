// Figure 10: heterogeneous unrelated simulated performance with static
// knowledge -- dmdas, the mixed bound, the CP solver's schedule (theoretical
// value), the CP schedule injected into the simulator, and the best
// "triangle TRSMs on CPU" configuration (k swept as in the paper).
//
// The CP stage replaces the paper's 23-hour CP Optimizer runs with a
// seconds-scale branch-and-bound + LNS search; it is only run up to the
// size where it still beats the list-scheduling seed in that budget.
//
// A second table sweeps the hybrid policy's static fraction on the same CP
// placement (Donfack et al., arXiv:1110.2677): HybridScheduler pins the F
// least-slack tasks to cp.schedule and runs the rest as dmda, with
// steal_static off ("pin") and on ("steal"). F = 0 is bit-for-bit dmda and
// F = 1 with pinning is bit-for-bit cp_in_sim.
#include <algorithm>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "cp/cp_solver.hpp"
#include "sched/fixed_sched.hpp"
#include "sched/hybrid_sched.hpp"

int main() {
  using namespace hetsched;
  using namespace hetsched::bench;

  const Platform p = mirage_platform().without_communication();
  const int cpu_cls = p.class_index("CPU");
  constexpr int kCpSizeLimit = 10;     // CP points, as the paper's "small"
  constexpr double kCpBudgetS = 2.0;   // seconds per size (paper: 23 hours)
  const std::vector<double> fractions = {0.25, 0.5, 0.75, 1.0};
  std::vector<std::pair<int, std::vector<double>>> hybrid_rows;

  print_header(
      "Figure 10: heterogeneous unrelated simulated performance with static "
      "knowledge (GFLOP/s)",
      {"dmdas", "mixed_bound", "cp_solution", "cp_in_sim", "triangle_trsm",
       "best_k"});
  for (const int n : paper_sizes()) {
    const TaskGraph g = build_cholesky_dag(n);
    const double dmdas = sim_gflops("dmdas", g, p, n).mean_gflops;
    const double bound = gflops(n, p.nb(), mixed_bound(n, p).makespan_s);

    double cp_theory = 0.0, cp_sim = 0.0;
    if (n <= kCpSizeLimit) {
      CpOptions opt;
      opt.time_limit_s = kCpBudgetS;
      const CpResult cp = cp_solve(g, p, opt);
      cp_theory = gflops(n, p.nb(), cp.makespan_s);
      FixedScheduleScheduler replay(cp.schedule);
      cp_sim = gflops(n, p.nb(), simulate(g, p, replay).makespan_s);

      std::vector<double> row = {sim_gflops("dmda", g, p, n).mean_gflops};
      for (const bool steal : {false, true}) {
        for (const double f : fractions) {
          sched::HybridOptions hopt;
          hopt.static_fraction = f;
          hopt.steal_static = steal;
          sched::HybridScheduler hybrid(g, p, cp.schedule, hopt);
          row.push_back(gflops(n, p.nb(), simulate(g, p, hybrid).makespan_s));
        }
      }
      hybrid_rows.emplace_back(n, std::move(row));
    }

    // Sweep the TRSM distance threshold k and keep the best (Figure 9/10).
    double best_triangle = dmdas;
    int best_k = 0;
    for (int k = 1; k < n; ++k) {
      DmdaScheduler hinted = make_dmdas(
          g, p, hints::force_trsm_distance_to_class(k, cpu_cls));
      const double v = gflops(n, p.nb(), simulate(g, p, hinted).makespan_s);
      if (v > best_triangle) {
        best_triangle = v;
        best_k = k;
      }
    }
    print_row(n, {dmdas, bound, cp_theory, cp_sim, best_triangle,
                  static_cast<double>(best_k)});
  }
  std::printf(
      "\nExpected shape: triangle-TRSM >= dmdas for medium sizes (best k\n"
      "around 6-8 in the paper); cp_in_sim within ~1%% of cp_solution;\n"
      "cp_solution above dmdas for small sizes. 0.0 = CP not run.\n\n");

  print_header(
      "Figure 10 (hybrid): static fraction on the CP placement (GFLOP/s)",
      {"dmda", "pin_0.25", "pin_0.5", "pin_0.75", "pin_1",
       "steal_0.25", "steal_0.5", "steal_0.75", "steal_1"});
  for (const auto& [n, row] : hybrid_rows) print_row(n, row);
  std::printf(
      "\nExpected shape: pin_1 == cp_in_sim above (exact replay); the best\n"
      "column is >= dmda and >= pin_1, since F = 0 is dmda itself.\n");
  return 0;
}

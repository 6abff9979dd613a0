// Figure 7: heterogeneous unrelated simulated performance against the
// mixed bound (communication removed for fairness, Section V-C2).
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace hetsched;
  using namespace hetsched::bench;

  Experiment e;
  e.title =
      "Figure 7: heterogeneous unrelated simulated performance (GFLOP/s)";
  e.sizes = paper_sizes();
  e.platform = [](int) { return mirage_platform().without_communication(); };
  e.series = {sim_series("random"), sim_series("dmda"), sim_series("dmdas"),
              mixed_bound_series()};
  // Registry yardsticks: a <model>_bnd GFLOP/s column plus the best
  // scheduler's makespan / bound ratio per model.
  e.bound_models = {"mixed", "alap"};
  e.footnote =
      "Expected shape: significant gap between the best scheduler and the\n"
      "mixed bound for small and medium sizes; gap closes near n = 32.\n"
      "The *_ratio columns approach 1 as n grows.";
  return run_experiment_main(e, argc, argv);
}

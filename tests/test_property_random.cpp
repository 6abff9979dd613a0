// Randomized property tests: layered random DAGs with random tile
// footprints, simulated under every scheduling policy, checking the
// invariants any correct runtime must uphold:
//   * every task executes exactly once;
//   * no two tasks overlap on one worker;
//   * a task never starts before all its predecessors finished;
//   * the makespan respects the critical-path and area lower bounds;
//   * reruns with the same seed are bit-identical.
#include <gtest/gtest.h>

#include <memory>
#include <random>

#include <algorithm>

#include "bounds/bounds.hpp"
#include "core/dependency_tracker.hpp"
#include "platform/calibration.hpp"
#include "sched/dmda.hpp"
#include "sched/eager_sched.hpp"
#include "sched/random_sched.hpp"
#include "sched/scheduler_registry.hpp"
#include "sched/ws_sched.hpp"
#include "sim/simulator.hpp"
#include "tests/test_util.hpp"

namespace hetsched {
namespace {

// Layered random DAG: `layers` layers of up to `width` tasks; each task
// reads 1-2 random tiles written by earlier layers and read-writes one of
// its own. Edges come from the access modes via the dependency tracker
// semantics (emulated here directly for speed).
TaskGraph random_dag(int layers, int width, int num_tiles, unsigned seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> width_dist(1, width);
  std::uniform_int_distribution<int> tile_dist(0, num_tiles - 1);
  std::uniform_int_distribution<int> kern_dist(0, 3);

  TaskGraph g;
  std::vector<int> last_writer(static_cast<std::size_t>(num_tiles), -1);
  std::vector<std::vector<int>> readers(static_cast<std::size_t>(num_tiles));
  for (int layer = 0; layer < layers; ++layer) {
    const int w = width_dist(rng);
    for (int u = 0; u < w; ++u) {
      const Kernel kern = kCholeskyKernels[static_cast<std::size_t>(kern_dist(rng))];
      const int r1 = tile_dist(rng);
      const int wt = tile_dist(rng);
      std::vector<TaskAccess> acc = {{r1, AccessMode::Read},
                                     {wt, AccessMode::ReadWrite}};
      const int id = g.add_task(kern, layer, u, -1, 1.0, std::move(acc));
      // RAW/WAR/WAW edges, same semantics as DependencyTracker.
      for (const TaskAccess& a : g.task(id).accesses) {
        const auto tile = static_cast<std::size_t>(a.tile);
        const bool writes = a.mode != AccessMode::Read;
        if (last_writer[tile] >= 0 && last_writer[tile] != id)
          g.add_edge(last_writer[tile], id);
        if (writes) {
          for (const int r : readers[tile])
            if (r != id) g.add_edge(r, id);
          readers[tile].clear();
          last_writer[tile] = id;
        } else {
          readers[tile].push_back(id);
        }
      }
    }
  }
  return g;
}

KernelHistogram histogram_of(const TaskGraph& g) {
  KernelHistogram h{};
  for (const Task& t : g.tasks())
    ++h[static_cast<std::size_t>(kernel_index(t.kernel))];
  return h;
}

void check_invariants(const TaskGraph& g, const Platform& p,
                      const RunReport& r) {
  // Exactly-once execution.
  ASSERT_EQ(r.trace.compute().size(), static_cast<std::size_t>(g.num_tasks()));
  std::vector<int> seen(static_cast<std::size_t>(g.num_tasks()), 0);
  std::vector<double> start(static_cast<std::size_t>(g.num_tasks()), 0.0);
  std::vector<double> end(static_cast<std::size_t>(g.num_tasks()), 0.0);
  for (const ComputeRecord& c : r.trace.compute()) {
    ++seen[static_cast<std::size_t>(c.task)];
    start[static_cast<std::size_t>(c.task)] = c.start;
    end[static_cast<std::size_t>(c.task)] = c.end;
    EXPECT_LE(c.start, c.end);
  }
  for (const int s : seen) EXPECT_EQ(s, 1);
  // Dependencies respected.
  for (int id = 0; id < g.num_tasks(); ++id)
    for (const int su : g.successors(id))
      EXPECT_LE(end[static_cast<std::size_t>(id)],
                start[static_cast<std::size_t>(su)] + 1e-9);
  // Worker exclusivity.
  for (int w = 0; w < p.num_workers(); ++w) {
    std::vector<ComputeRecord> on_w;
    for (const ComputeRecord& c : r.trace.compute())
      if (c.worker == w) on_w.push_back(c);
    std::sort(on_w.begin(), on_w.end(),
              [](const ComputeRecord& a, const ComputeRecord& b) {
                return a.start < b.start;
              });
    for (std::size_t i = 1; i < on_w.size(); ++i)
      EXPECT_LE(on_w[i - 1].end, on_w[i].start + 1e-9);
  }
  // Lower bounds.
  EXPECT_GE(r.makespan_s, critical_path_seconds(g, p.timings()) - 1e-9);
  EXPECT_GE(r.makespan_s,
            area_bound_for(histogram_of(g), p).makespan_s - 1e-9);
}

struct PropertyCase {
  unsigned seed;
  int sched_id;  // 0 eager, 1 random, 2 dmda, 3 dmdas, 4 ws, 5 hybrid
};

class RandomDagProperty : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(RandomDagProperty, InvariantsHoldOnMirage) {
  const auto [seed, sched_id] = GetParam();
  const TaskGraph g = random_dag(6, 8, 12, seed);
  ASSERT_TRUE(g.is_dag());
  const Platform p = mirage_platform();

  std::unique_ptr<Scheduler> sched;
  switch (sched_id) {
    case 0: sched = std::make_unique<EagerScheduler>(); break;
    case 1: sched = std::make_unique<RandomScheduler>(seed); break;
    case 2: sched = std::make_unique<DmdaScheduler>(make_dmda()); break;
    case 3: sched = std::make_unique<DmdaScheduler>(make_dmdas(g, p)); break;
    case 4: sched = std::make_unique<WorkStealingScheduler>(); break;
    default: sched = sched::make_scheduler("hybrid", g, p); break;
  }
  const RunReport r = simulate(g, p, *sched);
  check_invariants(g, p, r);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomDagProperty,
    ::testing::Values(PropertyCase{1, 0}, PropertyCase{1, 1},
                      PropertyCase{1, 2}, PropertyCase{1, 3},
                      PropertyCase{1, 4}, PropertyCase{1, 5},
                      PropertyCase{2, 2}, PropertyCase{2, 3},
                      PropertyCase{3, 2}, PropertyCase{3, 5},
                      PropertyCase{4, 3}, PropertyCase{5, 4},
                      PropertyCase{6, 2}, PropertyCase{7, 3},
                      PropertyCase{8, 5}, PropertyCase{9, 4}));

TEST(RandomDagProperty, InvariantsHoldUnderMemoryPressure) {
  for (unsigned seed = 1; seed <= 4; ++seed) {
    const TaskGraph g = random_dag(5, 6, 10, seed);
    const Platform p = mirage_platform();
    RunOptions opt;
    opt.accel_memory_bytes = 4ull * 960 * 960 * sizeof(double);
    DmdaScheduler dmda = make_dmda();
    const RunReport r = simulate(g, p, dmda, opt);
    check_invariants(g, p, r);
  }
}

TEST(RandomDagProperty, BitReproducible) {
  const TaskGraph g = random_dag(6, 8, 12, 42);
  const Platform p = mirage_platform();
  RunOptions opt;
  opt.noise_cv = 0.02;
  opt.noise_seed = 5;
  RandomScheduler s1(9), s2(9);
  EXPECT_DOUBLE_EQ(simulate(g, p, s1, opt).makespan_s,
                   simulate(g, p, s2, opt).makespan_s);
}

TEST(RandomDagProperty, TrackerMatchesInlineSemantics) {
  // The inline edge builder above must agree with DependencyTracker.
  const TaskGraph g = random_dag(5, 5, 8, 3);
  // Rebuild the same accesses through the tracker and compare edge counts.
  TaskGraph g2;
  DependencyTracker tracker(8);
  for (const Task& t : g.tasks()) {
    const int id = g2.add_task(t.kernel, t.k, t.i, t.j, t.flops, t.accesses);
    tracker.submit(g2, id);
  }
  EXPECT_EQ(g.num_edges(), g2.num_edges());
  for (int id = 0; id < g.num_tasks(); ++id) {
    const auto a = g.successors(id);
    const auto b = g2.successors(id);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
  }
}

}  // namespace
}  // namespace hetsched

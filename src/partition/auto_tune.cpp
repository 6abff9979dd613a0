#include "partition/auto_tune.hpp"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <memory>
#include <stdexcept>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/options.hpp"
#include "sched/scheduler_registry.hpp"
#include "sim/simulator.hpp"

namespace hetsched::partition {

double rollout_makespan_s(const TilePlan& plan, const Platform& p,
                          const std::string& policy) {
  const TaskGraph g = build_cholesky_dag_plan(plan);
  const std::unique_ptr<Scheduler> scheduler =
      sched::make_scheduler(policy, g, p);
  RunOptions opt;
  opt.record_trace = false;
  const RunReport r = simulate(g, p, *scheduler, opt);
  if (!r.success) throw std::runtime_error(r.error);
  return r.makespan_s;
}

namespace {

/// Splits cell (i, j) one level deeper; false when already at the cap.
bool refine_cell(TilePlan& plan, int i, int j, int max_level) {
  const int l = plan.level(i, j);
  if (l >= max_level || plan.base_nb % (1 << (l + 1)) != 0) return false;
  plan.set_level(i, j, l + 1);
  return true;
}

/// Splits every cell of the trailing submatrix starting at diagonal
/// `kk` one level deeper (capped at max_level). Returns false when the
/// move changes nothing (everything already at the cap).
bool refine_trailing(TilePlan& plan, int kk, int max_level) {
  bool changed = false;
  for (int i = kk; i < plan.n_tiles; ++i)
    for (int j = kk; j <= i; ++j)
      changed = refine_cell(plan, i, j, max_level) || changed;
  return changed;
}

/// Rolls out every candidate, concurrently on up to
/// min(hardware_concurrency, #candidates) threads spawned for this call,
/// and returns the index of the lowest makespan -- the earliest one on
/// ties, exactly what a serial scan keeping only strict improvements
/// picks -- with that makespan. Every candidate is rolled out whatever
/// the thread count, so the result never depends on it. A rollout that
/// throws is captured; once every thread has joined, the exception of
/// the lowest-index failing candidate is rethrown here.
std::pair<std::size_t, double> best_rollout(const std::vector<TilePlan>& cands,
                                            const Platform& p,
                                            const std::string& policy) {
  const std::size_t n = cands.size();
  std::vector<double> ms(n, 0.0);
  std::vector<std::exception_ptr> errors(n);
  std::atomic<std::size_t> next{0};
  const auto drain = [&] {
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      try {
        ms[i] = rollout_makespan_s(cands[i], p, policy);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::thread> threads;
  threads.reserve(std::min(hw, n));
  for (std::size_t t = 1; t < std::min(hw, n); ++t) {
    try {
      threads.emplace_back(drain);
    } catch (const std::system_error&) {
      break;  // fewer threads; the shared index still covers every candidate
    }
  }
  drain();
  for (std::thread& t : threads) t.join();
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
  std::size_t best = 0;
  for (std::size_t i = 1; i < n; ++i)
    if (ms[i] < ms[best]) best = i;
  return {best, ms[best]};
}

}  // namespace

AutoTuneResult auto_tune(int n_tiles, int base_nb, const Platform& p,
                         const AutoTuneOptions& opt) {
  if (n_tiles <= 0 || base_nb <= 0)
    throw std::invalid_argument("auto_tune: n_tiles and base_nb must be > 0");
  const int max_level =
      std::clamp(opt.max_level, 0, static_cast<int>(kMaxTileSplitLevel));

  AutoTuneResult res;

  // Seed: the best uniform plan. Level 0 is always a valid candidate, so
  // the tuned plan can never simulate worse than the classic layout.
  std::vector<TilePlan> cands;
  for (int l = 0; l <= max_level; ++l) {
    if (base_nb % (1 << l) != 0) break;  // deeper levels divide even less
    cands.push_back(TilePlan::uniform(n_tiles, base_nb, l));
  }
  const auto [seed, seed_ms] = best_rollout(cands, p, opt.policy);
  res.rollouts = static_cast<int>(cands.size());
  res.plan = std::move(cands[seed]);
  res.makespan_s = seed_ms;
  res.uniform_level = static_cast<int>(seed);
  res.uniform_makespan_s = res.makespan_s;

  // Greedy refinement: per round, try every move and keep the best
  // strictly improving one (the earliest in enumeration order on ties).
  // Two move families, enumerated in this order:
  //  * trailing-submatrix deepening (cells {(i,j): i,j >= kk}) -- the
  //    last panels of Cholesky expose too few base-size tasks to keep
  //    every worker busy, and finer tiles restore the concurrency;
  //  * single-cell deepening -- polishes the coarse boundary the
  //    submatrix moves leave behind.
  for (int round = 0; round < opt.max_rounds; ++round) {
    cands.clear();
    for (int kk = 0; kk < n_tiles; ++kk) {
      TilePlan cand = res.plan;
      if (refine_trailing(cand, kk, max_level))
        cands.push_back(std::move(cand));
    }
    for (int i = 0; i < n_tiles; ++i)
      for (int j = 0; j <= i; ++j) {
        TilePlan cand = res.plan;
        if (refine_cell(cand, i, j, max_level))
          cands.push_back(std::move(cand));
      }
    if (cands.empty()) break;
    const auto [best, best_ms] = best_rollout(cands, p, opt.policy);
    res.rollouts += static_cast<int>(cands.size());
    // Strictly improving, and by min_gain (which may be negative).
    if (best_ms >= res.makespan_s ||
        best_ms >= res.makespan_s * (1.0 - opt.min_gain))
      break;
    res.plan = std::move(cands[best]);
    res.makespan_s = best_ms;
    res.rounds = round + 1;
  }
  return res;
}

}  // namespace hetsched::partition

#include "cp/lns.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <optional>
#include <random>

#include "cp/order_evaluator.hpp"
#include "sched/fixed_sched.hpp"
#include "sim/simulator.hpp"

namespace hetsched {
namespace {

using Clock = std::chrono::steady_clock;
using Order = std::vector<std::vector<int>>;

// Removes task `t` from whatever worker sequence holds it.
void remove_task(Order& order, int t) {
  for (auto& seq : order) {
    const auto it = std::find(seq.begin(), seq.end(), t);
    if (it != seq.end()) {
      seq.erase(it);
      return;
    }
  }
}

// Prices an order: returns (cost, realized schedule) or nullopt when the
// order conflicts with the dependencies.
using CostFn =
    std::function<std::optional<std::pair<double, StaticSchedule>>(
        const Order&)>;

LnsResult lns_core(const TaskGraph& g, const Platform& p,
                   const StaticSchedule& seed, const LnsOptions& opt,
                   const CostFn& price) {
  std::mt19937_64 rng(opt.seed);
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(opt.time_limit_s));

  Order current = seed.per_worker_order(p.num_workers());
  const auto seed_priced = price(current);
  LnsResult res;
  if (!seed_priced) {  // defensive; a valid seed always prices
    res.schedule = seed;
    res.makespan_s = seed.makespan(g, p);
    return res;
  }
  double current_cost = seed_priced->first;
  Order best_order = current;
  double best_cost = current_cost;
  StaticSchedule best_schedule = seed_priced->second;

  double temperature = opt.initial_temperature * current_cost;
  const double cooling = 0.999;

  std::uniform_int_distribution<int> task_dist(0, g.num_tasks() - 1);
  std::uniform_int_distribution<int> worker_dist(0, p.num_workers() - 1);
  std::uniform_real_distribution<double> unit(0.0, 1.0);

  int check_counter = 0;
  while (true) {
    if (++check_counter >= 16) {
      check_counter = 0;
      if (Clock::now() >= deadline) break;
    }
    ++res.iterations;

    Order trial = current;
    const double move_kind = unit(rng);
    if (move_kind < 0.6) {
      // Move one task to a random position of a random worker.
      const int t = task_dist(rng);
      remove_task(trial, t);
      auto& seq = trial[static_cast<std::size_t>(worker_dist(rng))];
      std::uniform_int_distribution<std::size_t> pos_dist(0, seq.size());
      seq.insert(seq.begin() + static_cast<std::ptrdiff_t>(pos_dist(rng)),
                 t);
    } else {
      // Swap the positions (and thus workers) of two random tasks.
      const int t1 = task_dist(rng);
      const int t2 = task_dist(rng);
      if (t1 == t2) continue;
      for (auto& seq : trial)
        for (auto& x : seq) {
          if (x == t1) x = -2;
          else if (x == t2) x = t1;
        }
      for (auto& seq : trial)
        for (auto& x : seq)
          if (x == -2) x = t2;
    }

    const auto priced = price(trial);
    if (!priced) continue;  // order conflicts with dependencies
    const double cost = priced->first;

    const bool accept =
        cost < current_cost - 1e-12 ||
        (temperature > 0.0 &&
         unit(rng) < std::exp((current_cost - cost) / temperature));
    temperature *= cooling;
    if (!accept) continue;

    current = std::move(trial);
    current_cost = cost;
    if (cost < best_cost - 1e-12) {
      best_cost = cost;
      best_order = current;
      best_schedule = priced->second;
      ++res.improvements;
    }
  }

  res.schedule = std::move(best_schedule);
  res.makespan_s = best_cost;
  return res;
}

}  // namespace

LnsResult lns_improve(const TaskGraph& g, const Platform& p,
                      const StaticSchedule& seed, const LnsOptions& opt) {
  const CostFn price = [&](const Order& order)
      -> std::optional<std::pair<double, StaticSchedule>> {
    const auto evaluated = evaluate_order(g, p, order);
    if (!evaluated) return std::nullopt;
    return std::make_pair(evaluated->makespan(g, p), *evaluated);
  };
  return lns_core(g, p, seed, opt, price);
}

LnsResult lns_improve_with_comm(const TaskGraph& g, const Platform& p,
                                const StaticSchedule& seed,
                                const LnsOptions& opt) {
  RunOptions sim_opt;
  sim_opt.record_trace = false;
  const CostFn price = [&](const Order& order)
      -> std::optional<std::pair<double, StaticSchedule>> {
    const auto evaluated = evaluate_order(g, p, order);
    if (!evaluated) return std::nullopt;
    FixedScheduleScheduler replay(*evaluated);
    const RunReport r = simulate(g, p, replay, sim_opt);
    if (!r.success) return std::nullopt;
    return std::make_pair(r.makespan_s, *evaluated);
  };
  return lns_core(g, p, seed, opt, price);
}

}  // namespace hetsched

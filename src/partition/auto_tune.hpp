// Partition auto-tuner: greedy quadtree refinement of a TilePlan driven
// by DES rollouts (HeSP-style joint scheduling-partitioning, see
// docs/partitioning.md). Large tiles keep accelerators near peak; the
// tuner splits cells where the DAG is too narrow to feed every worker --
// in Cholesky, the small trailing submatrices of the last panels -- and
// accepts a refinement only when the simulated makespan of the full
// mixed-nb graph (SPLIT/MERGE repack costs included) strictly improves.
#pragma once

#include <string>
#include <vector>

#include "core/tile_plan.hpp"
#include "platform/platform.hpp"

namespace hetsched::partition {

struct AutoTuneOptions {
  /// Scheduler spec the rollouts (and presumably the real run) use.
  std::string policy = "dmdas";
  /// Deepest split the tuner may apply (<= kMaxTileSplitLevel). Two
  /// levels (quarter tiles) is where the fig-7 platforms' uniform
  /// crossover lives; deeper splits explode the rollout graphs for
  /// little simulated gain.
  int max_level = 2;
  /// Greedy rounds; each round tries every candidate move once.
  int max_rounds = 8;
  /// Minimum relative makespan gain to accept a move (guards against
  /// accepting float noise as signal).
  double min_gain = 1e-9;
};

struct AutoTuneResult {
  TilePlan plan;
  double makespan_s = 0.0;          ///< simulated makespan of `plan`
  double uniform_makespan_s = 0.0;  ///< best uniform seed it started from
  int uniform_level = 0;            ///< level of that best uniform seed
  int rounds = 0;                   ///< greedy rounds actually run
  int rollouts = 0;                 ///< DES simulations spent
};

/// Simulated makespan of `plan` on `p` under `policy` (one DES rollout,
/// no trace). The objective the tuner minimizes. A failed rollout throws
/// std::runtime_error with the report's error.
double rollout_makespan_s(const TilePlan& plan, const Platform& p,
                          const std::string& policy);

/// Tunes a plan for an n_tiles x base_nb Cholesky on `p`. Seeds with the
/// best uniform plan over levels 0..max_level, then greedily refines
/// trailing submatrices (the cells {(i,j): i >= kk and j >= kk} for each
/// diagonal start kk) one level at a time, keeping any strictly
/// improving move. The result is therefore never worse than the best
/// uniform plan -- in simulation, by construction.
AutoTuneResult auto_tune(int n_tiles, int base_nb, const Platform& p,
                         const AutoTuneOptions& opt = {});

}  // namespace hetsched::partition

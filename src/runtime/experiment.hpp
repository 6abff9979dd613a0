// Declarative experiment runner: the sweep loop every bench binary and the
// CLI used to hand-roll, written once.
//
// An Experiment is a list of sizes crossed with a list of series. Each
// series is either
//  * a scheduler series: `runs` seeded repeats of a simulation under a
//    named policy, averaged with a sample standard deviation (the paper's
//    avg +/- sd error bars), or
//  * a derived series: a value computed from (size, graph, platform) and
//    the row built so far (bounds, efficiency ratios, unit conversions).
//
// run_experiment() produces an ExperimentTable that renders as the
// historical fixed-width text tables, as CSV with uniform headers, or as
// flat-row JSON. run_experiment_main() adds the
// standard --csv/--json/--out=FILE flag handling so a bench binary is just
// an Experiment literal plus one call.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/task_graph.hpp"
#include "platform/platform.hpp"
#include "runtime/options.hpp"
#include "sched/static_hints.hpp"
#include "sim/scheduler.hpp"

namespace hetsched {

/// One table cell: mean over the series' runs, sample stddev (0 for a
/// single run or a derived value).
struct ExperimentCell {
  double mean = 0.0;
  double sd = 0.0;
};

struct SeriesSpec {
  /// Column header.
  std::string name;
  /// Scheduler spec for a scheduler series, resolved through the
  /// SchedulerRegistry: a policy name ("dmda", "ws", ...) optionally with
  /// options ("hybrid:static_fraction=0.6"). Empty for a derived series.
  /// Unknown names/options throw before any cell runs.
  std::string scheduler;
  /// Seeded repeats (seed r feeds both noise_seed and the random policy).
  int runs = 1;
  /// Render as "mean+-sd" instead of the mean alone.
  bool show_sd = false;
  /// Fractional digits in the text rendering.
  int precision = 1;
  /// Base options of every run (noise_seed is overridden per repeat and
  /// record_trace forced off).
  RunOptions options;
  /// Worker filter passed to the dmda family (static knowledge hints).
  WorkerFilter filter;
  /// Per-series graph override; empty inherits the experiment graph. The
  /// partitioning axis: series of one sweep may simulate differently
  /// partitioned DAGs of the same problem (e.g. uniform nb vs a tuned
  /// TilePlan, see partition/auto_tune.hpp). A derived series with an
  /// override sees its own graph in `value`/`scale`; bound columns keep
  /// using the experiment graph.
  std::function<TaskGraph(int n)> graph;
  /// Derived series only: the value, given the row built so far (cells of
  /// the series left of this one).
  std::function<double(int n, const TaskGraph& g, const Platform& p,
                       const std::vector<ExperimentCell>& row)>
      value;
  /// Optional post-factor applied to mean and sd (e.g. rescaling a related
  /// platform's results to the unrelated bound, Figure 8).
  std::function<double(int n, const TaskGraph& g, const Platform& p)> scale;
  /// Per-series metric override; empty inherits the experiment metric.
  std::function<double(int n, const Platform& p, double seconds)> metric;
};

struct Experiment {
  std::string title;
  /// Sizes swept (tiles per matrix side).
  std::vector<int> sizes;
  /// Graph per size; empty = the Cholesky DAG.
  std::function<TaskGraph(int n)> graph;
  /// Platform per size (sizes only matter to the related platform).
  std::function<Platform(int n)> platform;
  /// Maps a makespan to the reported value; empty = Cholesky GFLOP/s.
  std::function<double(int n, const Platform& p, double seconds)> metric;
  std::vector<SeriesSpec> series;
  /// Bound-model registry names ("mixed", "alap", ...; see
  /// bounds/bound_model.hpp). Each model appends a `<model>_bnd` column --
  /// the bound mapped through the experiment metric -- and, when the
  /// experiment has at least one scheduler series, a `<model>_ratio`
  /// column: best (smallest) scheduler mean makespan / bound seconds.
  /// Unknown names throw std::invalid_argument before any cell runs.
  std::vector<std::string> bound_models;
  /// Free-form note appended after the table ("Expected shape: ...").
  std::string footnote;
};

struct ExperimentTable {
  std::string title;
  std::vector<std::string> columns;
  std::vector<bool> show_sd;       // per column
  std::vector<int> precision;      // per column
  std::vector<int> sizes;          // per row
  std::vector<std::vector<ExperimentCell>> cells;  // [row][column]
  std::string footnote;

  /// Historical bench format: "# title", fixed-width header, one row per
  /// size, the footnote after a blank line.
  std::string text() const;
  /// Uniform header: size,<col>_mean,<col>_sd,...
  std::string csv() const;
  /// {"experiment": ..., "results": [flat rows]}, one row per (size, column).
  std::string json() const;
};

/// Mean +/- sample stddev of `runs` seeded simulations of `policy` -- a
/// SchedulerRegistry spec string ("dmdas", "hybrid:static_fraction=0.6")
/// -- where seed r overrides options.noise_seed and seeds the random
/// policy; traces off.
/// A non-null `mean_seconds` receives the mean
/// raw makespan (pre-metric, pre-scale) -- the bound-ratio columns divide
/// this by the bound. A failed run throws std::runtime_error with the
/// report's error: a failed run has no makespan to average.
ExperimentCell repeat_averaged(
    const std::string& policy, const TaskGraph& g, const Platform& p, int n,
    const RunOptions& base, int runs, const WorkerFilter& filter,
    const std::function<double(int, const Platform&, double)>& metric,
    double* mean_seconds = nullptr);

/// Runs every (size x series) cell. Scheduler series simulate; derived
/// series see the row built so far (series are evaluated left to right).
ExperimentTable run_experiment(const Experiment& e);

/// run_experiment + the standard emission flags: --csv, --json,
/// --out=FILE (default: text to stdout). Returns a process exit code.
int run_experiment_main(const Experiment& e, int argc, char** argv);

}  // namespace hetsched

// Pluggable makespan-lower-bound models (the "yardsticks" of the paper's
// headline question: how close does a schedule get to the bound?).
//
// Every bound the library knows -- GEMM peak, critical path, area LP,
// mixed LP, the prefix extension and the new ALAP bound -- is a named
// BoundModel in a process-wide registry. The runtime (RunOptions::
// bound_models -> RunReport::bound_ratios), the metrics stream, the
// experiment runner, the CLI's --bounds=LIST and the bench binaries all
// evaluate bounds through this one interface instead of hand-rolling
// per-bound call sites.
//
// The ALAP model (after Quach & Langou, arXiv:1510.05107) schedules the
// DAG as-late-as-possible on unbounded resources and charges per-level
// work to the real platform: with d(t) = bottom-level(t) - fastest(t) (the
// chain of work that must execute strictly *after* t finishes), every task
// of the level set A(y) = { t : d(t) >= y } must finish by l - y in any
// schedule of makespan l, so
//
//   l  >=  y + max( mixed-area-LP(A(y)),  induced-critical-path(A(y)) )
//
// for every threshold y. A(y) is closed under predecessors, its induced
// critical path is max_{t in A(y)} (est(t) + fastest(t)), and the LP gets
// the mixed diagonal-chain constraint restricted to the chain prefix
// contained in A(y). The y = 0 term reproduces the mixed bound and the
// whole-graph critical path exactly, so the ALAP bound is never looser
// than either; positive thresholds add the tail-chain/bulk-area tension
// the mixed bound cannot see, which tightens it at small/medium sizes.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "bounds/bounds.hpp"
#include "core/task_graph.hpp"
#include "platform/platform.hpp"

namespace hetsched::bounds {

/// One named makespan lower bound. Implementations must be pure functions
/// of (graph, platform): the registry is shared process-wide and models
/// are evaluated concurrently by experiment sweeps.
class BoundModel {
 public:
  virtual ~BoundModel() = default;

  /// Registry key ("gemm-peak", "critical-path", "area", "mixed",
  /// "prefix", "alap", ...).
  virtual std::string name() const = 0;

  /// One-line human description for --help text and docs.
  virtual std::string description() const = 0;

  /// Makespan lower bound of `g` on `p`, seconds. Throws
  /// std::invalid_argument when the model cannot price this graph (e.g.
  /// the Cholesky-only prefix bound on an LU DAG).
  virtual double lower_bound_s(const TaskGraph& g,
                               const Platform& p) const = 0;
};

/// Process-wide model registry. The built-in models are registered on
/// first use; register_model() adds (or replaces, by name) custom ones.
/// All methods are thread-safe.
class BoundModelRegistry {
 public:
  static BoundModelRegistry& instance();

  /// Adds `m`, replacing any model with the same name.
  void register_model(std::unique_ptr<BoundModel> m);

  /// The model named `name`, or nullptr. Returned pointers stay valid for
  /// the process lifetime: replacing a name keeps the displaced model
  /// alive (parked in the registry) so concurrent evaluators never
  /// observe a dangling pointer.
  const BoundModel* find(const std::string& name) const;

  /// Registered names, sorted.
  std::vector<std::string> names() const;

 private:
  BoundModelRegistry();
  struct Impl;
  Impl* impl_;
};

/// The model named `name`; throws std::invalid_argument listing the valid
/// names when it does not exist.
const BoundModel& bound_model(const std::string& name);

/// bound_model(name).lower_bound_s(g, p).
double evaluate_bound_s(const std::string& name, const TaskGraph& g,
                        const Platform& p);

/// Registered names, sorted (for usage strings and sweeps).
std::vector<std::string> bound_model_names();

/// "alap|area|critical-path|..." -- the names() joined for usage strings.
std::string bound_model_names_joined(char sep = '|');

/// ASAP / ALAP schedule of `g` on unbounded resources at fastest times:
/// the machinery behind the ALAP bound's level sets, and its slack keys the
/// hybrid policy's pinned spine (sched/hybrid_sched.hpp). All vectors are
/// indexed by task id.
struct AlapAnalysis {
  /// Whole-graph critical path at fastest times.
  double critical_path_s = 0.0;
  /// Earliest start (ASAP) of each task.
  std::vector<double> est;
  /// Latest start on unbounded resources: critical_path_s - bottom_level.
  std::vector<double> alap_start;
  /// alap_start - est: 0 exactly on the critical path(s), larger the more
  /// a task can be deferred without stretching the unbounded makespan.
  std::vector<double> slack;
};
AlapAnalysis alap_analysis(const TaskGraph& g, const TimingTable& t);

/// Mixed-nb variant: per-task durations from Platform::fastest_time_at
/// with each task's own Task::nb. Produces identical values to the
/// TimingTable overload on uniform graphs (every nb == -1).
AlapAnalysis alap_analysis(const TaskGraph& g, const Platform& p);

/// The ALAP bound itself (see the file header). Also exposed directly so
/// tests can compare against mixed_bound() without going through the
/// registry.
double alap_bound_s(const TaskGraph& g, const Platform& p);

}  // namespace hetsched::bounds

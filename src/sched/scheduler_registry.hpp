// Pluggable scheduling-policy registry -- the scheduler-side counterpart of
// bounds::BoundModelRegistry.
//
// Every policy the library knows ("random", "eager", "ws", "priority", the
// dmda family, "hybrid", ...) is a named SchedulerFactory in
// a process-wide registry. The experiment runner, the CLI's --policy, the
// serving daemon and the bench binaries all construct schedulers through
// this one interface instead of the historical make_policy string switch.
//
// Construction parameters travel as a SchedulerSpec: a policy name plus an
// options map, parsed from the single textual grammar
//
//   name[:key=value[,key=value...]]      e.g. "hybrid:static_fraction=0.6"
//
// so per-policy knobs need no bespoke flag plumbing anywhere. Factories
// declare the option keys they understand; validate_scheduler_spec()
// rejects unknown names and unknown/ill-typed options up front (before any
// simulation runs), listing the valid alternatives in the error.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sched/static_hints.hpp"
#include "sim/scheduler.hpp"

namespace hetsched::sched {

/// Parsed scheduler construction request: policy name + options.
struct SchedulerSpec {
  std::string name;
  /// key -> raw value text, e.g. {"static_fraction", "0.6"}.
  std::map<std::string, std::string> options;

  /// Parses "name" or "name:k=v,k=v". Throws std::invalid_argument on an
  /// empty name, an option without '=', or a duplicate key.
  static SchedulerSpec parse(const std::string& text);

  /// Canonical text form ("name" or "name:k=v,..." with sorted keys);
  /// parse(to_string()) round-trips.
  std::string to_string() const;

  bool has(const std::string& key) const;
  std::string get(const std::string& key, const std::string& def = "") const;
  /// Typed accessors; throw std::invalid_argument naming the key on a
  /// value that does not parse (booleans accept 1/0/true/false/on/off).
  double get_double(const std::string& key, double def) const;
  int get_int(const std::string& key, int def) const;
  bool get_bool(const std::string& key, bool def) const;
};

/// Everything a factory may need to build a policy. Graph and platform are
/// borrowed (must outlive the scheduler, as for direct construction).
struct SchedulerContext {
  const TaskGraph* graph = nullptr;
  const Platform* platform = nullptr;
  /// Seeds stochastic policies (the random scheduler); per-repeat in sweeps.
  unsigned seed = 0;
  /// Static-knowledge restriction consulted by the dmda family.
  WorkerFilter filter;
};

/// One named policy constructor. Implementations must be stateless (a
/// factory may be invoked concurrently by experiment sweeps).
class SchedulerFactory {
 public:
  virtual ~SchedulerFactory() = default;

  /// Registry key ("dmda", "hybrid", ...).
  virtual std::string name() const = 0;

  /// One-line human description for --policy help and docs.
  virtual std::string description() const = 0;

  /// Option keys this policy understands; anything else in a spec is an
  /// error. Default: no options.
  virtual std::vector<std::string> option_keys() const { return {}; }

  /// Builds the policy. Must validate option *values* (range, type) and
  /// throw std::invalid_argument naming the offending key.
  virtual std::unique_ptr<Scheduler> create(
      const SchedulerSpec& spec, const SchedulerContext& ctx) const = 0;
};

/// Process-wide factory registry. Built-ins are registered on first use;
/// register_factory() adds (or replaces, by name) custom ones. All methods
/// are thread-safe.
class SchedulerRegistry {
 public:
  static SchedulerRegistry& instance();

  /// Adds `f`, replacing any factory with the same name.
  void register_factory(std::unique_ptr<SchedulerFactory> f);

  /// The factory named `name`, or nullptr. Returned pointers stay valid
  /// for the process lifetime: replacing a name parks the displaced
  /// factory so concurrent users never observe a dangling pointer.
  const SchedulerFactory* find(const std::string& name) const;

  /// Registered names, sorted.
  std::vector<std::string> registered_names() const;

 private:
  SchedulerRegistry();
  struct Impl;
  Impl* impl_;
};

/// The factory named `name`; throws std::invalid_argument listing the
/// valid names when it does not exist.
const SchedulerFactory& scheduler_factory(const std::string& name);

/// Fails fast (std::invalid_argument) on an unknown policy name or an
/// option key the policy does not declare. Value errors surface at
/// create() time.
void validate_scheduler_spec(const SchedulerSpec& spec);

/// validate + create.
std::unique_ptr<Scheduler> make_scheduler(const SchedulerSpec& spec,
                                          const SchedulerContext& ctx);

/// Convenience: parse `spec_text` ("dmdas", "hybrid:static_fraction=0.6")
/// and build against (g, p, seed, filter).
std::unique_ptr<Scheduler> make_scheduler(const std::string& spec_text,
                                          const TaskGraph& g,
                                          const Platform& p, unsigned seed = 0,
                                          WorkerFilter filter = {});

/// Registered names, sorted (for usage strings and sweeps).
std::vector<std::string> scheduler_names();

/// "dmda|dmdas|..." -- the registered names joined for usage strings.
std::string scheduler_names_joined(char sep = '|');

/// Multi-line "name - description" listing (CLI `--policy help`).
std::string scheduler_help_text();

}  // namespace hetsched::sched

#include "sched/scheduler_registry.hpp"

#include <algorithm>
#include <mutex>
#include <stdexcept>

#include "sched/dmda.hpp"
#include "sched/eager_sched.hpp"
#include "sched/hybrid_sched.hpp"
#include "sched/priorities.hpp"
#include "sched/priority_sched.hpp"
#include "sched/random_sched.hpp"
#include "sched/ws_sched.hpp"

namespace hetsched::sched {

// ---- SchedulerSpec --------------------------------------------------------

SchedulerSpec SchedulerSpec::parse(const std::string& text) {
  SchedulerSpec spec;
  const std::size_t colon = text.find(':');
  spec.name = text.substr(0, colon);
  if (spec.name.empty())
    throw std::invalid_argument("scheduler spec '" + text +
                                "': empty policy name");
  if (colon == std::string::npos) return spec;
  std::size_t pos = colon + 1;
  while (pos <= text.size()) {
    std::size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    const std::string item = text.substr(pos, comma - pos);
    const std::size_t eq = item.find('=');
    if (item.empty() || eq == std::string::npos || eq == 0)
      throw std::invalid_argument("scheduler spec '" + text +
                                  "': options must be key=value, got '" +
                                  item + "'");
    const std::string key = item.substr(0, eq);
    if (spec.options.count(key) != 0)
      throw std::invalid_argument("scheduler spec '" + text +
                                  "': duplicate option '" + key + "'");
    spec.options[key] = item.substr(eq + 1);
    pos = comma + 1;
  }
  return spec;
}

std::string SchedulerSpec::to_string() const {
  std::string out = name;
  bool first = true;
  for (const auto& [k, v] : options) {  // std::map: sorted keys
    out += first ? ':' : ',';
    first = false;
    out += k;
    out += '=';
    out += v;
  }
  return out;
}

bool SchedulerSpec::has(const std::string& key) const {
  return options.count(key) != 0;
}

std::string SchedulerSpec::get(const std::string& key,
                               const std::string& def) const {
  const auto it = options.find(key);
  return it == options.end() ? def : it->second;
}

double SchedulerSpec::get_double(const std::string& key, double def) const {
  const auto it = options.find(key);
  if (it == options.end()) return def;
  try {
    std::size_t used = 0;
    const double v = std::stod(it->second, &used);
    if (used != it->second.size()) throw std::invalid_argument("trailing");
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument("scheduler option " + key + "='" +
                                it->second + "': expected a number");
  }
}

int SchedulerSpec::get_int(const std::string& key, int def) const {
  const auto it = options.find(key);
  if (it == options.end()) return def;
  try {
    std::size_t used = 0;
    const int v = std::stoi(it->second, &used);
    if (used != it->second.size()) throw std::invalid_argument("trailing");
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument("scheduler option " + key + "='" +
                                it->second + "': expected an integer");
  }
}

bool SchedulerSpec::get_bool(const std::string& key, bool def) const {
  const auto it = options.find(key);
  if (it == options.end()) return def;
  const std::string& v = it->second;
  if (v == "1" || v == "true" || v == "on" || v == "yes") return true;
  if (v == "0" || v == "false" || v == "off" || v == "no") return false;
  throw std::invalid_argument("scheduler option " + key + "='" + v +
                              "': expected a boolean (on/off)");
}

// ---- built-in factories ---------------------------------------------------

namespace {

const TaskGraph& require_graph(const SchedulerContext& ctx,
                               const std::string& who) {
  if (ctx.graph == nullptr)
    throw std::invalid_argument(who + ": SchedulerContext.graph is required");
  return *ctx.graph;
}

const Platform& require_platform(const SchedulerContext& ctx,
                                 const std::string& who) {
  if (ctx.platform == nullptr)
    throw std::invalid_argument(who +
                                ": SchedulerContext.platform is required");
  return *ctx.platform;
}

class RandomFactory final : public SchedulerFactory {
 public:
  std::string name() const override { return "random"; }
  std::string description() const override {
    return "acceleration-weighted random worker, FIFO per worker";
  }
  std::unique_ptr<Scheduler> create(const SchedulerSpec&,
                                    const SchedulerContext& ctx)
      const override {
    return std::make_unique<RandomScheduler>(ctx.seed);
  }
};

class EagerFactory final : public SchedulerFactory {
 public:
  std::string name() const override { return "eager"; }
  std::string description() const override {
    return "central FIFO, work-conserving baseline";
  }
  std::unique_ptr<Scheduler> create(const SchedulerSpec&,
                                    const SchedulerContext&) const override {
    return std::make_unique<EagerScheduler>();
  }
};

class WsFactory final : public SchedulerFactory {
 public:
  std::string name() const override { return "ws"; }
  std::string description() const override {
    return "round-robin per-worker deques with back-of-queue stealing";
  }
  std::unique_ptr<Scheduler> create(const SchedulerSpec&,
                                    const SchedulerContext&) const override {
    return std::make_unique<WorkStealingScheduler>();
  }
};

class PriorityFactory final : public SchedulerFactory {
 public:
  std::string name() const override { return "priority"; }
  std::string description() const override {
    return "central max-heap; levels=on ranks by bottom level instead of "
           "submission order";
  }
  std::vector<std::string> option_keys() const override { return {"levels"}; }
  std::unique_ptr<Scheduler> create(const SchedulerSpec& spec,
                                    const SchedulerContext& ctx)
      const override {
    std::vector<double> prio;
    if (spec.get_bool("levels", false)) {
      const TaskGraph& g = require_graph(ctx, "priority:levels=on");
      const Platform& p = require_platform(ctx, "priority:levels=on");
      prio = bottom_levels_fastest(g, p);
    }
    return std::make_unique<CentralPriorityScheduler>(std::move(prio));
  }
};

class DmdaFamilyFactory final : public SchedulerFactory {
 public:
  explicit DmdaFamilyFactory(bool sorted) : sorted_(sorted) {}
  std::string name() const override { return sorted_ ? "dmdas" : "dmda"; }
  std::string description() const override {
    return sorted_ ? "dmda with bottom-level-sorted queues (the paper's "
                     "HEFT-like policy)"
                   : "min-estimated-completion-time commit at push, FIFO pop";
  }
  std::unique_ptr<Scheduler> create(const SchedulerSpec&,
                                    const SchedulerContext& ctx)
      const override {
    if (!sorted_)
      return std::make_unique<DmdaScheduler>(make_dmda(ctx.filter));
    const TaskGraph& g = require_graph(ctx, "dmdas");
    const Platform& p = require_platform(ctx, "dmdas");
    return std::make_unique<DmdaScheduler>(make_dmdas(g, p, ctx.filter));
  }

 private:
  bool sorted_;
};

class HybridFactory final : public SchedulerFactory {
 public:
  std::string name() const override { return "hybrid"; }
  std::string description() const override {
    return "static spine pinned to a placement + dmda remainder with "
           "stealing (static_fraction=F, steal_static=B, "
           "spine=alap|trsm-dist)";
  }
  std::vector<std::string> option_keys() const override {
    return {"static_fraction", "steal_static", "spine"};
  }
  std::unique_ptr<Scheduler> create(const SchedulerSpec& spec,
                                    const SchedulerContext& ctx)
      const override {
    const TaskGraph& g = require_graph(ctx, "hybrid");
    const Platform& p = require_platform(ctx, "hybrid");
    HybridScheduler::Options opt;
    opt.static_fraction = spec.get_double("static_fraction", 0.5);
    opt.steal_static = spec.get_bool("steal_static", false);
    const std::string spine = spec.get("spine", "alap");
    if (spine == "alap") {
      opt.spine = HybridScheduler::Options::Spine::kAlap;
    } else if (spine == "trsm-dist") {
      opt.spine = HybridScheduler::Options::Spine::kTrsmDist;
    } else {
      throw std::invalid_argument("scheduler option spine='" + spine +
                                  "': expected alap or trsm-dist");
    }
    opt.filter = ctx.filter;
    return std::make_unique<HybridScheduler>(g, p, std::move(opt));
  }
};

}  // namespace

// ---- registry -------------------------------------------------------------

struct SchedulerRegistry::Impl {
  mutable std::mutex mu;
  // Insertion-ordered; replaced factories are parked at their old slot
  // with an empty name so outstanding pointers stay valid.
  std::vector<std::unique_ptr<SchedulerFactory>> factories;
  std::vector<std::string> keys;  // parallel to factories; "" = displaced
};

SchedulerRegistry::SchedulerRegistry() : impl_(new Impl) {
  register_factory(std::make_unique<RandomFactory>());
  register_factory(std::make_unique<EagerFactory>());
  register_factory(std::make_unique<WsFactory>());
  register_factory(std::make_unique<PriorityFactory>());
  register_factory(std::make_unique<DmdaFamilyFactory>(/*sorted=*/false));
  register_factory(std::make_unique<DmdaFamilyFactory>(/*sorted=*/true));
  register_factory(std::make_unique<HybridFactory>());
}

SchedulerRegistry& SchedulerRegistry::instance() {
  static SchedulerRegistry reg;
  return reg;
}

void SchedulerRegistry::register_factory(std::unique_ptr<SchedulerFactory> f) {
  if (!f) throw std::invalid_argument("register_factory: null factory");
  const std::string key = f->name();
  if (key.empty())
    throw std::invalid_argument("register_factory: factory with empty name");
  std::lock_guard<std::mutex> lock(impl_->mu);
  for (std::size_t i = 0; i < impl_->keys.size(); ++i)
    if (impl_->keys[i] == key) impl_->keys[i].clear();  // displace, keep alive
  impl_->factories.push_back(std::move(f));
  impl_->keys.push_back(key);
}

const SchedulerFactory* SchedulerRegistry::find(const std::string& name) const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  for (std::size_t i = 0; i < impl_->keys.size(); ++i)
    if (impl_->keys[i] == name) return impl_->factories[i].get();
  return nullptr;
}

std::vector<std::string> SchedulerRegistry::registered_names() const {
  std::vector<std::string> out;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    for (const std::string& k : impl_->keys)
      if (!k.empty()) out.push_back(k);
  }
  std::sort(out.begin(), out.end());
  return out;
}

const SchedulerFactory& scheduler_factory(const std::string& name) {
  const SchedulerFactory* f = SchedulerRegistry::instance().find(name);
  if (f == nullptr)
    throw std::invalid_argument("unknown scheduler '" + name + "' (expected " +
                                scheduler_names_joined() + ")");
  return *f;
}

void validate_scheduler_spec(const SchedulerSpec& spec) {
  const SchedulerFactory& f = scheduler_factory(spec.name);
  const std::vector<std::string> keys = f.option_keys();
  for (const auto& [k, v] : spec.options) {
    (void)v;
    if (std::find(keys.begin(), keys.end(), k) == keys.end()) {
      std::string known;
      for (const std::string& ok : keys) {
        if (!known.empty()) known += ", ";
        known += ok;
      }
      throw std::invalid_argument(
          "scheduler '" + spec.name + "' does not understand option '" + k +
          "'" + (known.empty() ? " (it takes none)" : " (knows: " + known +
                                                      ")"));
    }
  }
}

std::unique_ptr<Scheduler> make_scheduler(const SchedulerSpec& spec,
                                          const SchedulerContext& ctx) {
  validate_scheduler_spec(spec);
  return scheduler_factory(spec.name).create(spec, ctx);
}

std::unique_ptr<Scheduler> make_scheduler(const std::string& spec_text,
                                          const TaskGraph& g,
                                          const Platform& p, unsigned seed,
                                          WorkerFilter filter) {
  SchedulerContext ctx;
  ctx.graph = &g;
  ctx.platform = &p;
  ctx.seed = seed;
  ctx.filter = std::move(filter);
  return make_scheduler(SchedulerSpec::parse(spec_text), ctx);
}

std::vector<std::string> scheduler_names() {
  return SchedulerRegistry::instance().registered_names();
}

std::string scheduler_names_joined(char sep) {
  std::string out;
  for (const std::string& n : scheduler_names()) {
    if (!out.empty()) out.push_back(sep);
    out += n;
  }
  return out;
}

std::string scheduler_help_text() {
  std::string out;
  for (const std::string& n : scheduler_names()) {
    out += "  ";
    out += n;
    out.append(n.size() < 12 ? 12 - n.size() : 1, ' ');
    out += scheduler_factory(n).description();
    out += '\n';
  }
  return out;
}

}  // namespace hetsched::sched

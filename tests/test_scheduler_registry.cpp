// SchedulerRegistry and SchedulerSpec: the spec grammar, up-front
// validation of names and option keys, the built-in catalogue, and the
// replace-parks-displaced lifetime guarantee (mirroring the
// BoundModelRegistry contract, see test_bound_model.cpp).
#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/cholesky_dag.hpp"
#include "platform/calibration.hpp"
#include "sched/eager_sched.hpp"
#include "sched/scheduler_registry.hpp"
#include "sim/simulator.hpp"
#include "tests/test_util.hpp"

namespace hetsched {
namespace {

using sched::SchedulerContext;
using sched::SchedulerSpec;

// ---- SchedulerSpec grammar -------------------------------------------------

TEST(SchedulerSpec, ParsesBareName) {
  const SchedulerSpec s = SchedulerSpec::parse("dmdas");
  EXPECT_EQ(s.name, "dmdas");
  EXPECT_TRUE(s.options.empty());
  EXPECT_EQ(s.to_string(), "dmdas");
}

TEST(SchedulerSpec, ParsesOptionsAndRoundTrips) {
  const SchedulerSpec s =
      SchedulerSpec::parse("hybrid:steal_static=on,static_fraction=0.6");
  EXPECT_EQ(s.name, "hybrid");
  ASSERT_EQ(s.options.size(), 2u);
  EXPECT_TRUE(s.has("static_fraction"));
  EXPECT_DOUBLE_EQ(s.get_double("static_fraction", 0.0), 0.6);
  EXPECT_TRUE(s.get_bool("steal_static", false));
  EXPECT_EQ(s.get("missing", "fallback"), "fallback");
  // Canonical form sorts keys; parse(to_string()) is the identity.
  const std::string canon = s.to_string();
  EXPECT_EQ(canon, "hybrid:static_fraction=0.6,steal_static=on");
  const SchedulerSpec again = SchedulerSpec::parse(canon);
  EXPECT_EQ(again.name, s.name);
  EXPECT_EQ(again.options, s.options);
}

TEST(SchedulerSpec, RejectsMalformedText) {
  EXPECT_THROW(SchedulerSpec::parse(""), std::invalid_argument);
  EXPECT_THROW(SchedulerSpec::parse(":k=v"), std::invalid_argument);
  EXPECT_THROW(SchedulerSpec::parse("dmda:novalue"), std::invalid_argument);
  EXPECT_THROW(SchedulerSpec::parse("dmda:k=1,k=2"), std::invalid_argument);
}

TEST(SchedulerSpec, TypedAccessorsNameTheBadKey) {
  const SchedulerSpec s = SchedulerSpec::parse("x:frac=abc,flag=maybe,n=1.5");
  try {
    s.get_double("frac", 0.0);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("frac"), std::string::npos);
  }
  EXPECT_THROW(s.get_bool("flag", false), std::invalid_argument);
  EXPECT_THROW(s.get_int("n", 0), std::invalid_argument);
}

// ---- Registry catalogue ----------------------------------------------------

TEST(SchedulerRegistry, BuiltInsAreRegistered) {
  const std::vector<std::string> names = sched::scheduler_names();
  for (const char* expected :
       {"dmda", "dmdas", "eager", "hybrid", "priority", "random", "ws"}) {
    EXPECT_NE(sched::SchedulerRegistry::instance().find(expected), nullptr)
        << expected;
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  for (const std::string& n : names) {
    EXPECT_FALSE(sched::scheduler_factory(n).description().empty()) << n;
    EXPECT_NE(sched::scheduler_help_text().find(n), std::string::npos) << n;
  }
  EXPECT_NE(sched::scheduler_names_joined('|').find("dmda|"),
            std::string::npos);
}

TEST(SchedulerRegistry, UnknownNameThrowsListingNames) {
  EXPECT_EQ(sched::SchedulerRegistry::instance().find("nope"), nullptr);
  try {
    sched::scheduler_factory("nope");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("nope"), std::string::npos);
    EXPECT_NE(msg.find("dmda"), std::string::npos);
    EXPECT_NE(msg.find("hybrid"), std::string::npos);
  }
}

TEST(SchedulerRegistry, UnknownOptionKeyRejectedUpFront) {
  try {
    sched::validate_scheduler_spec(SchedulerSpec::parse("hybrid:bogus=1"));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("bogus"), std::string::npos);
    EXPECT_NE(msg.find("static_fraction"), std::string::npos);
  }
  // Policies declaring no options reject any key.
  EXPECT_THROW(
      sched::validate_scheduler_spec(SchedulerSpec::parse("eager:x=1")),
      std::invalid_argument);
}

TEST(SchedulerRegistry, OutOfRangeOptionValueRejected) {
  const TaskGraph g = testutil::chain4();
  const Platform p = testutil::tiny_hetero();
  try {
    sched::make_scheduler("hybrid:static_fraction=2", g, p);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("static_fraction"),
              std::string::npos);
  }
}

// ---- Every policy constructs and runs --------------------------------------

TEST(SchedulerRegistry, EveryRegisteredPolicySimulates) {
  const TaskGraph g = build_cholesky_dag(4);
  const Platform p = mirage_platform().without_communication();
  for (const std::string& name : sched::scheduler_names()) {
    auto s = sched::make_scheduler(name, g, p, /*seed=*/1);
    ASSERT_NE(s, nullptr) << name;
    const RunReport r = simulate(g, p, *s);
    EXPECT_GT(r.makespan_s, 0.0) << name;
    EXPECT_EQ(static_cast<int>(r.trace.compute().size()), g.num_tasks())
        << name;
  }
}

TEST(SchedulerRegistry, RandomPolicyIsSeedDeterministic) {
  const TaskGraph g = build_cholesky_dag(6);
  const Platform p = mirage_platform().without_communication();
  auto a = sched::make_scheduler("random", g, p, /*seed=*/7);
  auto b = sched::make_scheduler("random", g, p, /*seed=*/7);
  EXPECT_EQ(simulate(g, p, *a).makespan_s, simulate(g, p, *b).makespan_s);
}

// ---- Replacement lifetime guarantee ----------------------------------------

class TaggedEagerFactory final : public sched::SchedulerFactory {
 public:
  explicit TaggedEagerFactory(std::string tag) : tag_(std::move(tag)) {}
  std::string name() const override { return "test-tagged"; }
  std::string description() const override { return tag_; }
  std::unique_ptr<Scheduler> create(
      const SchedulerSpec&, const SchedulerContext&) const override {
    return std::make_unique<EagerScheduler>();
  }

 private:
  std::string tag_;
};

TEST(SchedulerRegistry, ReplaceKeepsDisplacedFactoryAlive) {
  auto& reg = sched::SchedulerRegistry::instance();
  reg.register_factory(std::make_unique<TaggedEagerFactory>("one"));
  const sched::SchedulerFactory* first = reg.find("test-tagged");
  ASSERT_NE(first, nullptr);
  reg.register_factory(std::make_unique<TaggedEagerFactory>("two"));
  const sched::SchedulerFactory* second = reg.find("test-tagged");
  ASSERT_NE(second, nullptr);
  EXPECT_NE(first, second);
  // The displaced factory is parked, not destroyed: old pointers stay
  // usable for the process lifetime.
  EXPECT_EQ(first->description(), "one");
  EXPECT_EQ(second->description(), "two");
  const TaskGraph g = testutil::chain4();
  const Platform p = testutil::tiny_hetero();
  auto s = sched::make_scheduler("test-tagged", g, p);
  EXPECT_EQ(simulate(g, p, *s).makespan_s,
            simulate(g, p, *sched::make_scheduler("eager", g, p)).makespan_s);
}

}  // namespace
}  // namespace hetsched

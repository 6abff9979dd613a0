#include "kernels/engine.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "kernels/gemm_packed.hpp"

namespace hetsched::kernels {
namespace {

// Requests clamp down the ladder to the best tier the CPU supports:
// avx512 -> avx2 -> generic.
Tier clamp_to_native(Tier t) {
  if (t == Tier::kAvx512 && !detail::avx512_supported()) t = Tier::kAvx2;
  if (t == Tier::kAvx2 && !detail::avx2_supported()) t = Tier::kGeneric;
  return t;
}

Tier best_native() {
  if (detail::avx512_supported()) return Tier::kAvx512;
  if (detail::avx2_supported()) return Tier::kAvx2;
  return Tier::kGeneric;
}

// Startup choice: the best supported tier, unless HETSCHED_KERNEL_TIER
// pins one ("generic" | "avx2" | "avx512"; unsupported requests clamp
// down, unrecognized values warn once on stderr and are ignored). Cached
// so reset_engine_tier() neither re-reads the environment nor re-warns.
Tier startup_tier() {
  static const Tier choice = [] {
    const char* env = std::getenv("HETSCHED_KERNEL_TIER");
    return env != nullptr ? detail::resolve_tier_env(env) : best_native();
  }();
  return choice;
}

std::atomic<Tier>& active_tier() {
  static std::atomic<Tier> tier{startup_tier()};
  return tier;
}

}  // namespace

Tier native_tier() { return best_native(); }

// Dispatch contract (see engine.hpp): one relaxed load per kernel call --
// each public kernel snapshots the tier once and derives every
// micro-kernel and base-case choice of that call from the snapshot, so a
// concurrent set_engine_tier() can never hand one call a mixed
// configuration.
Tier engine_tier() { return active_tier().load(std::memory_order_relaxed); }

void set_engine_tier(Tier t) {
  active_tier().store(clamp_to_native(t), std::memory_order_relaxed);
}

void reset_engine_tier() {
  active_tier().store(startup_tier(), std::memory_order_relaxed);
}

const char* tier_name(Tier t) {
  switch (t) {
    case Tier::kAvx512:
      return "avx512";
    case Tier::kAvx2:
      return "avx2";
    case Tier::kGeneric:
      break;
  }
  return "generic";
}

namespace detail {

Tier parse_tier_env(const char* value, bool* recognized) noexcept {
  *recognized = true;
  if (std::strcmp(value, "generic") == 0) return Tier::kGeneric;
  if (std::strcmp(value, "avx2") == 0) return clamp_to_native(Tier::kAvx2);
  if (std::strcmp(value, "avx512") == 0) return clamp_to_native(Tier::kAvx512);
  *recognized = false;
  return best_native();
}

Tier resolve_tier_env(const char* value) noexcept {
  bool recognized = false;
  const Tier t = parse_tier_env(value, &recognized);
  if (!recognized)
    std::fprintf(stderr,
                 "hetsched: ignoring unrecognized HETSCHED_KERNEL_TIER=\"%s\""
                 " (valid tiers: generic, avx2, avx512)\n",
                 value);
  return t;
}

}  // namespace detail

}  // namespace hetsched::kernels

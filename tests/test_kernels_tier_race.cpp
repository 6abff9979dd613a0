// One tier snapshot per kernel call (kernels/engine.hpp): a thread that
// flips set_engine_tier() between generic and native while another thread
// runs the recursive POTRF and TRSM must never hand one call a mix of
// tiers. Every racing result has to be bitwise equal to the result of a
// single-tier call; a call that switched tier between its base solves and
// packed GEMMs would land on neither.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "core/dense_matrix.hpp"
#include "core/kernels.hpp"
#include "kernels/engine.hpp"

namespace hetsched {
namespace {

constexpr int kNb = 96;  // several recursion levels, packed GEMM at each

std::vector<double> spd_tile(unsigned seed) {
  const DenseMatrix a = DenseMatrix::random_spd(kNb, seed);
  std::vector<double> t(static_cast<std::size_t>(kNb) * kNb);
  for (int j = 0; j < kNb; ++j)
    for (int i = 0; i < kNb; ++i)
      t[static_cast<std::size_t>(i) + static_cast<std::size_t>(j) * kNb] =
          a(i, j);
  return t;
}

struct Operands {
  std::vector<double> spd = spd_tile(91);
  std::vector<double> l = [] {
    auto f = spd_tile(92);
    kernels::potrf_info(kNb, f.data(), kNb);
    return f;
  }();
  std::vector<double> rhs = spd_tile(93);
};

struct Result {
  std::vector<double> potrf, trsm;
};

Result run_once(const Operands& ops) {
  Result r{ops.spd, ops.rhs};
  EXPECT_EQ(kernels::potrf_info(kNb, r.potrf.data(), kNb), 0);
  kernels::trsm(kNb, ops.l.data(), kNb, r.trsm.data(), kNb);
  return r;
}

bool same_bits(const std::vector<double>& x, const std::vector<double>& y) {
  return std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
}

TEST(KernelTierRace, EveryCallUsesOneTier) {
  const Operands ops;
  kernels::set_engine_tier(kernels::Tier::kGeneric);
  const Result generic = run_once(ops);
  kernels::set_engine_tier(kernels::native_tier());
  const Result native = run_once(ops);
  kernels::reset_engine_tier();

  std::atomic<bool> stop{false};
  std::thread flipper([&] {
    bool to_generic = true;
    while (!stop.load(std::memory_order_relaxed)) {
      kernels::set_engine_tier(to_generic ? kernels::Tier::kGeneric
                                          : kernels::native_tier());
      to_generic = !to_generic;
      std::this_thread::yield();
    }
  });
  int potrf_mixed = 0, trsm_mixed = 0;
  for (int it = 0; it < 300; ++it) {
    const Result r = run_once(ops);
    if (!same_bits(r.potrf, generic.potrf) &&
        !same_bits(r.potrf, native.potrf))
      ++potrf_mixed;
    if (!same_bits(r.trsm, generic.trsm) && !same_bits(r.trsm, native.trsm))
      ++trsm_mixed;
  }
  stop.store(true, std::memory_order_relaxed);
  flipper.join();
  kernels::reset_engine_tier();
  EXPECT_EQ(potrf_mixed, 0);
  EXPECT_EQ(trsm_mixed, 0);
}

}  // namespace
}  // namespace hetsched

// Per-region pack geometry: resolve_pack_geometry clamping, the
// thread-local PackGeometryBinding (nesting, restore) and -- the TSan CI
// target -- concurrent kernels on shared tiles under *different*
// geometries, each packing through its own thread's scratch.
#include "kernels/pack_geometry.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <thread>
#include <vector>

#include "core/kernels.hpp"
#include "kernels/ref.hpp"

namespace hetsched {
namespace {

namespace kk = kernels;
namespace kd = kernels::detail;

TEST(PackGeometryRegions, ResolveClampsToRegion) {
  const kk::PackGeometry base = kk::pack_geometry();
  // A tiny region packs panels sized to itself, kMR-rounded.
  const kk::PackGeometry small = kk::resolve_pack_geometry(20);
  EXPECT_EQ(small.kc, 20);
  EXPECT_EQ(small.mc, kd::round_up(20, kd::kMR));
  // Regions at least as deep as the global blocking keep it.
  const kk::PackGeometry big = kk::resolve_pack_geometry(4096);
  EXPECT_EQ(big.kc, base.kc);
  EXPECT_EQ(big.mc, base.mc);
  // Non-positive extents mean "no region": the global geometry verbatim.
  const kk::PackGeometry none = kk::resolve_pack_geometry(0);
  EXPECT_EQ(none.kc, base.kc);
  EXPECT_EQ(none.mc, base.mc);
}

TEST(PackGeometryRegions, BindingNestsAndRestores) {
  const kk::PackGeometry base = kd::active_pack_geometry();
  {
    kk::PackGeometryBinding outer(kk::PackGeometry{32, 32});
    EXPECT_EQ(kd::active_pack_geometry().kc, 32);
    {
      kk::PackGeometryBinding inner(kk::PackGeometry{16, 16});
      EXPECT_EQ(kd::active_pack_geometry().kc, 16);
    }
    EXPECT_EQ(kd::active_pack_geometry().kc, 32);
  }
  EXPECT_EQ(kd::active_pack_geometry().kc, base.kc);
  EXPECT_EQ(kd::active_pack_geometry().mc, base.mc);
}

// Several threads hammer GEMMs on the SAME input tiles, each under its own
// region geometry (as plan-executor workers on different TilePlan regions
// do). Per thread the first call must match the reference GEMM to
// rounding and every repeat must be bit-for-bit equal to the first call
// under the *same* geometry, so a geometry or scratch panel leaking across
// threads shows up as wrong numbers (and TSan sees any shared write). The
// per-thread reference is essential: different kc values legitimately
// round differently (the micro-kernel stores one accumulated block per
// depth slice), so a global reference would mask a leak behind expected
// noise.
TEST(PackGeometryRegions, ConcurrentMixedGeometriesStayIsolated) {
  const int nb = 64;
  std::vector<double> a(static_cast<std::size_t>(nb) * nb);
  std::vector<double> b(static_cast<std::size_t>(nb) * nb);
  std::vector<double> c0(static_cast<std::size_t>(nb) * nb);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = 0.5 + 1e-3 * static_cast<double>(i % 89);
    b[i] = -0.25 + 1e-3 * static_cast<double>((i * 7) % 97);
    c0[i] = 1.0 + 1e-4 * static_cast<double>((i * 13) % 101);
  }

  // Geometry-independent oracle: every blocking agrees with it to rounding.
  std::vector<double> oracle = c0;
  kk::ref::gemm(nb, a.data(), nb, b.data(), nb, oracle.data(), nb);

  // nb = the full-tile geometry; the rest are plan-region blockings.
  const int region_nb[] = {nb, 16, 24, 32, 48};
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (const int region : region_nb) {
    workers.emplace_back([&, region] {
      kk::PackGeometryBinding geometry(kk::resolve_pack_geometry(region));
      // Reference: this thread's first call under its geometry.
      std::vector<double> expect = c0;
      kk::gemm(nb, a.data(), nb, b.data(), nb, expect.data(), nb);
      for (std::size_t i = 0; i < expect.size(); ++i)
        if (std::abs(expect[i] - oracle[i]) > 1e-9) {
          failures.fetch_add(1, std::memory_order_relaxed);
          return;
        }

      std::vector<double> c(c0);
      for (int iter = 0; iter < 25; ++iter) {
        std::copy(c0.begin(), c0.end(), c.begin());
        kk::gemm(nb, a.data(), nb, b.data(), nb, c.data(), nb);
        if (std::memcmp(c.data(), expect.data(),
                        c.size() * sizeof(double)) != 0) {
          failures.fetch_add(1, std::memory_order_relaxed);
          return;
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();
  EXPECT_EQ(failures.load(), 0)
      << "a region geometry gave a wrong product or a packed panel leaked "
         "across threads";
}

}  // namespace
}  // namespace hetsched

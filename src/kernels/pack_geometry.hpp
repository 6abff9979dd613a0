// Single source of truth for the packed-engine blocking geometry.
//
// The packed GEMM core and the per-call scratch sizing both derive panel
// sizes from the helpers in this header, so the scratch requests always
// match what the packing loops write.
//
// kMR/kNR stay compile-time: the micro-kernel's register tile is part of
// the ABI of every packed panel.
#pragma once

#include <cstddef>

namespace hetsched::kernels {

/// Cache-blocking geometry of the packed GEMM engine.
struct PackGeometry {
  int kc;  ///< depth of one packed slice (L1/L2 blocking)
  int mc;  ///< height of one packed A block (L2 blocking); kMR multiple
};

/// The process-wide geometry kernel calls pack with (256 x 128).
PackGeometry pack_geometry() noexcept;

/// Geometry for kernels operating on a tile region of side `region_nb`:
/// the process-wide geometry with kc clamped to the region depth and mc
/// clamped to the region height (kMR-rounded). Small regions thus pack
/// panels sized to what they can actually use instead of the global
/// blocking of the full-size tiles. region_nb <= 0 returns the global
/// geometry unchanged.
PackGeometry resolve_pack_geometry(int region_nb) noexcept;

/// RAII thread-local geometry override. While alive, this thread's
/// kernel calls use `g` instead of the process-wide geometry; other
/// threads are unaffected, so workers executing different TilePlan
/// regions concurrently each pack with their own blocking. Bindings nest;
/// destruction restores the previous binding (or the global geometry).
class PackGeometryBinding {
 public:
  explicit PackGeometryBinding(PackGeometry g) noexcept;
  ~PackGeometryBinding();
  PackGeometryBinding(const PackGeometryBinding&) = delete;
  PackGeometryBinding& operator=(const PackGeometryBinding&) = delete;

 private:
  PackGeometry prev_{0, 0};
  bool had_prev_ = false;
};

namespace detail {

inline constexpr int kMR = 8;  ///< micro-tile rows (register block)
inline constexpr int kNR = 4;  ///< micro-tile columns
inline constexpr int kKCDefault = 256;  ///< default PackGeometry::kc
inline constexpr int kMCDefault = 128;  ///< default PackGeometry::mc

inline constexpr int round_up(int v, int to) { return (v + to - 1) / to * to; }

/// Doubles one gemm_packed call needs for its per-slice B scratch panel.
inline std::size_t b_call_doubles(int n, const PackGeometry& g) {
  return static_cast<std::size_t>(round_up(n, kNR)) *
         static_cast<std::size_t>(g.kc);
}

/// Doubles one gemm_packed call needs for its per-block A scratch panel.
inline std::size_t a_call_doubles(int m, const PackGeometry& g) {
  const int mc = m < g.mc ? m : g.mc;
  return static_cast<std::size_t>(round_up(mc, kMR)) *
         static_cast<std::size_t>(g.kc);
}

/// Geometry the calling thread's kernels pack with: the innermost live
/// PackGeometryBinding, else the process-wide geometry.
PackGeometry active_pack_geometry() noexcept;

}  // namespace detail
}  // namespace hetsched::kernels

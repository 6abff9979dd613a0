#include "kernels/pack_geometry.hpp"

#include <algorithm>

namespace hetsched::kernels {
namespace {

// Thread-local override installed by PackGeometryBinding.
thread_local PackGeometry tl_geometry{0, 0};
thread_local bool tl_bound = false;

}  // namespace

PackGeometry pack_geometry() noexcept {
  return {detail::kKCDefault, detail::kMCDefault};
}

PackGeometry resolve_pack_geometry(int region_nb) noexcept {
  PackGeometry g = pack_geometry();
  if (region_nb <= 0) return g;
  g.kc = std::min(g.kc, std::max(region_nb, 1));
  const int mc_cap = detail::round_up(std::max(region_nb, 1), detail::kMR);
  g.mc = std::min(g.mc, mc_cap);
  return g;
}

PackGeometryBinding::PackGeometryBinding(PackGeometry g) noexcept
    : prev_(tl_geometry), had_prev_(tl_bound) {
  tl_geometry = g;
  tl_bound = true;
}

PackGeometryBinding::~PackGeometryBinding() {
  tl_geometry = prev_;
  tl_bound = had_prev_;
}

namespace detail {

PackGeometry active_pack_geometry() noexcept {
  return tl_bound ? tl_geometry : pack_geometry();
}

}  // namespace detail
}  // namespace hetsched::kernels

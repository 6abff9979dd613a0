#include "runtime/plan_backend.hpp"

#include <cstdint>

#include "core/numeric_error.hpp"
#include "kernels/pack_geometry.hpp"
#include "runtime/engine.hpp"

namespace hetsched {

void PlanComputeBackend::on_drive_start(RunEngine& engine) {
  cache_ = kernels::resolve_pack_cache(engine.options().pack_cache);
  if (cache_ == nullptr) return;
  // Plan blocks reuse addresses across runs just like tiles do (a reused
  // PlanStorage keeps the very same ones); orphan panels cached for a
  // previous occupant before the first lookup.
  for (int h = 0; h < storage_.layout().num_handles(); ++h)
    if (const double* b = storage_.block(h)) cache_->bump_epoch(b);
  cache_baseline_ = cache_->stats();
}

void PlanComputeBackend::on_drive_end(RunEngine& engine) {
  if (cache_ == nullptr) return;
  const kernels::PackCacheStats s = cache_->stats();
  RunReport& res = engine.report();
  res.pack_hits = static_cast<std::int64_t>(s.hits - cache_baseline_.hits);
  res.pack_misses =
      static_cast<std::int64_t>(s.misses - cache_baseline_.misses);
  res.pack_evictions =
      static_cast<std::int64_t>(s.evictions - cache_baseline_.evictions);
  res.pack_bytes =
      static_cast<std::int64_t>(s.bytes_packed - cache_baseline_.bytes_packed);
}

bool PlanComputeBackend::run_task(RunEngine& engine, int, int task,
                                  const std::atomic<bool>*,
                                  std::string* error) {
  const Task& t = engine.graph().task(task);
  kernels::PackCacheBinding cache_binding(cache_);
  // Region-sized blocking for this attempt: a 240-wide subtile packs
  // 240-deep panels, not the global full-tile geometry. The binding is
  // thread-local, so concurrent workers at other granularities keep
  // their own blocking.
  kernels::PackGeometryBinding geometry(kernels::resolve_pack_geometry(
      t.nb > 0 ? t.nb : storage_.layout().base_nb));
  try {
    execute_plan_task_checked(storage_, t);
  } catch (const NumericError& e) {
    *error = e.what();
    return false;
  }
  // Stale panels of every written block stop matching before mark_done
  // publishes the task to its dependents.
  if (cache_ != nullptr)
    for (const TaskAccess& a : t.accesses)
      if (a.mode != AccessMode::Read) cache_->bump_epoch(storage_.block(a.tile));
  return true;
}

}  // namespace hetsched

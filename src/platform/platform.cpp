#include "platform/platform.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/flops.hpp"

namespace hetsched {

bool TimingTable::supported(Kernel k) const {
  for (int c = 0; c < num_classes(); ++c)
    if (time(c, k) <= 0.0) return false;
  return num_classes() > 0;
}

double TimingTable::fastest(Kernel k) const {
  double best = std::numeric_limits<double>::infinity();
  for (int c = 0; c < num_classes(); ++c)
    if (time(c, k) > 0.0) best = std::min(best, time(c, k));
  return std::isfinite(best) ? best : 0.0;
}

int TimingTable::fastest_class(Kernel k) const {
  double best = std::numeric_limits<double>::infinity();
  int best_cls = -1;
  for (int c = 0; c < num_classes(); ++c)
    if (time(c, k) > 0.0 && time(c, k) < best) {
      best = time(c, k);
      best_cls = c;
    }
  return best_cls;
}

Platform::Platform(std::vector<ResourceClass> classes, TimingTable timings,
                   BusModel bus, int nb, std::string name)
    : name_(std::move(name)),
      nb_(nb),
      classes_(std::move(classes)),
      timings_(std::move(timings)),
      bus_(bus) {
  if (classes_.empty()) throw std::invalid_argument("Platform: no classes");
  if (timings_.num_classes() != static_cast<int>(classes_.size()))
    throw std::invalid_argument("Platform: timing table class mismatch");
  for (const auto& c : classes_) {
    if (c.count <= 0) throw std::invalid_argument("Platform: empty class");
    for (const Kernel k : kAllKernels)
      if (timings_.time(static_cast<int>(&c - classes_.data()), k) < 0.0)
        throw std::invalid_argument("Platform: negative kernel time");
  }
  bool any_supported = false;
  for (const Kernel k : kAllKernels) any_supported |= timings_.supported(k);
  if (!any_supported)
    throw std::invalid_argument("Platform: no supported kernel");
  int next_node = 1;
  for (int cls = 0; cls < num_classes(); ++cls) {
    for (int u = 0; u < classes_[static_cast<std::size_t>(cls)].count; ++u) {
      Worker w;
      w.id = static_cast<int>(workers_.size());
      w.cls = cls;
      w.memory_node = classes_[static_cast<std::size_t>(cls)].accelerator
                          ? next_node++
                          : 0;
      w.name = classes_[static_cast<std::size_t>(cls)].name + "_" +
               std::to_string(u);
      workers_.push_back(std::move(w));
    }
  }
  num_memory_nodes_ = next_node;
}

int Platform::class_index(const std::string& cls_name) const {
  for (int c = 0; c < num_classes(); ++c)
    if (classes_[static_cast<std::size_t>(c)].name == cls_name) return c;
  return -1;
}

std::vector<int> Platform::workers_of_class(int cls) const {
  std::vector<int> out;
  for (const Worker& w : workers_)
    if (w.cls == cls) out.push_back(w.id);
  return out;
}

double Platform::class_time_at(int cls, Kernel k, int nb) const {
  if (nb < 0) return timings_.time(cls, k);  // uniform graph: exact entry
  if (is_repack(k)) {
    const std::size_t bytes = static_cast<std::size_t>(nb) *
                              static_cast<std::size_t>(nb) * sizeof(double);
    return bus_.enabled ? bus_.transfer_time(bytes) : 0.0;
  }
  const double t = timings_.time(cls, k);
  if (nb == nb_ || t <= 0.0) return t;
  const double flop_ratio = kernel_flops(k, nb) / kernel_flops(k, nb_);
  // Per-flop efficiency model: time(nb) ~ flops(nb) * (1 + h/nb) up to
  // normalization at the calibrated size. h is the tile side at which
  // overhead equals useful work -- large on accelerators (they need big
  // tiles to reach peak), small on CPU cores.
  const double h = classes_[static_cast<std::size_t>(cls)].accelerator
                       ? 0.2 * nb_
                       : nb_ / 60.0;
  const double penalty = (static_cast<double>(nb_) * (nb + h)) /
                         ((nb_ + h) * static_cast<double>(nb));
  return t * flop_ratio * penalty;
}

double Platform::fastest_time_at(Kernel k, int nb) const {
  if (nb >= 0 && is_repack(k)) return class_time_at(0, k, nb);
  double best = std::numeric_limits<double>::infinity();
  for (int c = 0; c < num_classes(); ++c) {
    const double t = class_time_at(c, k, nb);
    if (t > 0.0) best = std::min(best, t);
  }
  return std::isfinite(best) ? best : 0.0;
}

Platform Platform::without_communication() const {
  Platform p = *this;
  p.bus_.enabled = false;
  p.name_ = name_ + "-nocomm";
  return p;
}

Platform Platform::with_bus_bandwidth(double bytes_per_s) const {
  if (bytes_per_s <= 0.0)
    throw std::invalid_argument("with_bus_bandwidth: non-positive bandwidth");
  Platform p = *this;
  p.bus_.bandwidth_Bps = bytes_per_s;
  return p;
}

Platform Platform::with_shared_bus(double bytes_per_s) const {
  if (bytes_per_s <= 0.0)
    throw std::invalid_argument("with_shared_bus: non-positive bandwidth");
  Platform p = *this;
  p.bus_.shared_bandwidth_Bps = bytes_per_s;
  return p;
}

Platform Platform::without_workers(
    const std::vector<int>& dead_worker_ids) const {
  std::vector<int> dead_per_class(classes_.size(), 0);
  std::vector<char> seen(workers_.size(), 0);
  for (const int id : dead_worker_ids) {
    if (id < 0 || id >= num_workers())
      throw std::invalid_argument("without_workers: unknown worker id");
    if (seen[static_cast<std::size_t>(id)]) continue;  // duplicates are fine
    seen[static_cast<std::size_t>(id)] = 1;
    ++dead_per_class[static_cast<std::size_t>(
        workers_[static_cast<std::size_t>(id)].cls)];
  }
  std::vector<ResourceClass> kept;
  std::vector<int> kept_src_cls;
  for (std::size_t c = 0; c < classes_.size(); ++c) {
    ResourceClass rc = classes_[c];
    rc.count -= dead_per_class[c];
    if (rc.count <= 0) continue;
    kept.push_back(std::move(rc));
    kept_src_cls.push_back(static_cast<int>(c));
  }
  if (kept.empty())
    throw std::invalid_argument("without_workers: no worker would remain");
  TimingTable t(static_cast<int>(kept.size()));
  for (std::size_t c = 0; c < kept.size(); ++c)
    for (const Kernel k : kAllKernels)
      t.set_time(static_cast<int>(c), k, timings_.time(kept_src_cls[c], k));
  return Platform(std::move(kept), std::move(t), bus_, nb_,
                  name_ + "-degraded");
}

}  // namespace hetsched

// Machine model: resource classes (CPU cores, GPUs), workers, the
// per-(class, kernel) calibrated timing table, and the PCIe bus model.
//
// This is the information the paper extracts from StarPU's calibration of
// the Mirage machine; every bound and every simulated run is parameterized
// by a Platform instance.
#pragma once

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "core/kernel_types.hpp"

namespace hetsched {

/// A class of identical processing elements (e.g. "CPU" x9, "GPU" x3).
/// Accelerator workers each own a private memory node reached over PCIe;
/// non-accelerator workers share host RAM (node 0).
struct ResourceClass {
  std::string name;
  int count = 0;
  bool accelerator = false;
};

/// One processing element. `memory_node` identifies the memory its tasks
/// read from / write to: node 0 is host RAM (shared by all CPU workers),
/// each accelerator has its own node.
struct Worker {
  int id = -1;
  int cls = -1;
  int memory_node = 0;
  std::string name;
};

/// Calibrated execution times (seconds) per resource class and kernel type.
class TimingTable {
 public:
  TimingTable() = default;
  explicit TimingTable(int num_classes)
      : time_(static_cast<std::size_t>(num_classes) * kNumKernels, 0.0) {}

  double time(int cls, Kernel k) const {
    return time_.at(idx(cls, k));
  }
  void set_time(int cls, Kernel k, double seconds) {
    time_.at(idx(cls, k)) = seconds;
  }

  /// A kernel is supported when every class has a positive calibrated time
  /// for it; a time of 0 means "not calibrated / unsupported".
  bool supported(Kernel k) const;

  /// Fastest execution time of kernel `k` over all classes (0 when the
  /// kernel is unsupported everywhere).
  double fastest(Kernel k) const;
  /// Class achieving the fastest time for kernel `k`.
  int fastest_class(Kernel k) const;

  int num_classes() const noexcept {
    return static_cast<int>(time_.size()) / kNumKernels;
  }

 private:
  std::size_t idx(int cls, Kernel k) const {
    return static_cast<std::size_t>(cls) * kNumKernels +
           static_cast<std::size_t>(kernel_index(k));
  }
  std::vector<double> time_;
};

/// PCIe interconnect model: every accelerator memory node is connected to
/// host RAM by a dedicated full-duplex link. Device-to-device transfers are
/// staged through RAM (two hops), as on the Mirage machine. Optionally all
/// links share an aggregate upstream capacity (e.g. one PCIe switch): a hop
/// starting while `k` others are in flight gets bandwidth
/// min(link, shared / (k + 1)) -- a start-time approximation of SimGrid's
/// fluid contention (rates are not re-adjusted mid-flight).
struct BusModel {
  bool enabled = true;                     ///< false => zero-cost transfers
  double bandwidth_Bps = 6.0e9;            ///< per-link, per-direction
  double latency_s = 10e-6;
  double shared_bandwidth_Bps = 0.0;       ///< 0 = no shared bottleneck

  /// Time to move `bytes` across one uncontended link (0 when disabled).
  double transfer_time(std::size_t bytes) const noexcept {
    return hop_time(bytes, 0);
  }

  /// Time of one hop starting while `concurrent` other hops are in flight.
  double hop_time(std::size_t bytes, int concurrent) const noexcept {
    if (!enabled) return 0.0;
    double bw = bandwidth_Bps;
    if (shared_bandwidth_Bps > 0.0)
      bw = std::min(bw, shared_bandwidth_Bps /
                            static_cast<double>(concurrent + 1));
    return latency_s + static_cast<double>(bytes) / bw;
  }
  /// Number of link hops between two memory nodes (0 if equal; RAM is 0).
  static int hops(int from_node, int to_node) noexcept {
    if (from_node == to_node) return 0;
    return (from_node != 0 && to_node != 0) ? 2 : 1;
  }
};

/// Full machine description.
class Platform {
 public:
  Platform(std::vector<ResourceClass> classes, TimingTable timings,
           BusModel bus, int nb, std::string name);

  const std::string& name() const noexcept { return name_; }
  /// Tile size the timing table was calibrated for.
  int nb() const noexcept { return nb_; }

  int num_classes() const noexcept { return static_cast<int>(classes_.size()); }
  const ResourceClass& resource_class(int cls) const {
    return classes_.at(static_cast<std::size_t>(cls));
  }
  /// Index of the class named `name`, or -1.
  int class_index(const std::string& cls_name) const;

  int num_workers() const noexcept { return static_cast<int>(workers_.size()); }
  const Worker& worker(int w) const { return workers_.at(static_cast<std::size_t>(w)); }
  const std::vector<Worker>& workers() const noexcept { return workers_; }
  /// Ids of the workers of class `cls`.
  std::vector<int> workers_of_class(int cls) const;

  const TimingTable& timings() const noexcept { return timings_; }
  const BusModel& bus() const noexcept { return bus_; }

  /// Execution time of kernel `k` on worker `w`.
  double worker_time(int w, Kernel k) const {
    return timings_.time(worker(w).cls, k);
  }

  /// Execution time of kernel `k` at tile size `nb` on class `cls`.
  /// `nb < 0` (the uniform default stamped by build_cholesky_dag) returns
  /// the calibrated table entry verbatim, so uniform graphs price
  /// bit-for-bit as before. Repack kernels (SPLIT/MERGE) are pure data
  /// movement and cost one BusModel transfer of the nb x nb region (zero
  /// when the bus is disabled). Any other size scales the calibrated time
  /// by the flop ratio times a surface-to-volume efficiency factor:
  /// smaller tiles pay a per-flop penalty, steeply on accelerators and
  /// mildly on CPU cores (the HeSP efficiency trade-off).
  double class_time_at(int cls, Kernel k, int nb) const;

  /// class_time_at of worker `w`'s class.
  double worker_time_at(int w, Kernel k, int nb) const {
    return class_time_at(worker(w).cls, k, nb);
  }

  /// Fastest class_time_at over classes; mirrors TimingTable::fastest
  /// (skips uncalibrated zero entries, 0 when unsupported everywhere).
  double fastest_time_at(Kernel k, int nb) const;

  /// True iff the platform is calibrated for kernel `k` on every class.
  bool supports(Kernel k) const { return timings_.supported(k); }

  /// Number of memory nodes (1 + number of accelerator workers).
  int num_memory_nodes() const noexcept { return num_memory_nodes_; }

  /// Returns a copy of this platform with communications disabled -- used
  /// when comparing against bounds that ignore data transfers (paper §V-C2).
  Platform without_communication() const;

  /// Returns a copy with a different PCIe bandwidth (ablation studies).
  Platform with_bus_bandwidth(double bytes_per_s) const;

  /// Returns a copy whose links contend for an aggregate shared capacity
  /// (see BusModel::shared_bandwidth_Bps).
  Platform with_shared_bus(double bytes_per_s) const;

  /// Returns a copy with the listed workers removed: each dead worker
  /// shrinks its resource class, classes left empty disappear, and worker
  /// ids / memory nodes are renumbered. Used to re-evaluate bounds on the
  /// post-failure platform (fault recovery yardstick). Throws
  /// std::invalid_argument on an unknown id or if no worker would remain.
  Platform without_workers(const std::vector<int>& dead_worker_ids) const;

 private:
  std::string name_;
  int nb_;
  std::vector<ResourceClass> classes_;
  std::vector<Worker> workers_;
  TimingTable timings_;
  BusModel bus_;
  int num_memory_nodes_ = 1;
};

}  // namespace hetsched

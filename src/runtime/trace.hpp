// Execution traces: per-worker Gantt records, idle-time statistics, and
// ASCII / SVG rendering (used to reproduce the paper's Figure 12 traces).
//
// Lives under the `runtime` namespace since the runtime unification: the
// trace is produced by every runtime backend, not just the simulator, and
// the same records feed the streaming observability layer (src/obs).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/kernel_types.hpp"

namespace hetsched {
namespace runtime {

/// One executed task occurrence.
struct ComputeRecord {
  int worker = -1;
  int task = -1;
  Kernel kernel = Kernel::POTRF;
  double start = 0.0;
  double end = 0.0;
};

/// One completed link transfer hop.
struct TransferRecord {
  int tile = -1;
  int from_node = -1;
  int to_node = -1;
  double start = 0.0;
  double end = 0.0;
};

/// Gantt-style execution trace.
class Trace {
 public:
  explicit Trace(int num_workers) : num_workers_(num_workers) {}

  void record_compute(const ComputeRecord& r) { compute_.push_back(r); }
  void record_transfer(const TransferRecord& r) { transfers_.push_back(r); }

  int num_workers() const noexcept { return num_workers_; }
  const std::vector<ComputeRecord>& compute() const noexcept { return compute_; }
  const std::vector<TransferRecord>& transfers() const noexcept {
    return transfers_;
  }

  /// End time of the last compute record.
  double makespan() const;

  /// Total compute seconds on `worker`.
  double busy_seconds(int worker) const;

  /// Idle seconds of `worker` within [0, makespan()].
  double idle_seconds(int worker) const;

  /// Mean idle fraction over the given workers (all workers if empty).
  double idle_fraction(const std::vector<int>& workers = {}) const;

  /// Total bytes moved (needs tile size) and number of transfer hops.
  std::int64_t num_transfer_hops() const noexcept {
    return static_cast<std::int64_t>(transfers_.size());
  }

  /// ASCII Gantt chart: one row per listed worker (all if empty), `width`
  /// character columns spanning [0, makespan()]. Task cells use the first
  /// letter of the kernel (P/T/S/G), idle time is '.'.
  std::string ascii_gantt(int width = 100,
                          const std::vector<int>& workers = {}) const;

  /// Standalone SVG rendering of the Gantt chart.
  std::string to_svg(const std::vector<int>& workers = {}) const;

 private:
  int num_workers_;
  std::vector<ComputeRecord> compute_;
  std::vector<TransferRecord> transfers_;
};

}  // namespace runtime

// The record types predate the runtime namespace; the unqualified names
// remain first-class citizens of hetsched.
using runtime::ComputeRecord;
using runtime::Trace;
using runtime::TransferRecord;

}  // namespace hetsched

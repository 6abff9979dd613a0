// Shared helpers for the test suite: tiny deterministic platforms, graphs
// with hand-computable schedules, and a mixed-granularity TilePlan.
#pragma once

#include <vector>

#include "core/task_graph.hpp"
#include "core/tile_plan.hpp"
#include "platform/calibration.hpp"
#include "platform/platform.hpp"

namespace hetsched::testutil {

/// 2 CPUs + 1 GPU with round numbers:
///   CPU:  POTRF 2s, TRSM 4s, SYRK 4s, GEMM 8s
///   GPU:  POTRF 2s, TRSM 1s, SYRK 1s, GEMM 1s  (ratios 1, 4, 4, 8)
/// Bus: 1 GiB/s-ish round numbers are set by the caller when needed.
inline Platform tiny_hetero() {
  const double cpu[kNumKernels] = {2.0, 4.0, 4.0, 8.0};
  const double ratio[kNumKernels] = {1.0, 4.0, 4.0, 8.0};
  return custom_platform(2, 1, cpu, ratio, /*nb=*/8, "tiny-hetero");
}

/// p identical CPUs with the same round-number times, shared memory.
inline Platform tiny_homog(int p = 2) {
  const double cpu[kNumKernels] = {2.0, 4.0, 4.0, 8.0};
  const double ratio[kNumKernels] = {1.0, 1.0, 1.0, 1.0};
  return custom_platform(p, 0, cpu, ratio, /*nb=*/8,
                         "tiny-homog-" + std::to_string(p));
}

/// Chain POTRF -> TRSM -> SYRK -> POTRF (the 2x2-tile Cholesky DAG without
/// GEMMs), flops irrelevant.
inline TaskGraph chain4() {
  TaskGraph g;
  const int a = g.add_task(Kernel::POTRF, 0, -1, -1, 1.0);
  const int b = g.add_task(Kernel::TRSM, 0, 1, -1, 1.0);
  const int c = g.add_task(Kernel::SYRK, 0, -1, 1, 1.0);
  const int d = g.add_task(Kernel::POTRF, 1, -1, -1, 1.0);
  g.add_edge(a, b);
  g.add_edge(b, c);
  g.add_edge(c, d);
  return g;
}

/// `n` independent GEMM tasks (embarrassingly parallel).
inline TaskGraph independent_gemms(int n) {
  TaskGraph g;
  for (int i = 0; i < n; ++i) g.add_task(Kernel::GEMM, 0, i, 0, 1.0);
  return g;
}

/// Fork-join: one POTRF source, `width` parallel GEMMs, one SYRK sink.
inline TaskGraph fork_join(int width) {
  TaskGraph g;
  const int src = g.add_task(Kernel::POTRF, 0, -1, -1, 1.0);
  std::vector<int> mids;
  for (int i = 0; i < width; ++i) {
    const int m = g.add_task(Kernel::GEMM, 0, i + 1, 0, 1.0);
    g.add_edge(src, m);
    mids.push_back(m);
  }
  const int sink = g.add_task(Kernel::SYRK, 0, -1, 1, 1.0);
  for (const int m : mids) g.add_edge(m, sink);
  return g;
}

/// A plan that mixes three granularities: base panels, a level-1 trailing
/// submatrix, one level-2 corner cell, and a fine diagonal cell whose
/// coarse column consumers force MERGE views (the trailing splits force
/// SPLIT views).
inline TilePlan mixed_plan(int n_tiles, int base_nb) {
  TilePlan plan = TilePlan::uniform(n_tiles, base_nb);
  for (int i = 2; i < n_tiles; ++i)
    for (int j = 2; j <= i; ++j) plan.set_level(i, j, 1);
  plan.set_level(n_tiles - 1, n_tiles - 1, 2);
  plan.set_level(1, 1, 1);
  return plan;
}

}  // namespace hetsched::testutil

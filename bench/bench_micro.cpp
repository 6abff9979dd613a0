// Google-benchmark micro-benchmarks of the library's own machinery: DAG
// construction, bound LPs, priorities, the discrete-event simulator and the
// numeric kernels.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "bounds/bounds.hpp"
#include "core/cholesky_dag.hpp"
#include "core/flops.hpp"
#include "core/kernels.hpp"
#include "core/tile_matrix.hpp"
#include "kernels/engine.hpp"
#include "kernels/ref.hpp"
#include "platform/calibration.hpp"
#include "sched/dmda.hpp"
#include "sched/priorities.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace hetsched;

void BM_BuildCholeskyDag(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    TaskGraph g = build_cholesky_dag(n);
    benchmark::DoNotOptimize(g.num_tasks());
  }
  state.SetItemsProcessed(state.iterations() * total_task_count(n));
}
BENCHMARK(BM_BuildCholeskyDag)->Arg(8)->Arg(16)->Arg(32);

void BM_MixedBoundLp(benchmark::State& state) {
  const Platform p = mirage_platform();
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(mixed_bound(n, p).makespan_s);
  }
}
BENCHMARK(BM_MixedBoundLp)->Arg(8)->Arg(32);

void BM_BottomLevels(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const TaskGraph g = build_cholesky_dag(n);
  const Platform p = mirage_platform();
  for (auto _ : state) {
    benchmark::DoNotOptimize(bottom_levels_fastest(g, p.timings()).size());
  }
  state.SetItemsProcessed(state.iterations() * g.num_tasks());
}
BENCHMARK(BM_BottomLevels)->Arg(16)->Arg(32);

void BM_SimulateDmda(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const TaskGraph g = build_cholesky_dag(n);
  const Platform p = mirage_platform();
  RunOptions opt;
  opt.record_trace = false;
  for (auto _ : state) {
    DmdaScheduler sched = make_dmda();
    benchmark::DoNotOptimize(simulate(g, p, sched, opt).makespan_s);
  }
  state.SetItemsProcessed(state.iterations() * g.num_tasks());
}
BENCHMARK(BM_SimulateDmda)->Arg(8)->Arg(16)->Arg(32)->Unit(benchmark::kMillisecond);

void BM_SimulateDmdasWithComm(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const TaskGraph g = build_cholesky_dag(n);
  const Platform p = mirage_platform();
  RunOptions opt;
  opt.record_trace = false;
  for (auto _ : state) {
    DmdaScheduler sched = make_dmdas(g, p);
    benchmark::DoNotOptimize(simulate(g, p, sched, opt).makespan_s);
  }
  state.SetItemsProcessed(state.iterations() * g.num_tasks());
}
BENCHMARK(BM_SimulateDmdasWithComm)->Arg(16)->Arg(32)->Unit(benchmark::kMillisecond);

void BM_EventQueuePushPop(benchmark::State& state) {
  // Raw heap churn at the simulator's scale: push `n` events with
  // pseudo-random times, then drain. reserve() keeps the backing vector
  // from reallocating, which is what the simulator relies on.
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    EventQueue q;
    q.reserve(static_cast<std::size_t>(n));
    std::uint64_t x = 0x9e3779b97f4a7c15ull;  // xorshift64 time stream
    for (int i = 0; i < n; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      q.push(static_cast<double>(x % 100000) * 1e-6, EventType::TaskFinish, i,
             i);
    }
    double last = -1.0;
    while (!q.empty()) last = q.pop().time;
    benchmark::DoNotOptimize(last);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueuePushPop)->Arg(1024)->Arg(16384);

// ---- Tile-kernel GFLOP/s: reference loops vs the optimized engine ----------
//
// items processed = true kernel FLOP counts (core/flops.hpp), so the
// items_per_second column reads directly as FLOP/s; ref and opt variants
// run back to back at the paper's tile size (960) and two smaller ones.

std::vector<double> noise_tile(int nb, unsigned seed) {
  std::vector<double> t(static_cast<std::size_t>(nb) *
                        static_cast<std::size_t>(nb));
  for (std::size_t i = 0; i < t.size(); ++i)
    t[i] = 0.25 + 1e-3 * static_cast<double>((i * 31 + seed) % 97);
  return t;
}

// Lower-triangular, diagonally dominant (safe to solve against repeatedly).
std::vector<double> lower_tile(int nb) {
  auto t = noise_tile(nb, 3);
  for (int j = 0; j < nb; ++j) {
    for (int i = 0; i < j; ++i)
      t[static_cast<std::size_t>(i) +
        static_cast<std::size_t>(j) * static_cast<std::size_t>(nb)] = 0.0;
    t[static_cast<std::size_t>(j) * (static_cast<std::size_t>(nb) + 1)] = 4.0;
  }
  return t;
}

// SPD by construction: strong diagonal over small off-diagonal noise.
std::vector<double> spd_tile_fast(int nb) {
  auto t = noise_tile(nb, 7);
  for (int j = 0; j < nb; ++j)
    t[static_cast<std::size_t>(j) * (static_cast<std::size_t>(nb) + 1)] =
        2.0 * static_cast<double>(nb);
  return t;
}

void flops_rate(benchmark::State& state, Kernel k) {
  const int nb = static_cast<int>(state.range(0));
  state.SetItemsProcessed(static_cast<std::int64_t>(
      static_cast<double>(state.iterations()) * kernel_flops(k, nb)));
}

// One untimed call before each timed loop: the first packed-engine call
// on a thread grows its TileScratch buffers (an allocation plus page
// faults), a one-time setup cost that otherwise lands in the first timed
// iteration and skews short runs.
template <bool kOpt>
void BM_KernelGemmNT(benchmark::State& state) {
  const int nb = static_cast<int>(state.range(0));
  const auto a = noise_tile(nb, 1);
  const auto b = noise_tile(nb, 2);
  auto c = noise_tile(nb, 3);
  if constexpr (kOpt)
    kernels::gemm(nb, a.data(), nb, b.data(), nb, c.data(), nb);  // warm-up
  for (auto _ : state) {
    if constexpr (kOpt)
      kernels::gemm(nb, a.data(), nb, b.data(), nb, c.data(), nb);
    else
      kernels::ref::gemm(nb, a.data(), nb, b.data(), nb, c.data(), nb);
    benchmark::DoNotOptimize(c[0]);
  }
  flops_rate(state, Kernel::GEMM);
}

template <bool kOpt>
void BM_KernelSyrk(benchmark::State& state) {
  const int nb = static_cast<int>(state.range(0));
  const auto a = noise_tile(nb, 4);
  auto c = noise_tile(nb, 5);
  if constexpr (kOpt) kernels::syrk(nb, a.data(), nb, c.data(), nb);
  for (auto _ : state) {
    if constexpr (kOpt)
      kernels::syrk(nb, a.data(), nb, c.data(), nb);
    else
      kernels::ref::syrk(nb, a.data(), nb, c.data(), nb);
    benchmark::DoNotOptimize(c[0]);
  }
  flops_rate(state, Kernel::SYRK);
}

template <bool kOpt>
void BM_KernelTrsm(benchmark::State& state) {
  const int nb = static_cast<int>(state.range(0));
  const auto l = lower_tile(nb);
  const auto a0 = noise_tile(nb, 6);
  auto a = a0;
  if constexpr (kOpt) kernels::trsm(nb, l.data(), nb, a.data(), nb);
  for (auto _ : state) {
    // Refresh the right-hand side; ~nb^2 copied vs nb^3 solved.
    std::copy(a0.begin(), a0.end(), a.begin());
    if constexpr (kOpt)
      kernels::trsm(nb, l.data(), nb, a.data(), nb);
    else
      kernels::ref::trsm(nb, l.data(), nb, a.data(), nb);
    benchmark::DoNotOptimize(a[0]);
  }
  flops_rate(state, Kernel::TRSM);
}

template <bool kOpt>
void BM_KernelPotrf(benchmark::State& state) {
  const int nb = static_cast<int>(state.range(0));
  const auto spd = spd_tile_fast(nb);
  auto w = spd;
  if constexpr (kOpt) {
    std::copy(spd.begin(), spd.end(), w.begin());
    benchmark::DoNotOptimize(kernels::potrf_info(nb, w.data(), nb));
  }
  for (auto _ : state) {
    std::copy(spd.begin(), spd.end(), w.begin());
    const int info = kOpt ? kernels::potrf_info(nb, w.data(), nb)
                          : kernels::ref::potrf_info(nb, w.data(), nb);
    benchmark::DoNotOptimize(info);
  }
  flops_rate(state, Kernel::POTRF);
}

#define HETSCHED_KERNEL_BENCH(name)                                        \
  BENCHMARK(name<false>)                                                   \
      ->Name(#name "/ref")                                                 \
      ->Arg(192)                                                           \
      ->Arg(480)                                                           \
      ->Arg(960)                                                           \
      ->Unit(benchmark::kMillisecond);                                     \
  BENCHMARK(name<true>)                                                    \
      ->Name(#name "/opt")                                                 \
      ->Arg(192)                                                           \
      ->Arg(480)                                                           \
      ->Arg(960)                                                           \
      ->Unit(benchmark::kMillisecond)

HETSCHED_KERNEL_BENCH(BM_KernelPotrf);
HETSCHED_KERNEL_BENCH(BM_KernelTrsm);
HETSCHED_KERNEL_BENCH(BM_KernelSyrk);
HETSCHED_KERNEL_BENCH(BM_KernelGemmNT);

#undef HETSCHED_KERNEL_BENCH

// ---- Per-tier GEMM: generic vs avx2 vs avx512 on the same packed engine ----
//
// Registered dynamically so only tiers the CPU supports appear (the
// clamped ones would silently duplicate their fallback and pollute
// comparisons). The avx512-vs-avx2 ratio at nb=960 is the PR's register
// tile acceptance number.

void gemm_at_tier(benchmark::State& state, kernels::Tier tier) {
  const int nb = static_cast<int>(state.range(0));
  const auto a = noise_tile(nb, 1);
  const auto b = noise_tile(nb, 2);
  auto c = noise_tile(nb, 3);
  kernels::set_engine_tier(tier);
  kernels::gemm(nb, a.data(), nb, b.data(), nb, c.data(), nb);  // warm-up
  for (auto _ : state) {
    kernels::gemm(nb, a.data(), nb, b.data(), nb, c.data(), nb);
    benchmark::DoNotOptimize(c[0]);
  }
  kernels::reset_engine_tier();
  flops_rate(state, Kernel::GEMM);
}

int register_tier_benches() {
  for (const kernels::Tier t :
       {kernels::Tier::kGeneric, kernels::Tier::kAvx2,
        kernels::Tier::kAvx512}) {
    if (static_cast<int>(t) > static_cast<int>(kernels::native_tier()))
      continue;
    const std::string name =
        std::string("BM_KernelGemmNT/tier:") + kernels::tier_name(t);
    benchmark::RegisterBenchmark(name.c_str(),
                                 [t](benchmark::State& s) {
                                   gemm_at_tier(s, t);
                                 })
        ->Arg(192)
        ->Arg(480)
        ->Arg(960)
        ->Unit(benchmark::kMillisecond);
  }
  return 0;
}
const int kTierBenchesRegistered = register_tier_benches();

}  // namespace

BENCHMARK_MAIN();

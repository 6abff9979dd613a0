// Batched serving throughput/latency: what batch fusion buys the server.
//
// One FactorizationServer per max_batch value is fed the same backlog of
// small SPD factorization jobs (one geometry, distinct seeds) and drained
// to completion. Fusing B jobs into one task graph amortizes graph
// construction and keeps the worker pool busy between jobs, so the sweep
// prints throughput and mean latency side by side per batch size.
//
// Argument-free, like the other bench binaries. The machine-readable
// variant of this sweep is `bench_to_json --serving` (BENCH_serving.json
// in CI).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "serve/server.hpp"

namespace {

using namespace hetsched;
using Clock = std::chrono::steady_clock;

constexpr int kJobs = 32;
constexpr int kTiles = 8;

int bench_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(hw == 0 ? 1 : std::min(4u, hw));
}

/// Drains `kJobs` jobs of one geometry through a fresh server; returns
/// false when any job ends in a non-done state.
bool run_config(int nb, int max_batch, int threads) {
  serve::ServerOptions so;
  so.threads = threads;
  so.max_batch = max_batch;
  so.admission.max_depth = kJobs + 1;
  serve::FactorizationServer server(so);
  // The whole backlog is queued before the dispatcher starts, so batch
  // occupancy is bounded by max_batch alone, not by arrival timing.
  std::vector<int> ids;
  ids.reserve(kJobs);
  for (int i = 0; i < kJobs; ++i) {
    serve::JobSpec spec;
    spec.tiles = kTiles;
    spec.nb = nb;
    spec.seed = static_cast<unsigned>(i);
    const serve::SubmitResult res = server.submit(spec);
    if (!res.admitted) {
      std::fprintf(stderr, "submit rejected: %s\n", res.message.c_str());
      return false;
    }
    ids.push_back(res.id);
  }
  const auto t0 = Clock::now();
  server.start();
  for (const int id : ids) {
    const auto s = server.wait(id);
    if (s.state != serve::JobState::kDone) {
      std::fprintf(stderr, "job %d ended %s: %s\n", id,
                   serve::to_string(s.state), s.error.c_str());
      return false;
    }
  }
  const double secs = std::chrono::duration<double>(Clock::now() - t0).count();
  const serve::ServeMetrics m = server.metrics();
  server.shutdown(serve::FactorizationServer::Shutdown::kGraceful);
  std::printf("  %2d      %3lld     %8.3f   %10.2f   %10.3f\n", max_batch,
              static_cast<long long>(m.batches), secs,
              static_cast<double>(kJobs) / secs, m.latency_ms_mean);
  return true;
}

}  // namespace

int main() {
  const int threads = bench_threads();
  std::printf("Batched serving sweep: %d jobs of %dx%d tiles per config, "
              "%d worker threads\n",
              kJobs, kTiles, kTiles, threads);
  for (const int nb : {64, 96}) {
    std::printf("nb = %d\n", nb);
    std::printf("  batch  batches  seconds     jobs/s       mean ms\n");
    for (const int max_batch : {1, 2, 4, 8})
      if (!run_config(nb, max_batch, threads)) return 1;
  }
  return 0;
}

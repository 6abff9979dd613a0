// Packing scratch buffers for the optimized tile kernels.
//
// The packed GEMM engine copies panels of A and B into contiguous,
// cache-blocked, 64-byte-aligned buffers before entering the micro-kernel.
// Those buffers come from a TileScratch. Ownership contract:
//
//   * An executor that runs kernels on a pool of worker threads creates one
//     ScratchPool sized to its thread count and binds pool.at(worker) to
//     each worker thread with a ScratchBinding for the thread's lifetime.
//     After the first few kernel calls warmed the buffers up to their
//     steady-state size, packing never allocates on the hot path.
//   * Code that calls kernels without binding anything (tests, benches,
//     sequential reference runs) transparently falls back to a lazily
//     created thread_local TileScratch -- correct, and still malloc-free
//     after the first call on each thread.
//
// Buffers grow monotonically and are never shrunk; a TileScratch must only
// ever be used by one thread at a time (the binding enforces this by
// construction in the executors).
//
// Panel byte counts are not chosen here: every request goes through the
// a_call_doubles / b_call_doubles helpers of pack_geometry.hpp, so a
// region geometry bound through PackGeometryBinding resizes the scratch
// requests with the packing loops (ensure() then grows the buffer on the
// call; a stale smaller buffer can never reach the micro-kernel).
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

namespace hetsched::kernels {

namespace detail {

/// Growable 64-byte-aligned double buffer (contents undefined after growth).
class AlignedBuffer {
 public:
  AlignedBuffer() = default;
  AlignedBuffer(const AlignedBuffer&) = delete;
  AlignedBuffer& operator=(const AlignedBuffer&) = delete;

  /// Returns a pointer to at least `count` doubles, reallocating if needed.
  double* ensure(std::size_t count);

  std::size_t capacity() const noexcept { return cap_; }

 private:
  struct Free {
    void operator()(double* p) const noexcept;
  };
  std::unique_ptr<double, Free> data_;
  std::size_t cap_ = 0;
};

}  // namespace detail

/// Per-thread packing workspace of the optimized kernels: one buffer for
/// packed A panels, one for packed B panels.
class TileScratch {
 public:
  double* a_panel(std::size_t count) { return a_.ensure(count); }
  double* b_panel(std::size_t count) { return b_.ensure(count); }

  /// Bytes currently held (diagnostics / tests).
  std::size_t footprint_bytes() const noexcept {
    return (a_.capacity() + b_.capacity()) * sizeof(double);
  }

 private:
  detail::AlignedBuffer a_;
  detail::AlignedBuffer b_;
};

/// One TileScratch per worker thread of an executor.
class ScratchPool {
 public:
  explicit ScratchPool(int num_workers)
      : scratch_(static_cast<std::size_t>(num_workers > 0 ? num_workers : 1)) {
  }
  TileScratch& at(int worker) {
    return scratch_[static_cast<std::size_t>(worker)];
  }
  int size() const noexcept { return static_cast<int>(scratch_.size()); }

 private:
  std::vector<TileScratch> scratch_;
};

/// RAII: binds a TileScratch to the current thread for its lifetime; kernel
/// calls on this thread pack through it instead of the thread_local
/// fallback. Nesting restores the previous binding on destruction.
class ScratchBinding {
 public:
  explicit ScratchBinding(TileScratch& s);
  ~ScratchBinding();
  ScratchBinding(const ScratchBinding&) = delete;
  ScratchBinding& operator=(const ScratchBinding&) = delete;

 private:
  TileScratch* prev_;
};

namespace detail {
/// The scratch the current thread should pack through: the bound one, or a
/// lazily constructed thread_local fallback.
TileScratch& active_scratch();
}  // namespace detail

}  // namespace hetsched::kernels

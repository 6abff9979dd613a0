// Runtime dispatch of the optimized tile-kernel engine.
//
// The packed GEMM macro-kernel is ISA-independent; only the innermost
// register-tiled micro-kernel exists in three flavours:
//
//   kGeneric : plain C++ written to auto-vectorize at the build's baseline
//              ISA (SSE2 on x86-64) -- always available, any platform.
//   kAvx2    : AVX2 + FMA intrinsics (8x4 register tile) compiled via a
//              per-function target attribute, selected only when the CPU
//              reports both features at runtime (the binary stays runnable
//              on baseline hardware).
//   kAvx512  : AVX-512F intrinsics. The register tile widens to 8x8 by
//              consuming two adjacent kNR-wide packed B micro-panels per
//              micro-kernel call, so the packed-panel ABI is shared with
//              the narrower tiers; odd trailing panels and diagonal-straddling SYRK
//              tiles fall back to the 8x4 AVX2 kernel within the same
//              call. Selected only when the CPU reports AVX-512F.
//
// The active tier is chosen once per process: the best the CPU supports,
// overridable by the environment variable HETSCHED_KERNEL_TIER
// ("generic" | "avx2" | "avx512"; an unsupported request clamps down to
// the best supported tier below it, an unrecognized value is ignored with
// a one-line stderr warning) and, for tests and benchmarks,
// programmatically via set_engine_tier().
//
// Thread-safety / memory-order contract: the active tier is a single
// std::atomic<Tier>. set_engine_tier() / reset_engine_tier() may be called
// concurrently with running kernels -- dispatch loads the tier exactly
// once per kernel call (memory_order_relaxed), so a racing change selects
// either the old or the new micro-kernel for that call, never a torn or
// mixed configuration, and both tiers produce results that agree to FMA
// rounding. A caller that needs its change to be *observed* by kernel
// calls on other threads must synchronize externally (a thread-pool task
// handoff, thread join, or any other happens-before edge suffices; the
// executors' ready-queue mutex already provides this for runtime-driven
// kernels).
#pragma once

namespace hetsched::kernels {

enum class Tier {
  kGeneric,  ///< portable auto-vectorized micro-kernel
  kAvx2,     ///< AVX2 + FMA intrinsics micro-kernel (x86-64 only)
  kAvx512,   ///< AVX-512F paired-panel micro-kernel (x86-64 only)
};

/// Best tier this CPU supports (ignores overrides).
Tier native_tier();

/// The tier kernel calls currently dispatch to.
Tier engine_tier();

/// Forces a tier (clamped to native support). Safe to call concurrently
/// with kernel dispatch -- see the memory-order contract above.
void set_engine_tier(Tier t);

/// Restores the startup choice (native, or the env-var override).
void reset_engine_tier();

/// Human-readable tier name ("generic", "avx2", "avx512").
const char* tier_name(Tier t);

namespace detail {

/// Parses one HETSCHED_KERNEL_TIER value. `*recognized` reports whether
/// the string named a valid tier; unrecognized values return the native
/// tier (the startup path prints a one-line stderr warning listing the
/// valid spellings). Recognized-but-unsupported requests clamp down.
/// Exposed for tests; the startup path is only evaluated once.
Tier parse_tier_env(const char* value, bool* recognized) noexcept;

/// Resolves one HETSCHED_KERNEL_TIER value exactly as startup does,
/// including the stderr warning on unrecognized values. Exposed so tests
/// can pin the warning text without re-running the process.
Tier resolve_tier_env(const char* value) noexcept;

}  // namespace detail

}  // namespace hetsched::kernels

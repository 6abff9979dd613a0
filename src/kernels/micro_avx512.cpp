// AVX-512F micro-kernel, compiled via a per-function target attribute so
// the translation unit builds at the portable baseline ISA and the binary
// stays runnable on machines without AVX-512; runtime dispatch
// (engine.hpp) only routes here when the CPU reports AVX-512F.
//
// The register tile is 8 rows x 8 columns: one ZMM load covers a full
// kMR-tall packed A column, and the 8 accumulator columns come from TWO
// adjacent kNR-wide packed B micro-panels consumed in lockstep. Keeping
// kMR/kNR (and with them the packed-panel ABI) unchanged means every
// packed scratch panel is shared bit-for-bit across all three tiers; only
// the macro loop pairs panels up (gemm_packed.cpp).
//
// Port budget per depth step on a 2x512-bit-FMA core: 8 FMAs (4 cycles at
// 2/cycle) against 9 load-port uops (1 A load + 8 B broadcasts), so the
// loop is FMA-bound. Eight independent accumulators cover the FMA latency
// exactly (one dependent issue per chain every 4 cycles).
#include "kernels/gemm_packed.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define HETSCHED_KERNELS_HAVE_AVX512_PATH 1
#include <immintrin.h>
#endif

namespace hetsched::kernels::detail {

#if defined(HETSCHED_KERNELS_HAVE_AVX512_PATH)

bool avx512_supported() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512f");
}

__attribute__((target("avx512f"))) void micro_8x8_avx512(int kc,
                                                         const double* pa,
                                                         const double* pb0,
                                                         const double* pb1,
                                                         double* acc) {
  // acc is kMR x 2*kNR column-major, 64-byte aligned: columns 0..3 from
  // panel pb0, columns 4..7 from panel pb1.
  __m512d c0 = _mm512_setzero_pd(), c1 = _mm512_setzero_pd();
  __m512d c2 = _mm512_setzero_pd(), c3 = _mm512_setzero_pd();
  __m512d c4 = _mm512_setzero_pd(), c5 = _mm512_setzero_pd();
  __m512d c6 = _mm512_setzero_pd(), c7 = _mm512_setzero_pd();
  for (int p = 0; p < kc; ++p) {
    const __m512d a = _mm512_load_pd(pa);
    c0 = _mm512_fmadd_pd(a, _mm512_set1_pd(pb0[0]), c0);
    c1 = _mm512_fmadd_pd(a, _mm512_set1_pd(pb0[1]), c1);
    c2 = _mm512_fmadd_pd(a, _mm512_set1_pd(pb0[2]), c2);
    c3 = _mm512_fmadd_pd(a, _mm512_set1_pd(pb0[3]), c3);
    c4 = _mm512_fmadd_pd(a, _mm512_set1_pd(pb1[0]), c4);
    c5 = _mm512_fmadd_pd(a, _mm512_set1_pd(pb1[1]), c5);
    c6 = _mm512_fmadd_pd(a, _mm512_set1_pd(pb1[2]), c6);
    c7 = _mm512_fmadd_pd(a, _mm512_set1_pd(pb1[3]), c7);
    pa += kMR;
    pb0 += kNR;
    pb1 += kNR;
  }
  _mm512_store_pd(acc + 0 * kMR, c0);
  _mm512_store_pd(acc + 1 * kMR, c1);
  _mm512_store_pd(acc + 2 * kMR, c2);
  _mm512_store_pd(acc + 3 * kMR, c3);
  _mm512_store_pd(acc + 4 * kMR, c4);
  _mm512_store_pd(acc + 5 * kMR, c5);
  _mm512_store_pd(acc + 6 * kMR, c6);
  _mm512_store_pd(acc + 7 * kMR, c7);
}

#else  // non-x86 or unsupported compiler: never selected at runtime

bool avx512_supported() { return false; }

void micro_8x8_avx512(int kc, const double* pa, const double* pb0,
                      const double* pb1, double* acc) {
  micro_8x4_generic(kc, pa, pb0, acc);
  micro_8x4_generic(kc, pa, pb1, acc + kMR * kNR);
}

#endif

}  // namespace hetsched::kernels::detail

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
//
// The file also holds the AVX-512 base cases of the recursive TRSM and
// POTRF: rows in 8-wide ZMM strips (masked tail), each strip's
// n <= kBaseCols columns held in registers for the whole solve.
#include "kernels/gemm_packed.hpp"

#include <cmath>
#include <cstddef>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define HETSCHED_KERNELS_HAVE_AVX512_PATH 1
#include <immintrin.h>
#else
#include "kernels/ref.hpp"
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

namespace {

using StripSolve = void (*)(int, const double*, int, const double*, double*,
                            int);

// X * L^T = A for n = N columns, one 8-row strip at a time. Right-looking
// within the strip: once column p is final (times 1 / l(p,p)) it is
// folded into every later column, so element (i, j) still sees its
// updates in the order p = 0..j-1 -- the order trsm_rlt_base_avx2 uses --
// while the N - p - 1 independent FMAs per step hide the FMA latency.
template <int N>
__attribute__((target("avx512f"))) void trsm_strips_avx512(
    int m, const double* l, int ldl, const double* inv, double* a, int lda) {
  for (int i = 0; i < m; i += kMR) {
    const int rows = m - i < kMR ? m - i : kMR;
    const auto mask = static_cast<__mmask8>((1u << rows) - 1u);
    double* ai = a + i;
    __m512d x[static_cast<std::size_t>(N)];
#pragma GCC unroll 16
    for (int j = 0; j < N; ++j)
      x[j] = _mm512_maskz_loadu_pd(mask,
                                   ai + static_cast<std::ptrdiff_t>(j) * lda);
#pragma GCC unroll 16
    for (int p = 0; p < N; ++p) {
      x[p] = _mm512_mul_pd(x[p], _mm512_set1_pd(inv[p]));
      const double* lp = l + static_cast<std::ptrdiff_t>(p) * ldl;
#pragma GCC unroll 16
      for (int j = p + 1; j < N; ++j)
        x[j] = _mm512_fnmadd_pd(_mm512_set1_pd(lp[j]), x[p], x[j]);
    }
#pragma GCC unroll 16
    for (int j = 0; j < N; ++j)
      _mm512_mask_storeu_pd(ai + static_cast<std::ptrdiff_t>(j) * lda, mask,
                            x[j]);
  }
}

constexpr StripSolve kStripsAvx512[kBaseCols] = {
    trsm_strips_avx512<1>,  trsm_strips_avx512<2>,  trsm_strips_avx512<3>,
    trsm_strips_avx512<4>,  trsm_strips_avx512<5>,  trsm_strips_avx512<6>,
    trsm_strips_avx512<7>,  trsm_strips_avx512<8>,  trsm_strips_avx512<9>,
    trsm_strips_avx512<10>, trsm_strips_avx512<11>, trsm_strips_avx512<12>,
    trsm_strips_avx512<13>, trsm_strips_avx512<14>, trsm_strips_avx512<15>,
    trsm_strips_avx512<16>};

using BaseFactor = int (*)(double*, int);

// Lanes of row strip s (rows kMR*s..) that lie in the N x N block at or
// below row `first`.
template <int N>
__mmask8 strip_mask(int s, int first) {
  const int top = kMR * s;
  unsigned live = N - top >= kMR ? 0xFFu : (1u << (N - top)) - 1u;
  if (first > top) live &= ~((1u << (first - top)) - 1u);
  return static_cast<__mmask8>(live);
}

// Lane i of v in every lane. (The zero-masking form, because the plain
// one's undefined pass-through trips -Wuninitialized on some GCCs.)
__attribute__((target("avx512f"))) __m512d lane(__m512d v, int i) {
  return _mm512_maskz_permutexvar_pd(static_cast<__mmask8>(0xFF),
                                     _mm512_set1_epi64(i), v);
}

// Lower Cholesky of an N x N block: every live column of its one or two
// 8-row strips sits in registers. Right-looking: column j is finished
// (pivot checked, l(j,j) = sqrt, the rest times 1 / l(j,j)) and folded
// into each later column t with one fused a -= l(t,j) * l(:,j), so element
// (i, t) sees its updates in the order j = 0..t-1 -- the order
// potrf_base_avx2 uses. Returns 0, or the 1-based failing pivot with the
// block left as ref::potrf_unblocked leaves it.
template <int N>
__attribute__((target("avx512f"))) int potrf_n_avx512(double* a, int lda) {
  constexpr int kStrips = (N + kMR - 1) / kMR;
  // x[s][j]: rows kMR*s.. of column j; only s >= j / kMR is live.
  __m512d x[static_cast<std::size_t>(kStrips)][static_cast<std::size_t>(N)];
  const auto col = [&](int s, int j) {
    return a + kMR * s + static_cast<std::ptrdiff_t>(j) * lda;
  };
#pragma GCC unroll 16
  for (int j = 0; j < N; ++j)
#pragma GCC unroll 2
    for (int s = j / kMR; s < kStrips; ++s)
      x[s][j] = _mm512_maskz_loadu_pd(strip_mask<N>(s, 0), col(s, j));
  int info = 0;
#pragma GCC unroll 16
  for (int j = 0; j < N; ++j) {
    const int sj = j / kMR;
    const double d = _mm512_cvtsd_f64(lane(x[sj][j], j % kMR));
    if (d <= 0.0 || !std::isfinite(d)) {
      info = j + 1;
      break;
    }
    const double ljj = std::sqrt(d);
    const __m512d inv = _mm512_set1_pd(1.0 / ljj);
#pragma GCC unroll 2
    for (int s = sj; s < kStrips; ++s) x[s][j] = _mm512_mul_pd(x[s][j], inv);
    x[sj][j] = _mm512_mask_mov_pd(x[sj][j], static_cast<__mmask8>(1u << (j % kMR)),
                                  _mm512_set1_pd(ljj));
#pragma GCC unroll 16
    for (int t = j + 1; t < N; ++t) {
      const int st = t / kMR;
      const __m512d ltj = lane(x[st][j], t % kMR);
#pragma GCC unroll 2
      for (int s = st; s < kStrips; ++s)
        x[s][t] = _mm512_fnmadd_pd(ltj, x[s][j], x[s][t]);
    }
  }
#pragma GCC unroll 16
  for (int j = 0; j < N; ++j)
#pragma GCC unroll 2
    for (int s = j / kMR; s < kStrips; ++s)
      _mm512_mask_storeu_pd(col(s, j), strip_mask<N>(s, j), x[s][j]);
  return info;
}

constexpr BaseFactor kPotrfAvx512[kBaseCols] = {
    potrf_n_avx512<1>,  potrf_n_avx512<2>,  potrf_n_avx512<3>,
    potrf_n_avx512<4>,  potrf_n_avx512<5>,  potrf_n_avx512<6>,
    potrf_n_avx512<7>,  potrf_n_avx512<8>,  potrf_n_avx512<9>,
    potrf_n_avx512<10>, potrf_n_avx512<11>, potrf_n_avx512<12>,
    potrf_n_avx512<13>, potrf_n_avx512<14>, potrf_n_avx512<15>,
    potrf_n_avx512<16>};

}  // namespace

void trsm_rlt_base_avx512(int m, int n, const double* l, int ldl, double* a,
                          int lda) {
  if (m <= 0 || n <= 0) return;
  double inv[kBaseCols];
  for (int j = 0; j < n; ++j)
    inv[j] = 1.0 / l[j + static_cast<std::ptrdiff_t>(j) * ldl];
  kStripsAvx512[n - 1](m, l, ldl, inv, a, lda);
}

int potrf_base_avx512(int n, double* a, int lda) {
  return n <= 0 ? 0 : kPotrfAvx512[n - 1](a, lda);
}

#else  // non-x86 or unsupported compiler: never selected at runtime

bool avx512_supported() { return false; }

void trsm_rlt_base_avx512(int m, int n, const double* l, int ldl, double* a,
                          int lda) {
  ref::trsm_rlt(m, n, l, ldl, a, lda);
}

int potrf_base_avx512(int n, double* a, int lda) {
  return ref::potrf_unblocked(n, a, lda);
}

void micro_8x8_avx512(int kc, const double* pa, const double* pb0,
                      const double* pb1, double* acc) {
  micro_8x4_generic(kc, pa, pb0, acc);
  micro_8x4_generic(kc, pa, pb1, acc + kMR * kNR);
}

#endif

}  // namespace hetsched::kernels::detail

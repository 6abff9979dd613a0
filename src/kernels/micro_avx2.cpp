// AVX2 + FMA micro-kernel, compiled via per-function target attributes so
// the translation unit builds at the portable baseline ISA and the binary
// stays runnable on machines without AVX2; runtime dispatch (engine.hpp)
// only routes here when the CPU reports both features. The file also holds
// the AVX2 base cases of the recursive TRSM and POTRF (4-wide YMM row
// strips).
#include "kernels/gemm_packed.hpp"

#include <cmath>
#include <cstddef>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define HETSCHED_KERNELS_HAVE_AVX2_PATH 1
#include <immintrin.h>
#else
#include "kernels/ref.hpp"
#endif

namespace hetsched::kernels::detail {

#if defined(HETSCHED_KERNELS_HAVE_AVX2_PATH)

bool avx2_supported() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}

__attribute__((target("avx2,fma"))) void micro_8x4_avx2(int kc,
                                                        const double* pa,
                                                        const double* pb,
                                                        double* acc) {
  // 8 accumulators (8 rows x 4 cols as 2x4 YMM), 2 A vectors, 1 B
  // broadcast: 11 of 16 YMM registers live.
  __m256d c00 = _mm256_setzero_pd(), c10 = _mm256_setzero_pd();
  __m256d c01 = _mm256_setzero_pd(), c11 = _mm256_setzero_pd();
  __m256d c02 = _mm256_setzero_pd(), c12 = _mm256_setzero_pd();
  __m256d c03 = _mm256_setzero_pd(), c13 = _mm256_setzero_pd();
  for (int p = 0; p < kc; ++p) {
    const __m256d a0 = _mm256_load_pd(pa);
    const __m256d a1 = _mm256_load_pd(pa + 4);
    __m256d b = _mm256_broadcast_sd(pb);
    c00 = _mm256_fmadd_pd(a0, b, c00);
    c10 = _mm256_fmadd_pd(a1, b, c10);
    b = _mm256_broadcast_sd(pb + 1);
    c01 = _mm256_fmadd_pd(a0, b, c01);
    c11 = _mm256_fmadd_pd(a1, b, c11);
    b = _mm256_broadcast_sd(pb + 2);
    c02 = _mm256_fmadd_pd(a0, b, c02);
    c12 = _mm256_fmadd_pd(a1, b, c12);
    b = _mm256_broadcast_sd(pb + 3);
    c03 = _mm256_fmadd_pd(a0, b, c03);
    c13 = _mm256_fmadd_pd(a1, b, c13);
    pa += kMR;
    pb += kNR;
  }
  _mm256_store_pd(acc + 0, c00);
  _mm256_store_pd(acc + 4, c10);
  _mm256_store_pd(acc + 8, c01);
  _mm256_store_pd(acc + 12, c11);
  _mm256_store_pd(acc + 16, c02);
  _mm256_store_pd(acc + 20, c12);
  _mm256_store_pd(acc + 24, c03);
  _mm256_store_pd(acc + 28, c13);
}

namespace {

constexpr int kStrip = 4;  // rows per YMM strip

using StripSolve = void (*)(int, const double*, int, const double*, double*,
                            int);

// X * L^T = A on one 4-row strip of N columns held in registers, with the
// per-element FMA order of trsm_rlt_base_avx512 (see there).
template <int N>
__attribute__((target("avx2,fma"))) void solve_strip_avx2(const double* l,
                                                          int ldl,
                                                          const double* inv,
                                                          double* a, int lda) {
  __m256d x[static_cast<std::size_t>(N)];
#pragma GCC unroll 16
  for (int j = 0; j < N; ++j)
    x[j] = _mm256_loadu_pd(a + static_cast<std::ptrdiff_t>(j) * lda);
#pragma GCC unroll 16
  for (int p = 0; p < N; ++p) {
    x[p] = _mm256_mul_pd(x[p], _mm256_set1_pd(inv[p]));
    const double* lp = l + static_cast<std::ptrdiff_t>(p) * ldl;
#pragma GCC unroll 16
    for (int j = p + 1; j < N; ++j)
      x[j] = _mm256_fnmadd_pd(_mm256_set1_pd(lp[j]), x[p], x[j]);
  }
#pragma GCC unroll 16
  for (int j = 0; j < N; ++j)
    _mm256_storeu_pd(a + static_cast<std::ptrdiff_t>(j) * lda, x[j]);
}

// Full strips in place; a row tail goes through a zero-padded 4-row copy
// so it takes the same instruction sequence.
template <int N>
__attribute__((target("avx2,fma"))) void trsm_strips_avx2(
    int m, const double* l, int ldl, const double* inv, double* a, int lda) {
  int i = 0;
  for (; i + kStrip <= m; i += kStrip)
    solve_strip_avx2<N>(l, ldl, inv, a + i, lda);
  if (i == m) return;
  const int rows = m - i;
  alignas(32) double tail[static_cast<std::size_t>(kStrip * N)] = {};
  for (int j = 0; j < N; ++j)
    for (int r = 0; r < rows; ++r)
      tail[r + kStrip * j] = a[i + r + static_cast<std::ptrdiff_t>(j) * lda];
  solve_strip_avx2<N>(l, ldl, inv, tail, kStrip);
  for (int j = 0; j < N; ++j)
    for (int r = 0; r < rows; ++r)
      a[i + r + static_cast<std::ptrdiff_t>(j) * lda] = tail[r + kStrip * j];
}

constexpr StripSolve kStripsAvx2[kBaseCols] = {
    trsm_strips_avx2<1>,  trsm_strips_avx2<2>,  trsm_strips_avx2<3>,
    trsm_strips_avx2<4>,  trsm_strips_avx2<5>,  trsm_strips_avx2<6>,
    trsm_strips_avx2<7>,  trsm_strips_avx2<8>,  trsm_strips_avx2<9>,
    trsm_strips_avx2<10>, trsm_strips_avx2<11>, trsm_strips_avx2<12>,
    trsm_strips_avx2<13>, trsm_strips_avx2<14>, trsm_strips_avx2<15>,
    trsm_strips_avx2<16>};

using BaseFactor = int (*)(double*, int);

// Sign-bit lane mask of row strip s (rows kStrip*s..) for the rows of the
// N x N block at or below row `first`.
template <int N>
__attribute__((target("avx2,fma"))) __m256i strip_mask(int s, int first) {
  const __m256i row = _mm256_setr_epi64x(0, 1, 2, 3);
  const int top = kStrip * s;
  return _mm256_and_si256(
      _mm256_cmpgt_epi64(_mm256_set1_epi64x(N - top), row),
      _mm256_cmpgt_epi64(row, _mm256_set1_epi64x(first - top - 1)));
}

// Lane i of v in every lane.
__attribute__((target("avx2,fma"))) __m256d lane(__m256d v, int i) {
  const long long lo = 2 * i;
  return _mm256_castps_pd(_mm256_permutevar8x32_ps(
      _mm256_castpd_ps(v), _mm256_set1_epi64x(((lo + 1) << 32) | lo)));
}

// Lower Cholesky of an N x N block in 4-row strips; the per-element order
// of potrf_base_avx512 (see there), with each of its 8-row strips split
// in two.
template <int N>
__attribute__((target("avx2,fma"))) int potrf_n_avx2(double* a, int lda) {
  constexpr int kStrips = (N + kStrip - 1) / kStrip;
  // x[s][j]: rows kStrip*s.. of column j; only s >= j / kStrip is live.
  __m256d x[static_cast<std::size_t>(kStrips)][static_cast<std::size_t>(N)];
  const auto col = [&](int s, int j) {
    return a + kStrip * s + static_cast<std::ptrdiff_t>(j) * lda;
  };
#pragma GCC unroll 16
  for (int j = 0; j < N; ++j)
#pragma GCC unroll 4
    for (int s = j / kStrip; s < kStrips; ++s)
      x[s][j] = _mm256_maskload_pd(col(s, j), strip_mask<N>(s, 0));
  int info = 0;
#pragma GCC unroll 16
  for (int j = 0; j < N; ++j) {
    const int sj = j / kStrip;
    const double d = _mm256_cvtsd_f64(lane(x[sj][j], j % kStrip));
    if (d <= 0.0 || !std::isfinite(d)) {
      info = j + 1;
      break;
    }
    const double ljj = std::sqrt(d);
    const __m256d inv = _mm256_set1_pd(1.0 / ljj);
#pragma GCC unroll 4
    for (int s = sj; s < kStrips; ++s) x[s][j] = _mm256_mul_pd(x[s][j], inv);
    const __m256i pivot = _mm256_cmpeq_epi64(
        _mm256_setr_epi64x(0, 1, 2, 3), _mm256_set1_epi64x(j % kStrip));
    x[sj][j] = _mm256_blendv_pd(x[sj][j], _mm256_set1_pd(ljj),
                                _mm256_castsi256_pd(pivot));
#pragma GCC unroll 16
    for (int t = j + 1; t < N; ++t) {
      const int st = t / kStrip;
      const __m256d ltj = lane(x[st][j], t % kStrip);
#pragma GCC unroll 4
      for (int s = st; s < kStrips; ++s)
        x[s][t] = _mm256_fnmadd_pd(ltj, x[s][j], x[s][t]);
    }
  }
#pragma GCC unroll 16
  for (int j = 0; j < N; ++j)
#pragma GCC unroll 4
    for (int s = j / kStrip; s < kStrips; ++s)
      _mm256_maskstore_pd(col(s, j), strip_mask<N>(s, j), x[s][j]);
  return info;
}

constexpr BaseFactor kPotrfAvx2[kBaseCols] = {
    potrf_n_avx2<1>,  potrf_n_avx2<2>,  potrf_n_avx2<3>,  potrf_n_avx2<4>,
    potrf_n_avx2<5>,  potrf_n_avx2<6>,  potrf_n_avx2<7>,  potrf_n_avx2<8>,
    potrf_n_avx2<9>,  potrf_n_avx2<10>, potrf_n_avx2<11>, potrf_n_avx2<12>,
    potrf_n_avx2<13>, potrf_n_avx2<14>, potrf_n_avx2<15>, potrf_n_avx2<16>};

}  // namespace

void trsm_rlt_base_avx2(int m, int n, const double* l, int ldl, double* a,
                        int lda) {
  if (m <= 0 || n <= 0) return;
  double inv[kBaseCols];
  for (int j = 0; j < n; ++j)
    inv[j] = 1.0 / l[j + static_cast<std::ptrdiff_t>(j) * ldl];
  kStripsAvx2[n - 1](m, l, ldl, inv, a, lda);
}

int potrf_base_avx2(int n, double* a, int lda) {
  return n <= 0 ? 0 : kPotrfAvx2[n - 1](a, lda);
}

#else  // non-x86 or unsupported compiler: never selected at runtime

bool avx2_supported() { return false; }

void trsm_rlt_base_avx2(int m, int n, const double* l, int ldl, double* a,
                        int lda) {
  ref::trsm_rlt(m, n, l, ldl, a, lda);
}

int potrf_base_avx2(int n, double* a, int lda) {
  return ref::potrf_unblocked(n, a, lda);
}

void micro_8x4_avx2(int kc, const double* pa, const double* pb, double* acc) {
  micro_8x4_generic(kc, pa, pb, acc);
}

#endif

}  // namespace hetsched::kernels::detail

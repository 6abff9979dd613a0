#include "kernels/gemm_packed.hpp"

#include <algorithm>
#include <cstddef>

#include "kernels/engine.hpp"
#include "kernels/scratch.hpp"

namespace hetsched::kernels::detail {
namespace {

using MicroKernel = void (*)(int, const double*, const double*, double*);

}  // namespace

void pack_a(int mc, int kc, const double* a, int lda, double* dst) {
  for (int ir = 0; ir < mc; ir += kMR) {
    const int mr = std::min(kMR, mc - ir);
    double* d = dst + static_cast<std::ptrdiff_t>(ir) * kc;
    for (int p = 0; p < kc; ++p) {
      const double* ap = a + ir + static_cast<std::ptrdiff_t>(p) * lda;
      int i = 0;
      for (; i < mr; ++i) d[i] = ap[i];
      for (; i < kMR; ++i) d[i] = 0.0;
      d += kMR;
    }
  }
}

void pack_b(int kc, int n, const double* b, int ldb, BLayout layout,
            double* dst) {
  for (int jr = 0; jr < n; jr += kNR) {
    const int nr = std::min(kNR, n - jr);
    double* d = dst + static_cast<std::ptrdiff_t>(jr) * kc;
    if (layout == BLayout::kNT) {
      for (int p = 0; p < kc; ++p) {
        const double* bp = b + jr + static_cast<std::ptrdiff_t>(p) * ldb;
        int j = 0;
        for (; j < nr; ++j) d[j] = bp[j];
        for (; j < kNR; ++j) d[j] = 0.0;
        d += kNR;
      }
    } else {
      for (int p = 0; p < kc; ++p) {
        int j = 0;
        for (; j < nr; ++j)
          d[j] = b[p + static_cast<std::ptrdiff_t>(jr + j) * ldb];
        for (; j < kNR; ++j) d[j] = 0.0;
        d += kNR;
      }
    }
  }
}

void micro_8x4_generic(int kc, const double* pa, const double* pb,
                       double* acc) {
  // Local accumulator array; with kMR*kNR = 32 doubles the compiler keeps
  // it in SIMD registers at the baseline ISA.
  double c[kMR * kNR] = {};
  for (int p = 0; p < kc; ++p) {
    for (int j = 0; j < kNR; ++j) {
      const double bj = pb[j];
      double* cj = c + j * kMR;
      for (int i = 0; i < kMR; ++i) cj[i] += pa[i] * bj;
    }
    pa += kMR;
    pb += kNR;
  }
  for (int x = 0; x < kMR * kNR; ++x) acc[x] = c[x];
}

void gemm_packed(int m, int n, int k, double alpha, const double* a, int lda,
                 const double* b, int ldb, BLayout layout, double* c, int ldc,
                 bool lower_only) {
  if (m <= 0 || n <= 0 || k <= 0 || alpha == 0.0) return;
  // One tier snapshot per call (see engine.hpp): every micro-kernel
  // decision below derives from `tier`, so a concurrent set_engine_tier()
  // can never hand this call a mixed configuration. The AVX-512 tier
  // pairs adjacent B micro-panels into 8x8 register tiles and uses the
  // AVX2 8x4 kernel (always supported where AVX-512 is) for odd trailing
  // panels and diagonal-straddling lower_only tiles.
  const Tier tier = engine_tier();
  const bool wide = tier == Tier::kAvx512;
  const MicroKernel micro =
      tier == Tier::kGeneric ? micro_8x4_generic : micro_8x4_avx2;
  // Thread-local binding first (per-region TilePlan geometry), else the
  // process-wide geometry.
  const PackGeometry g = detail::active_pack_geometry();
  TileScratch& scratch = active_scratch();
  double* const pb = scratch.b_panel(b_call_doubles(n, g));
  double* const pa = scratch.a_panel(a_call_doubles(m, g));

  for (int pc = 0; pc < k; pc += g.kc) {
    const int kc = std::min(g.kc, k - pc);
    pack_b(kc, n,
           layout == BLayout::kNT ? b + static_cast<std::ptrdiff_t>(pc) * ldb
                                  : b + pc,
           ldb, layout, pb);
    for (int ic = 0; ic < m; ic += g.mc) {
      const int mc = std::min(g.mc, m - ic);
      pack_a(mc, kc, a + ic + static_cast<std::ptrdiff_t>(pc) * lda, lda, pa);
      // The AVX-512 tier consumes two adjacent B micro-panels per
      // micro-kernel call (jw = 8 columns) whenever a second panel exists;
      // the trailing odd panel and SYRK micro-tiles whose right panel is
      // strictly above the diagonal drop to the 8x4 kernel, which keeps
      // the skip-before-flops property of the narrow loop.
      for (int jr = 0; jr < n;) {
        // Every remaining micro-tile of this A block would be strictly
        // above the diagonal: nothing left to store in this block row.
        if (lower_only && jr > ic + mc - 1) break;
        const bool paired = wide && n - jr > kNR;
        const int jw = paired ? 2 * kNR : kNR;
        const int nr = std::min(jw, n - jr);
        const double* pbj = pb + static_cast<std::ptrdiff_t>(jr) * kc;
        for (int ir = 0; ir < mc; ir += kMR) {
          const int mr = std::min(kMR, mc - ir);
          const int gi = ic + ir;  // global row of the micro-tile's top
          if (lower_only && gi + mr - 1 < jr) continue;  // strictly upper
          alignas(64) double acc[kMR * 2 * kNR];
          const double* pai = pa + static_cast<std::ptrdiff_t>(ir) * kc;
          int cols;  // accumulator columns holding live results
          if (paired && !(lower_only && gi + mr - 1 < jr + kNR)) {
            micro_8x8_avx512(kc, pai, pbj,
                             pbj + static_cast<std::ptrdiff_t>(kNR) * kc,
                             acc);
            cols = nr;
          } else {
            // Narrow tile: odd trailing panel, non-AVX-512 tier, or the
            // right panel of the pair is strictly upper (nothing to
            // store there).
            micro(kc, pai, pbj, acc);
            cols = std::min(nr, kNR);
          }
          const bool full = mr == kMR && cols == jw &&
                            (!lower_only || gi >= jr + cols - 1);
          if (full) {
            for (int j = 0; j < cols; ++j) {
              double* cj = c + gi + static_cast<std::ptrdiff_t>(jr + j) * ldc;
              const double* accj = acc + j * kMR;
              for (int i = 0; i < kMR; ++i) cj[i] += alpha * accj[i];
            }
          } else {
            for (int j = 0; j < cols; ++j) {
              double* cj = c + gi + static_cast<std::ptrdiff_t>(jr + j) * ldc;
              const double* accj = acc + j * kMR;
              for (int i = 0; i < mr; ++i)
                if (!lower_only || gi + i >= jr + j) cj[i] += alpha * accj[i];
            }
          }
        }
        jr += jw;
      }
    }
  }
}

}  // namespace hetsched::kernels::detail

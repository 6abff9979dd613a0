// Internal: the packed cache-blocked GEMM core of the optimized kernels.
//
// GotoBLAS-style three-level blocking. For C(m x n) += alpha * A * op(B):
//
//   for pc in steps of kc:                        (L3/L2: rank-kc slices)
//     pack op(B)(pc:pc+kc, :) into ~B  (kNR-wide column micro-panels)
//     for ic in steps of mc:                      (L2: A block)
//       pack A(ic:ic+mc, pc:pc+kc) into ~A (kMR-tall row micro-panels)
//       for jr in steps of kNR:                   (registers)
//         for ir in steps of kMR:
//           acc(kMR x kNR) = ~A panel * ~B panel   <- micro-kernel
//           C(ic+ir.., jr..) += alpha * acc        (masked at edges)
//
// Panels are zero-padded to kMR/kNR multiples so the micro-kernel never
// branches on the depth loop; edge handling happens once, at the accumulate
// into C. `lower_only` restricts the store to elements with row >= col of
// C's own index space (SYRK's lower triangle); micro-tiles entirely above
// the diagonal are skipped before any flops are spent.
//
// Both operands are packed per call into the calling thread's TileScratch
// (scratch.hpp), with the kc/mc geometry of pack_geometry.hpp: each tile
// kernel is a self-contained call that shares no packed state with any
// other.
//
// The header also declares the per-tier base cases of the recursive TRSM
// and POTRF (kernels_opt.cpp): at or below kBaseCols columns the solve or
// factorization runs in registers instead of through the packed engine.
//
// This header is internal to src/kernels; the public surface is
// core/kernels.hpp (tile API) + kernels/engine.hpp (dispatch control).
#pragma once

#include "kernels/engine.hpp"
#include "kernels/pack_geometry.hpp"

namespace hetsched::kernels::detail {

/// How B's memory maps onto the op(B) the product consumes.
enum class BLayout {
  kNT,  ///< B stored n x k, product uses B^T  (dgemm NT / dsyrk)
  kNN,  ///< B stored k x n, product uses B    (dgemm NN)
};

/// C(m x n) += alpha * A(m x k) * op(B) with op per `layout`; `lower_only`
/// confines stores to C's lower triangle (row >= col). Both operands are
/// packed through the calling thread's active TileScratch. `tier` is the
/// caller's one snapshot of engine_tier() (see engine.hpp): every
/// micro-kernel decision of the call derives from it.
void gemm_packed(Tier tier, int m, int n, int k, double alpha, const double* a,
                 int lda, const double* b, int ldb, BLayout layout, double* c,
                 int ldc, bool lower_only);

/// Packs A(mc x kc) (column-major, leading dimension lda) into kMR-tall
/// row micro-panels: panel ir starts at dst + ir*kc and stores column p of
/// its rows contiguously. Rows beyond mc are zero-padded.
void pack_a(int mc, int kc, const double* a, int lda, double* dst);

/// Packs op(B)(kc x n) into kNR-wide column micro-panels: panel jr starts
/// at dst + jr*kc and stores row p of its columns contiguously. For kNT
/// the element op(B)(p, j) lives at b[j + p*ldb]; for kNN at b[p + j*ldb].
/// Columns beyond n are zero-padded.
void pack_b(int kc, int n, const double* b, int ldb, BLayout layout,
            double* dst);

/// Portable micro-kernel: acc(kMR x kNR, column-major, 32-byte aligned) :=
/// sum_p pa[p*kMR + i] * pb[p*kNR + j]. Written to auto-vectorize at the
/// baseline ISA.
void micro_8x4_generic(int kc, const double* pa, const double* pb,
                       double* acc);

/// AVX2+FMA intrinsics variant (per-function target attribute); only
/// callable when avx2_supported(). Falls back to the generic kernel on
/// non-x86 builds.
void micro_8x4_avx2(int kc, const double* pa, const double* pb, double* acc);

/// AVX-512F paired-panel variant: acc(kMR x 2*kNR, column-major, 64-byte
/// aligned) := sum_p pa[p*kMR + i] * {pb0,pb1}[p*kNR + j], where pb0/pb1
/// are two adjacent kNR-wide packed B micro-panels. The packed-panel ABI
/// is unchanged from the 8x4 tiers -- only the macro loop pairs panels.
/// Only callable when avx512_supported(); composes two generic 8x4 calls
/// on non-x86 builds.
void micro_8x8_avx512(int kc, const double* pa, const double* pb0,
                      const double* pb1, double* acc);

/// Widest column block the TRSM/POTRF base cases handle: the recursion
/// splits until n <= kBaseCols, which keeps one row strip's columns in
/// vector registers.
inline constexpr int kBaseCols = 16;

/// Base solve X * L^T = A on an m x n block (n <= kBaseCols), overwriting
/// A with X. Rows run in 4-wide YMM strips (a row tail through a
/// zero-padded copy); per element the
/// update is a fused a -= l(j,p) * x(p) over p = 0..j-1 in order, then a
/// multiply by 1 / l(j,j), so the result is bitwise equal to
/// trsm_rlt_base_avx512. Only callable when avx2_supported(); falls back
/// to ref::trsm_rlt on non-x86 builds.
void trsm_rlt_base_avx2(int m, int n, const double* l, int ldl, double* a,
                        int lda);

/// AVX-512F variant of the base solve: 8-wide ZMM row strips with masked
/// tails, the same per-element FMA order as trsm_rlt_base_avx2. Only
/// callable when avx512_supported().
void trsm_rlt_base_avx512(int m, int n, const double* l, int ldl, double* a,
                          int lda);

/// Base case of the recursive POTRF: lower Cholesky of the n x n block
/// (n <= kBaseCols) in 4-wide YMM row strips. Per element the updates are
/// fused a -= l(t,j) * l(i,j) over j = 0..t-1 in order, then the pivot's
/// sqrt or a multiply by 1 / l(t,t), so the result is bitwise equal to
/// potrf_base_avx512. Returns 0 or the 1-based failing pivot, with the
/// pivot test of ref::potrf_unblocked; as there, a failure leaves the
/// columns before the pivot finished and the rest updated by them. Only
/// callable when avx2_supported().
int potrf_base_avx2(int n, double* a, int lda);

/// AVX-512F variant of the POTRF base case (8-wide ZMM row strips, same
/// per-element order). Only callable when avx512_supported().
int potrf_base_avx512(int n, double* a, int lda);

/// True when the running CPU reports AVX2 and FMA.
bool avx2_supported();

/// True when the running CPU reports AVX-512F.
bool avx512_supported();

}  // namespace hetsched::kernels::detail

// Optimized implementations of the public tile-kernel API
// (core/kernels.hpp): GEMM/SYRK run through the packed micro-kernel engine
// (gemm_packed.hpp); TRSM and POTRF are recursive, so nearly all of their
// cycles are spent inside the same engine and the rest in small
// register-blocked base solves; small GEMM/SYRK tiles -- where packing
// cannot amortize -- take the reference axpy loops unchanged. The LU panel
// solves and the QR kernels delegate to the reference implementations (they
// are a small fraction of their factorizations' flops; the LU trailing
// update gemm_nn is packed).
//
// Every public kernel loads the engine tier once and hands that snapshot
// to each gemm_packed call and base solve it makes (engine.hpp contract).
#include "core/kernels.hpp"

#include <cstddef>
#include <cstdint>

#include "kernels/gemm_packed.hpp"
#include "kernels/ref.hpp"

namespace hetsched::kernels {
namespace {

using detail::BLayout;
using detail::kBaseCols;

// Below this many multiply-adds the packing traffic dominates; the
// reference loops are faster (and bit-identical to the seed).
constexpr std::int64_t kPackedWorkFloor = 32 * 32 * 32;

inline std::int64_t work(int m, int n, int k) {
  return static_cast<std::int64_t>(m) * n * k;
}

// Column split of the recursive kernels (n > kBaseCols): about half,
// rounded up to a multiple of kBaseCols (itself a multiple of kMR), so
// the halves stay aligned to the packed row panels and the leaves are
// full-width base cases wherever n allows.
inline int split(int n) { return detail::round_up(n / 2, kBaseCols); }

// X * L^T = A on an m x n block at or below the base width.
void trsm_rlt_base(Tier tier, int m, int n, const double* l, int ldl,
                   double* a, int lda) {
  switch (tier) {
    case Tier::kAvx512:
      detail::trsm_rlt_base_avx512(m, n, l, ldl, a, lda);
      return;
    case Tier::kAvx2:
      detail::trsm_rlt_base_avx2(m, n, l, ldl, a, lda);
      return;
    case Tier::kGeneric:
      break;
  }
  ref::trsm_rlt(m, n, l, ldl, a, lda);
}

// X * L^T = A on an m x n block, recursive on the columns: solve the left
// n1 columns, fold them into the right ones with one packed GEMM
// (A2 -= X1 * L21^T), solve the right columns.
void trsm_rlt_rec(Tier tier, int m, int n, const double* l, int ldl,
                  double* a, int lda) {
  if (n <= kBaseCols) {
    trsm_rlt_base(tier, m, n, l, ldl, a, lda);
    return;
  }
  const int n1 = split(n);
  const int n2 = n - n1;
  double* a2 = a + static_cast<std::ptrdiff_t>(n1) * lda;
  trsm_rlt_rec(tier, m, n1, l, ldl, a, lda);
  // L21 (rows n1.., columns 0..n1) consumed as an NT-layout B.
  detail::gemm_packed(tier, m, n2, n1, -1.0, a, lda, l + n1, ldl,
                      BLayout::kNT, a2, lda, /*lower_only=*/false);
  trsm_rlt_rec(tier, m, n2, l + n1 + static_cast<std::ptrdiff_t>(n1) * ldl,
               ldl, a2, lda);
}

// C(n x n lower) += alpha * A(n x k) * A^T through the engine.
void syrk_ln_blocked(Tier tier, int n, int k, double alpha, const double* a,
                     int lda, double* c, int ldc) {
  if (work(n, n, k) < kPackedWorkFloor) {
    ref::syrk_ln(n, k, alpha, a, lda, c, ldc);
    return;
  }
  detail::gemm_packed(tier, n, n, k, alpha, a, lda, a, lda, BLayout::kNT, c,
                      ldc, /*lower_only=*/true);
}

// Lower Cholesky of an n x n block at or below the base width.
int potrf_base(Tier tier, int n, double* a, int lda) {
  switch (tier) {
    case Tier::kAvx512:
      return detail::potrf_base_avx512(n, a, lda);
    case Tier::kAvx2:
      return detail::potrf_base_avx2(n, a, lda);
    case Tier::kGeneric:
      break;
  }
  return ref::potrf_unblocked(n, a, lda);
}

// Lower Cholesky of the n x n block, recursive with the TRSM's split:
// factor A11, solve A21 := A21 * L11^-T, update A22 -= A21 * A21^T, factor
// A22. Returns 0 or the 1-based column (within this block) of the first
// failing pivot, where the factorization stops. The A22 update is packed
// at every size: inside the recursion the reference SYRK loops lose even
// below kPackedWorkFloor.
int potrf_rec(Tier tier, int n, double* a, int lda) {
  if (n <= kBaseCols) return potrf_base(tier, n, a, lda);
  const int n1 = split(n);
  const int n2 = n - n1;
  if (const int info = potrf_rec(tier, n1, a, lda); info != 0) return info;
  double* a21 = a + n1;
  double* a22 = a21 + static_cast<std::ptrdiff_t>(n1) * lda;
  trsm_rlt_rec(tier, n2, n1, a, lda, a21, lda);
  detail::gemm_packed(tier, n2, n2, n1, -1.0, a21, lda, a21, lda, BLayout::kNT,
                      a22, lda, /*lower_only=*/true);
  if (const int info = potrf_rec(tier, n2, a22, lda); info != 0)
    return n1 + info;
  return 0;
}

}  // namespace

bool potrf(int nb, double* a, int lda) { return potrf_info(nb, a, lda) == 0; }

int potrf_info(int nb, double* a, int lda) {
  return potrf_rec(engine_tier(), nb, a, lda);
}

void trsm(int nb, const double* l, int ldl, double* a, int lda) {
  trsm_rlt_rec(engine_tier(), nb, nb, l, ldl, a, lda);
}

void syrk(int nb, const double* a, int lda, double* c, int ldc) {
  syrk_ln_blocked(engine_tier(), nb, nb, -1.0, a, lda, c, ldc);
}

void gemm(int nb, const double* a, int lda, const double* b, int ldb,
          double* c, int ldc) {
  if (work(nb, nb, nb) < kPackedWorkFloor) {
    ref::gemm(nb, a, lda, b, ldb, c, ldc);
    return;
  }
  detail::gemm_packed(engine_tier(), nb, nb, nb, -1.0, a, lda, b, ldb,
                      BLayout::kNT, c, ldc, /*lower_only=*/false);
}

// ---- LU kernels ------------------------------------------------------------

bool getrf_nopiv(int nb, double* a, int lda) {
  return ref::getrf_nopiv(nb, a, lda);
}

void trsm_llu(int nb, const double* lu, int ldlu, double* a, int lda) {
  ref::trsm_llu(nb, lu, ldlu, a, lda);
}

void trsm_run(int nb, const double* lu, int ldlu, double* a, int lda) {
  ref::trsm_run(nb, lu, ldlu, a, lda);
}

void gemm_nn(int nb, const double* a, int lda, const double* b, int ldb,
             double* c, int ldc) {
  if (work(nb, nb, nb) < kPackedWorkFloor) {
    ref::gemm_nn(nb, a, lda, b, ldb, c, ldc);
    return;
  }
  detail::gemm_packed(engine_tier(), nb, nb, nb, -1.0, a, lda, b, ldb,
                      BLayout::kNN, c, ldc, /*lower_only=*/false);
}

// ---- Tile-QR kernels --------------------------------------------------------

void geqrt(int nb, double* a, int lda, double* tau) {
  ref::geqrt(nb, a, lda, tau);
}

void ormqr(int nb, const double* v, int ldv, const double* tau, double* c,
           int ldc) {
  ref::ormqr(nb, v, ldv, tau, c, ldc);
}

void tsqrt(int nb, double* r, int ldr, double* a, int lda, double* tau) {
  ref::tsqrt(nb, r, ldr, a, lda, tau);
}

void tsmqr(int nb, const double* v, int ldv, const double* tau,
           double* c_top, int ldt, double* c_bot, int ldb) {
  ref::tsmqr(nb, v, ldv, tau, c_top, ldt, c_bot, ldb);
}

}  // namespace hetsched::kernels

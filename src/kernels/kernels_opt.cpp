// Optimized implementations of the public tile-kernel API
// (core/kernels.hpp): GEMM/SYRK run through the packed micro-kernel engine
// (gemm_packed.hpp), TRSM and POTRF are blocked so nearly all of their
// cycles are spent inside the same engine, and small tiles -- where packing
// cannot amortize -- take the reference axpy loops unchanged. The LU panel
// solves and the QR kernels delegate to the reference implementations (they
// are a small fraction of their factorizations' flops; the LU trailing
// update gemm_nn is packed).
#include "core/kernels.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "kernels/gemm_packed.hpp"
#include "kernels/ref.hpp"

namespace hetsched::kernels {
namespace {

using detail::BLayout;

// Below this many multiply-adds the packing traffic dominates; the
// reference loops are faster (and bit-identical to the seed).
constexpr std::int64_t kPackedWorkFloor = 32 * 32 * 32;

// Column blocking of the right-lower-transpose TRSM: the in-block solve
// stays on the reference loops, everything left of the block is one packed
// GEMM, so the non-GEMM fraction is ~kTrsmBlock/n of the flops.
constexpr int kTrsmBlock = 32;

// POTRF panel width: diagonal kPanel x kPanel factorizations stay
// unblocked, panel solves and trailing updates run through the engine.
constexpr int kPotrfPanel = 64;

inline std::int64_t work(int m, int n, int k) {
  return static_cast<std::int64_t>(m) * n * k;
}

// X * L^T = A on an m x n block, blocked for the packed engine.
void trsm_rlt_blocked(int m, int n, const double* l, int ldl, double* a,
                      int lda) {
  if (n <= kTrsmBlock || work(m, n, n) < kPackedWorkFloor) {
    ref::trsm_rlt(m, n, l, ldl, a, lda);
    return;
  }
  for (int j = 0; j < n; j += kTrsmBlock) {
    const int jb = std::min(kTrsmBlock, n - j);
    double* aj = a + static_cast<std::ptrdiff_t>(j) * lda;
    if (j > 0) {
      // A(:, j:j+jb) -= A(:, 0:j) * L(j:j+jb, 0:j)^T  -- row slice of L
      // consumed as an NT-layout B.
      detail::gemm_packed(m, jb, j, -1.0, a, lda, l + j, ldl, BLayout::kNT,
                          aj, lda, /*lower_only=*/false);
    }
    ref::trsm_rlt(m, jb, l + j + static_cast<std::ptrdiff_t>(j) * ldl, ldl,
                  aj, lda);
  }
}

// C(n x n lower) += alpha * A(n x k) * A^T through the engine.
void syrk_ln_blocked(int n, int k, double alpha, const double* a, int lda,
                     double* c, int ldc) {
  if (work(n, n, k) < kPackedWorkFloor) {
    ref::syrk_ln(n, k, alpha, a, lda, c, ldc);
    return;
  }
  detail::gemm_packed(n, n, k, alpha, a, lda, a, lda, BLayout::kNT, c, ldc,
                      /*lower_only=*/true);
}

}  // namespace

bool potrf(int nb, double* a, int lda) { return potrf_info(nb, a, lda) == 0; }

int potrf_info(int nb, double* a, int lda) {
  if (nb <= kPotrfPanel) return ref::potrf_unblocked(nb, a, lda);
  for (int k = 0; k < nb; k += kPotrfPanel) {
    const int kb = std::min(kPotrfPanel, nb - k);
    double* akk = a + k + static_cast<std::ptrdiff_t>(k) * lda;
    if (const int info = ref::potrf_unblocked(kb, akk, lda); info != 0)
      return k + info;
    const int m = nb - k - kb;  // rows below the diagonal block
    if (m > 0) {
      double* apanel = a + (k + kb) + static_cast<std::ptrdiff_t>(k) * lda;
      trsm_rlt_blocked(m, kb, akk, lda, apanel, lda);
      double* atrail =
          a + (k + kb) + static_cast<std::ptrdiff_t>(k + kb) * lda;
      syrk_ln_blocked(m, kb, -1.0, apanel, lda, atrail, lda);
    }
  }
  return 0;
}

void trsm(int nb, const double* l, int ldl, double* a, int lda) {
  trsm_rlt_blocked(nb, nb, l, ldl, a, lda);
}

void syrk(int nb, const double* a, int lda, double* c, int ldc) {
  syrk_ln_blocked(nb, nb, -1.0, a, lda, c, ldc);
}

void gemm(int nb, const double* a, int lda, const double* b, int ldb,
          double* c, int ldc) {
  if (work(nb, nb, nb) < kPackedWorkFloor) {
    ref::gemm(nb, a, lda, b, ldb, c, ldc);
    return;
  }
  detail::gemm_packed(nb, nb, nb, -1.0, a, lda, b, ldb, BLayout::kNT, c, ldc,
                      /*lower_only=*/false);
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
  detail::gemm_packed(nb, nb, nb, -1.0, a, lda, b, ldb, BLayout::kNN, c, ldc,
                      /*lower_only=*/false);
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

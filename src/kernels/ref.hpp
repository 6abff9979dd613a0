// Reference tile kernels: the original naive axpy triple-loop
// implementations, kept verbatim as correctness oracles for the optimized
// engine (src/kernels/gemm_packed.*, kernels_opt.cpp) and as the fallback
// for tiles too small to amortize packing.
//
// The m/n/k-shaped helpers (gemm_nt, trsm_rlt, syrk_ln, potrf_unblocked)
// are exposed as well: trsm_rlt and potrf_unblocked are the generic tier's
// base cases of the recursive TRSM/POTRF, syrk_ln the small-tile SYRK, and
// the tests use them to check arbitrary sub-block shapes.
#pragma once

namespace hetsched::kernels::ref {

// ---- General-shape building blocks ----------------------------------------

/// C(m x n) += alpha * A(m x k) * B(n x k)^T, column-major.
void gemm_nt(int m, int n, int k, double alpha, const double* a, int lda,
             const double* b, int ldb, double* c, int ldc);

/// Solve X * L^T = A for an m x n block A (L lower-triangular n x n);
/// overwrites A with X.
void trsm_rlt(int m, int n, const double* l, int ldl, double* a, int lda);

/// C(n x n, lower triangle) += alpha * A(n x k) * A^T.
void syrk_ln(int n, int k, double alpha, const double* a, int lda, double* c,
             int ldc);

/// Unblocked right-looking lower Cholesky of the n x n leading block.
/// Returns 0 on success, else the 1-based index of the failing pivot.
int potrf_unblocked(int n, double* a, int lda);

// ---- Tile-API mirrors (same contracts as hetsched::kernels::*) -------------

bool potrf(int nb, double* a, int lda);
int potrf_info(int nb, double* a, int lda);
void trsm(int nb, const double* l, int ldl, double* a, int lda);
void syrk(int nb, const double* a, int lda, double* c, int ldc);
void gemm(int nb, const double* a, int lda, const double* b, int ldb,
          double* c, int ldc);

bool getrf_nopiv(int nb, double* a, int lda);
void trsm_llu(int nb, const double* lu, int ldlu, double* a, int lda);
void trsm_run(int nb, const double* lu, int ldlu, double* a, int lda);
void gemm_nn(int nb, const double* a, int lda, const double* b, int ldb,
             double* c, int ldc);

void geqrt(int nb, double* a, int lda, double* tau);
void ormqr(int nb, const double* v, int ldv, const double* tau, double* c,
           int ldc);
void tsqrt(int nb, double* r, int ldr, double* a, int lda, double* tau);
void tsmqr(int nb, const double* v, int ldv, const double* tau,
           double* c_top, int ldt, double* c_bot, int ldb);

}  // namespace hetsched::kernels::ref

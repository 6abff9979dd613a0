// Optimized kernel engine (src/kernels/) against the kernels::ref oracles.
//
// Complements test_kernels.cpp (which validates the public API against
// closed-form expectations at small/medium nb) with:
//   * ref-vs-opt agreement across the packing edge cases: nb 1..8 (below
//     one micro-tile), 63/64/65 (around the kMC/kKC-aligned sizes), 192,
//     and the paper's 960;
//   * non-trivial leading dimensions on every operand;
//   * the recursive TRSM/POTRF around every split and base-case width,
//     their pivot reporting, and tier agreement (avx2 == avx512 bitwise);
//   * generic-vs-AVX2 tier agreement through set_engine_tier();
//   * a full factorization residual through execute_parallel, i.e. the
//     engine as the executors actually drive it (scratch pool bound).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <tuple>
#include <vector>

#include "core/cholesky_dag.hpp"
#include "core/dense_matrix.hpp"
#include "core/kernels.hpp"
#include "core/tile_matrix.hpp"
#include "exec/parallel_executor.hpp"
#include "kernels/engine.hpp"
#include "kernels/ref.hpp"

namespace hetsched {
namespace {

std::vector<double> random_block(int rows, int cols, unsigned seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> t(static_cast<std::size_t>(rows) *
                        static_cast<std::size_t>(cols));
  for (double& x : t) x = dist(rng);
  return t;
}

std::vector<double> spd_block(int nb, int ld, unsigned seed) {
  const DenseMatrix a = DenseMatrix::random_spd(nb, seed);
  std::vector<double> t(static_cast<std::size_t>(ld) *
                        static_cast<std::size_t>(nb));
  for (int j = 0; j < nb; ++j)
    for (int i = 0; i < nb; ++i)
      t[static_cast<std::size_t>(i) +
        static_cast<std::size_t>(j) * static_cast<std::size_t>(ld)] = a(i, j);
  return t;
}

double max_abs(const std::vector<double>& t) {
  double m = 0.0;
  for (const double x : t) m = std::max(m, std::abs(x));
  return m;
}

/// Elementwise |x - y| <= 1e-10 * (1 + max|y|): the ISSUE's norm-scaled
/// tolerance. ref and opt sum in different orders, so exact equality is
/// not expected above the small-tile fallback threshold.
void expect_close(const std::vector<double>& got,
                  const std::vector<double>& want) {
  ASSERT_EQ(got.size(), want.size());
  const double tol = 1e-10 * (1.0 + max_abs(want));
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_NEAR(got[i], want[i], tol) << "flat index " << i;
}

class OptVsRefSweep : public ::testing::TestWithParam<int> {};

TEST_P(OptVsRefSweep, Gemm) {
  const int nb = GetParam();
  const auto a = random_block(nb, nb, 11);
  const auto b = random_block(nb, nb, 12);
  auto c_opt = random_block(nb, nb, 13);
  auto c_ref = c_opt;
  kernels::gemm(nb, a.data(), nb, b.data(), nb, c_opt.data(), nb);
  kernels::ref::gemm(nb, a.data(), nb, b.data(), nb, c_ref.data(), nb);
  expect_close(c_opt, c_ref);
}

TEST_P(OptVsRefSweep, GemmNn) {
  const int nb = GetParam();
  const auto a = random_block(nb, nb, 14);
  const auto b = random_block(nb, nb, 15);
  auto c_opt = random_block(nb, nb, 16);
  auto c_ref = c_opt;
  kernels::gemm_nn(nb, a.data(), nb, b.data(), nb, c_opt.data(), nb);
  kernels::ref::gemm_nn(nb, a.data(), nb, b.data(), nb, c_ref.data(), nb);
  expect_close(c_opt, c_ref);
}

TEST_P(OptVsRefSweep, Syrk) {
  const int nb = GetParam();
  const auto a = random_block(nb, nb, 17);
  auto c_opt = random_block(nb, nb, 18);
  auto c_ref = c_opt;
  kernels::syrk(nb, a.data(), nb, c_opt.data(), nb);
  kernels::ref::syrk(nb, a.data(), nb, c_ref.data(), nb);
  expect_close(c_opt, c_ref);
  // Strict upper triangle must be untouched bit-for-bit.
  for (int j = 1; j < nb; ++j)
    for (int i = 0; i < j; ++i)
      ASSERT_EQ(c_opt[static_cast<std::size_t>(i) +
                      static_cast<std::size_t>(j) *
                          static_cast<std::size_t>(nb)],
                c_ref[static_cast<std::size_t>(i) +
                      static_cast<std::size_t>(j) *
                          static_cast<std::size_t>(nb)]);
}

TEST_P(OptVsRefSweep, Trsm) {
  const int nb = GetParam();
  // A well-conditioned lower factor: the Cholesky of an SPD tile.
  auto l = spd_block(nb, nb, 19);
  ASSERT_EQ(kernels::ref::potrf_info(nb, l.data(), nb), 0);
  auto a_opt = random_block(nb, nb, 20);
  auto a_ref = a_opt;
  kernels::trsm(nb, l.data(), nb, a_opt.data(), nb);
  kernels::ref::trsm(nb, l.data(), nb, a_ref.data(), nb);
  expect_close(a_opt, a_ref);
}

TEST_P(OptVsRefSweep, Potrf) {
  const int nb = GetParam();
  const auto spd = spd_block(nb, nb, 21);
  auto w_opt = spd;
  auto w_ref = spd;
  ASSERT_EQ(kernels::potrf_info(nb, w_opt.data(), nb), 0);
  ASSERT_EQ(kernels::ref::potrf_info(nb, w_ref.data(), nb), 0);
  // Compare lower triangles only; above the diagonal both leave the input.
  const double tol = 1e-10 * (1.0 + max_abs(w_ref));
  for (int j = 0; j < nb; ++j)
    for (int i = j; i < nb; ++i)
      ASSERT_NEAR(w_opt[static_cast<std::size_t>(i) +
                        static_cast<std::size_t>(j) *
                            static_cast<std::size_t>(nb)],
                  w_ref[static_cast<std::size_t>(i) +
                        static_cast<std::size_t>(j) *
                            static_cast<std::size_t>(nb)],
                  tol)
          << "(" << i << "," << j << ")";
}

INSTANTIATE_TEST_SUITE_P(PackingEdges, OptVsRefSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 63, 64, 65,
                                           192, 960));

// ---- Non-trivial leading dimensions ----------------------------------------

TEST(OptKernelsLd, GemmWithDistinctLeadingDims) {
  const int nb = 129;  // above the packed-work floor, not MR/NR aligned
  const int lda = nb + 7, ldb = nb + 3, ldc = nb + 11;
  const auto a = random_block(lda, nb, 31);
  const auto b = random_block(ldb, nb, 32);
  auto c_opt = random_block(ldc, nb, 33);
  auto c_ref = c_opt;
  kernels::gemm(nb, a.data(), lda, b.data(), ldb, c_opt.data(), ldc);
  kernels::ref::gemm(nb, a.data(), lda, b.data(), ldb, c_ref.data(), ldc);
  expect_close(c_opt, c_ref);
}

TEST(OptKernelsLd, SyrkTrsmPotrfWithPaddedLd) {
  const int nb = 100, ld = 160;
  const auto a = random_block(ld, nb, 34);
  auto c_opt = random_block(ld, nb, 35);
  auto c_ref = c_opt;
  kernels::syrk(nb, a.data(), ld, c_opt.data(), ld);
  kernels::ref::syrk(nb, a.data(), ld, c_ref.data(), ld);
  expect_close(c_opt, c_ref);

  auto l = spd_block(nb, ld, 36);
  ASSERT_EQ(kernels::ref::potrf_info(nb, l.data(), ld), 0);
  auto x_opt = random_block(ld, nb, 37);
  auto x_ref = x_opt;
  kernels::trsm(nb, l.data(), ld, x_opt.data(), ld);
  kernels::ref::trsm(nb, l.data(), ld, x_ref.data(), ld);
  expect_close(x_opt, x_ref);

  auto w_opt = spd_block(nb, ld, 38);
  auto w_ref = w_opt;
  ASSERT_EQ(kernels::potrf_info(nb, w_opt.data(), ld), 0);
  ASSERT_EQ(kernels::ref::potrf_info(nb, w_ref.data(), ld), 0);
  const double tol = 1e-10 * (1.0 + max_abs(w_ref));
  for (int j = 0; j < nb; ++j)
    for (int i = j; i < nb; ++i)
      ASSERT_NEAR(w_opt[static_cast<std::size_t>(i) +
                        static_cast<std::size_t>(j) *
                            static_cast<std::size_t>(ld)],
                  w_ref[static_cast<std::size_t>(i) +
                        static_cast<std::size_t>(j) *
                            static_cast<std::size_t>(ld)],
                  tol);
}

// ---- Recursive TRSM / POTRF ---------------------------------------------------

// Around every shape the recursion has: each base width 1..16, the first
// split (17), misaligned halves (24, 31, 33, 127, 270) and the benchmark's
// tile sizes (64, 384).
const int kRecursiveSizes[] = {1,  2,  3,  4,  5,  6,  7,  8,  9,  10, 11,
                               12, 13, 14, 15, 16, 17, 24, 31, 33, 63, 64,
                               65, 96, 127, 270, 384};

// (nb, ld): ld == nb, or padded rows that no kernel may write.
class RecursiveSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  int nb() const { return std::get<0>(GetParam()); }
  int ld() const { return nb() + std::get<1>(GetParam()); }
};

std::size_t flat(int ld, int i, int j) {
  return static_cast<std::size_t>(i) +
         static_cast<std::size_t>(j) * static_cast<std::size_t>(ld);
}
double& at(std::vector<double>& t, int ld, int i, int j) {
  return t[flat(ld, i, j)];
}
double at(const std::vector<double>& t, int ld, int i, int j) {
  return t[flat(ld, i, j)];
}

TEST_P(RecursiveSweep, TrsmMatchesRef) {
  const int n = nb(), l_d = ld();
  auto l = spd_block(n, l_d, 81);
  ASSERT_EQ(kernels::ref::potrf_info(n, l.data(), l_d), 0);
  const auto a0 = random_block(l_d, n, 82);
  auto a_opt = a0, a_ref = a0;
  kernels::trsm(n, l.data(), l_d, a_opt.data(), l_d);
  kernels::ref::trsm(n, l.data(), l_d, a_ref.data(), l_d);
  expect_close(a_opt, a_ref);
  for (int j = 0; j < n; ++j)
    for (int i = n; i < l_d; ++i)
      ASSERT_EQ(at(a_opt, l_d, i, j), at(a0, l_d, i, j))
          << "padding row " << i << " of column " << j;
}

TEST_P(RecursiveSweep, PotrfMatchesRef) {
  const int n = nb(), l_d = ld();
  auto w0 = spd_block(n, l_d, 83);
  // Mark the padding rows and strict upper triangle: the factorization
  // must leave both bit-for-bit as they were.
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < j; ++i) at(w0, l_d, i, j) = 1e300;
    for (int i = n; i < l_d; ++i) at(w0, l_d, i, j) = -7.0;
  }
  auto w_opt = w0, w_ref = w0;
  ASSERT_EQ(kernels::potrf_info(n, w_opt.data(), l_d), 0);
  ASSERT_EQ(kernels::ref::potrf_info(n, w_ref.data(), l_d), 0);
  double scale = 0.0;
  for (int j = 0; j < n; ++j)
    for (int i = j; i < n; ++i)
      scale = std::max(scale, std::abs(at(w_ref, l_d, i, j)));
  const double tol = 1e-10 * (1.0 + scale);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < l_d; ++i) {
      if (i >= j && i < n)
        ASSERT_NEAR(at(w_opt, l_d, i, j), at(w_ref, l_d, i, j), tol)
            << "(" << i << "," << j << ")";
      else
        ASSERT_EQ(at(w_opt, l_d, i, j), at(w0, l_d, i, j))
            << "untouched (" << i << "," << j << ")";
    }
}

// Runs TRSM and POTRF at one tier on copies of the same operands.
struct TierResult {
  std::vector<double> trsm, potrf;
  int info = 0;
};

TierResult run_solves_at_tier(kernels::Tier t, int n, int l_d) {
  auto l = spd_block(n, l_d, 84);
  EXPECT_EQ(kernels::ref::potrf_info(n, l.data(), l_d), 0);
  TierResult r{random_block(l_d, n, 85), spd_block(n, l_d, 86), 0};
  kernels::set_engine_tier(t);
  kernels::trsm(n, l.data(), l_d, r.trsm.data(), l_d);
  r.info = kernels::potrf_info(n, r.potrf.data(), l_d);
  kernels::reset_engine_tier();
  return r;
}

TEST_P(RecursiveSweep, Avx2AndAvx512AgreeBitwise) {
  if (kernels::native_tier() != kernels::Tier::kAvx512)
    GTEST_SKIP() << "CPU lacks AVX-512F";
  const TierResult avx2 = run_solves_at_tier(kernels::Tier::kAvx2, nb(), ld());
  const TierResult avx512 =
      run_solves_at_tier(kernels::Tier::kAvx512, nb(), ld());
  // Same recursion, same packed GEMM order, and base cases with the same
  // per-element FMA sequence: the 8-wide tier is two 4-wide strips.
  ASSERT_EQ(avx2.info, 0);
  ASSERT_EQ(avx512.info, 0);
  for (std::size_t i = 0; i < avx2.trsm.size(); ++i) {
    ASSERT_EQ(avx512.trsm[i], avx2.trsm[i]) << "trsm flat index " << i;
    ASSERT_EQ(avx512.potrf[i], avx2.potrf[i]) << "potrf flat index " << i;
  }
}

TEST_P(RecursiveSweep, GenericAgreesWithNative) {
  const TierResult gen =
      run_solves_at_tier(kernels::Tier::kGeneric, nb(), ld());
  const TierResult nat = run_solves_at_tier(kernels::native_tier(), nb(), ld());
  ASSERT_EQ(gen.info, 0);
  ASSERT_EQ(nat.info, 0);
  expect_close(nat.trsm, gen.trsm);
  expect_close(nat.potrf, gen.potrf);
}

INSTANTIATE_TEST_SUITE_P(
    SplitsAndBases, RecursiveSweep,
    ::testing::Combine(::testing::ValuesIn(kRecursiveSizes),
                       ::testing::Values(0, 5)));

// potrf_info reports the same 1-based global column as ref::potrf_info for
// a tile that stops being SPD at column c: before, at and after the first
// split of the recursion (16 for nb 17, 32 for 64, 192 for 384), plus the
// first and last columns. A negative diagonal breaks column c outright; a
// NaN below the diagonal at (c, c - 1) reaches only pivot c.
TEST(RecursivePotrf, PivotParityWithRef) {
  for (const int n : {17, 64, 384}) {
    const int n1 = n == 17 ? 16 : n / 2;
    for (const int c : {0, n1 - 1, n1, n1 + 1, n - 1}) {
      for (const bool nan_below : {false, true}) {
        if (c >= n || (nan_below && c == 0)) continue;
        auto w = spd_block(n, n, 87);
        if (nan_below)
          at(w, n, c, c - 1) = std::numeric_limits<double>::quiet_NaN();
        else
          at(w, n, c, c) = -1.0;
        for (const kernels::Tier t :
             {kernels::Tier::kGeneric, kernels::Tier::kAvx2,
              kernels::Tier::kAvx512}) {
          auto w_opt = w, w_ref = w;
          kernels::set_engine_tier(t);
          const int info = kernels::potrf_info(n, w_opt.data(), n);
          kernels::reset_engine_tier();
          EXPECT_EQ(kernels::ref::potrf_info(n, w_ref.data(), n), c + 1);
          EXPECT_EQ(info, c + 1)
              << "nb " << n << " column " << c << (nan_below ? " NaN" : " <0")
              << " tier " << kernels::tier_name(t);
        }
      }
    }
  }
}

// ---- Dispatch tiers ---------------------------------------------------------

// The tier ladder is totally ordered (generic < avx2 < avx512), so a
// request clamps to min(request, native) in enum order.
kernels::Tier expect_clamp(kernels::Tier request) {
  return static_cast<int>(request) <= static_cast<int>(kernels::native_tier())
             ? request
             : kernels::native_tier();
}

TEST(EngineDispatch, TierRoundTrip) {
  const kernels::Tier startup = kernels::engine_tier();
  for (const kernels::Tier t :
       {kernels::Tier::kGeneric, kernels::Tier::kAvx2,
        kernels::Tier::kAvx512}) {
    kernels::set_engine_tier(t);
    EXPECT_EQ(kernels::engine_tier(), expect_clamp(t))
        << "requested " << kernels::tier_name(t);
  }
  kernels::reset_engine_tier();
  EXPECT_EQ(kernels::engine_tier(), startup);
}

TEST(EngineDispatch, TierNames) {
  EXPECT_STREQ(kernels::tier_name(kernels::Tier::kGeneric), "generic");
  EXPECT_STREQ(kernels::tier_name(kernels::Tier::kAvx2), "avx2");
  EXPECT_STREQ(kernels::tier_name(kernels::Tier::kAvx512), "avx512");
}

TEST(EngineDispatch, EnvParseRecognizesTiersAndClamps) {
  bool recognized = false;
  EXPECT_EQ(kernels::detail::parse_tier_env("generic", &recognized),
            kernels::Tier::kGeneric);
  EXPECT_TRUE(recognized);
  EXPECT_EQ(kernels::detail::parse_tier_env("avx2", &recognized),
            expect_clamp(kernels::Tier::kAvx2));
  EXPECT_TRUE(recognized);
  EXPECT_EQ(kernels::detail::parse_tier_env("avx512", &recognized),
            expect_clamp(kernels::Tier::kAvx512));
  EXPECT_TRUE(recognized);
  // Unrecognized spellings (including case and whitespace variants) fall
  // back to the native tier and report !recognized -- never a silent
  // misconfiguration into some other tier.
  for (const char* bad : {"", "AVX2", " avx2", "avx-512", "turbo", "1"}) {
    EXPECT_EQ(kernels::detail::parse_tier_env(bad, &recognized),
              kernels::native_tier())
        << "value \"" << bad << '"';
    EXPECT_FALSE(recognized) << "value \"" << bad << '"';
  }
}

TEST(EngineDispatch, UnrecognizedEnvValueWarnsOnStderr) {
  ::testing::internal::CaptureStderr();
  const kernels::Tier t = kernels::detail::resolve_tier_env("turbo");
  const std::string warning = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(t, kernels::native_tier());
  EXPECT_NE(warning.find("unrecognized HETSCHED_KERNEL_TIER=\"turbo\""),
            std::string::npos)
      << warning;
  EXPECT_NE(warning.find("generic, avx2, avx512"), std::string::npos)
      << warning;

  // Recognized values stay silent.
  ::testing::internal::CaptureStderr();
  (void)kernels::detail::resolve_tier_env("generic");
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
}

// Runs one GEMM + one SYRK at the requested tier; the caller diffs tiers.
void run_at_tier(kernels::Tier t, int nb, const std::vector<double>& a,
                 const std::vector<double>& b, std::vector<double>* c_gemm,
                 std::vector<double>* c_syrk) {
  kernels::set_engine_tier(t);
  kernels::gemm(nb, a.data(), nb, b.data(), nb, c_gemm->data(), nb);
  kernels::syrk(nb, a.data(), nb, c_syrk->data(), nb);
  kernels::reset_engine_tier();
}

TEST(EngineDispatch, GenericAndNativeTiersAgree) {
  const int nb = 192;
  const auto a = random_block(nb, nb, 41);
  const auto b = random_block(nb, nb, 42);
  const auto c0 = random_block(nb, nb, 43);

  auto c_gen = c0, s_gen = c0;
  run_at_tier(kernels::Tier::kGeneric, nb, a, b, &c_gen, &s_gen);
  auto c_nat = c0, s_nat = c0;
  run_at_tier(kernels::Tier::kAvx2, nb, a, b, &c_nat, &s_nat);

  // Same packing, same blocking, same accumulation order: FMA contraction
  // is the only permitted difference, so the tiers agree very tightly.
  expect_close(c_nat, c_gen);
  expect_close(s_nat, s_gen);
}

// AVX-512 paired-panel tier against the generic oracle across every edge
// shape the pairing logic has: below one pair (nb <= 4), exactly one pair
// (8), odd trailing panel (5..7, 63, 65), the paper's 960, and padded
// leading dimensions. Auto-skips on hosts without AVX-512.
class Avx512Sweep : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    if (kernels::native_tier() != kernels::Tier::kAvx512)
      GTEST_SKIP() << "CPU lacks AVX-512F";
  }
};

TEST_P(Avx512Sweep, GemmSyrkAgreeWithGeneric) {
  const int nb = GetParam();
  const auto a = random_block(nb, nb, 51);
  const auto b = random_block(nb, nb, 52);
  const auto c0 = random_block(nb, nb, 53);

  auto c_gen = c0, s_gen = c0;
  run_at_tier(kernels::Tier::kGeneric, nb, a, b, &c_gen, &s_gen);
  auto c_512 = c0, s_512 = c0;
  run_at_tier(kernels::Tier::kAvx512, nb, a, b, &c_512, &s_512);

  expect_close(c_512, c_gen);
  expect_close(s_512, s_gen);
  // SYRK's strict upper triangle is untouched by every tier: the paired
  // path must not let its right panel spill across the diagonal.
  for (int j = 1; j < nb; ++j)
    for (int i = 0; i < j; ++i)
      ASSERT_EQ(s_512[static_cast<std::size_t>(i) +
                      static_cast<std::size_t>(j) *
                          static_cast<std::size_t>(nb)],
                c0[static_cast<std::size_t>(i) +
                   static_cast<std::size_t>(j) * static_cast<std::size_t>(nb)])
          << "(" << i << "," << j << ")";
}

TEST_P(Avx512Sweep, AgreesWithAvx2Tier) {
  const int nb = GetParam();
  const auto a = random_block(nb, nb, 54);
  const auto b = random_block(nb, nb, 55);
  const auto c0 = random_block(nb, nb, 56);

  auto c_avx2 = c0, s_avx2 = c0;
  run_at_tier(kernels::Tier::kAvx2, nb, a, b, &c_avx2, &s_avx2);
  auto c_512 = c0, s_512 = c0;
  run_at_tier(kernels::Tier::kAvx512, nb, a, b, &c_512, &s_512);

  // Both tiers contract with FMA in the same order over the same packed
  // panels -- the 8x8 tile is two 8x4 tiles computed in lockstep -- so
  // agreement is bitwise, not just within tolerance.
  for (std::size_t i = 0; i < c_512.size(); ++i) {
    ASSERT_EQ(c_512[i], c_avx2[i]) << "gemm flat index " << i;
    ASSERT_EQ(s_512[i], s_avx2[i]) << "syrk flat index " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(PairingEdges, Avx512Sweep,
                         ::testing::Values(1, 3, 4, 5, 7, 8, 63, 64, 65, 129,
                                           192, 960));

TEST(Avx512Ld, GemmWithDistinctLeadingDims) {
  if (kernels::native_tier() != kernels::Tier::kAvx512)
    GTEST_SKIP() << "CPU lacks AVX-512F";
  const int nb = 131;  // odd panel tail + masked rows at every edge
  const int lda = nb + 7, ldb = nb + 3, ldc = nb + 11;
  const auto a = random_block(lda, nb, 57);
  const auto b = random_block(ldb, nb, 58);
  const auto c0 = random_block(ldc, nb, 59);

  kernels::set_engine_tier(kernels::Tier::kGeneric);
  auto c_gen = c0;
  kernels::gemm(nb, a.data(), lda, b.data(), ldb, c_gen.data(), ldc);
  kernels::set_engine_tier(kernels::Tier::kAvx512);
  auto c_512 = c0;
  kernels::gemm(nb, a.data(), lda, b.data(), ldb, c_512.data(), ldc);
  kernels::reset_engine_tier();
  expect_close(c_512, c_gen);
}

// ---- Whole factorization through the parallel executor ----------------------

TEST(OptKernelsEndToEnd, ParallelFactorizationResidualSmall) {
  const int n = 6, nb = 48;  // tiles large enough to take the packed path
  const DenseMatrix a0 = DenseMatrix::random_spd(n * nb, 71);
  TileMatrix tiled = TileMatrix::from_dense(a0, n, nb);
  const TaskGraph g = build_cholesky_dag(n, nb);
  ExecOptions opt;
  opt.num_threads = 4;
  const RunReport r = execute_parallel(tiled, g, opt);
  ASSERT_TRUE(r.success) << r.error;

  // Residual of the computed factor: max |A - L L^T| over the lower
  // triangle, scaled by max |A|.
  const DenseMatrix llt = DenseMatrix::multiply_llt(tiled.to_dense());
  double resid = 0.0, scale = 0.0;
  for (int j = 0; j < n * nb; ++j)
    for (int i = j; i < n * nb; ++i) {
      resid = std::max(resid, std::abs(a0(i, j) - llt(i, j)));
      scale = std::max(scale, std::abs(a0(i, j)));
    }
  EXPECT_LT(resid, 1e-10 * (1.0 + scale));
}

}  // namespace
}  // namespace hetsched

// Tests for the stacked QR kernels TSQRT/TSMQR (triangle-on-square) and
// TTQRT/TTMQR (triangle-on-triangle): reconstruction of the stacked tile,
// orthogonality of the accumulated stacked Q, structural invariants
// (killed tile zeroed, V triangular for TT), and apply/accumulate agreement.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <tuple>

#include "kernels/lapack.hpp"
#include "kernels/pack.hpp"
#include "kernels/reference.hpp"
#include "test_helpers.hpp"
#include "verify/verify.hpp"

namespace luqr::kern {
namespace {

using luqr::testing::convert;
using luqr::testing::expect_bitwise_equal;
using luqr::testing::expect_near;
using luqr::testing::random_matrix;
using luqr::testing::random_upper;
using luqr::testing::with_garbage_below_diagonal;

// Stack [top; bottom] into one dense matrix.
template <typename T>
Matrix<T> stack(const Matrix<T>& top, const Matrix<T>& bottom) {
  Matrix<T> s(top.rows() + bottom.rows(), top.cols());
  for (int j = 0; j < top.cols(); ++j) {
    for (int i = 0; i < top.rows(); ++i) s(i, j) = top(i, j);
    for (int i = 0; i < bottom.rows(); ++i) s(top.rows() + i, j) = bottom(i, j);
  }
  return s;
}

class TsqrtSizes : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(TsqrtSizes, ReconstructsStackedQR) {
  const auto [nb, m] = GetParam();
  const auto r0 = random_upper(nb, 41);
  const auto a0 = random_matrix(m, nb, 42);
  const Matrix<double> original = stack(r0, a0);

  Matrix<double> r = r0, v = a0, t(nb, nb);
  tsqrt(r.view(), v.view(), t.view());

  Matrix<double> q = q_from_tsqrt(v.cview(), t.cview(), nb);
  EXPECT_LT(luqr::verify::orthogonality_error(q), 1e-13);

  // [R'; 0] must equal Q^T [R; A].
  Matrix<double> rnew(nb + m, nb);
  for (int j = 0; j < nb; ++j)
    for (int i = 0; i <= j; ++i) rnew(i, j) = r(i, j);
  Matrix<double> recon(nb + m, nb);
  ref_gemm(Trans::No, Trans::No, 1.0, q.cview(), rnew.cview(), 0.0, recon.view());
  expect_near(recon, original, 1e-11, "[R;A] = Q [R';0]");
}

INSTANTIATE_TEST_SUITE_P(Sizes, TsqrtSizes,
                         ::testing::Values(std::make_tuple(1, 1),
                                           std::make_tuple(4, 4),
                                           std::make_tuple(8, 8),
                                           std::make_tuple(8, 16),
                                           std::make_tuple(16, 16)));

TEST(Tsqrt, TopStaysUpperTriangular) {
  const int nb = 8, m = 8;
  auto r = random_upper(nb, 43);
  auto v = random_matrix(m, nb, 44);
  Matrix<double> t(nb, nb);
  tsqrt(r.view(), v.view(), t.view());
  for (int j = 0; j < nb; ++j)
    for (int i = j + 1; i < nb; ++i) EXPECT_DOUBLE_EQ(r(i, j), 0.0);
}

TEST(Tsmqr, MatchesExplicitStackedApplication) {
  const int nb = 6, m = 10, ncols = 7;
  auto r = random_upper(nb, 45);
  auto v = random_matrix(m, nb, 46);
  Matrix<double> t(nb, nb);
  tsqrt(r.view(), v.view(), t.view());
  Matrix<double> q = q_from_tsqrt(v.cview(), t.cview(), nb);

  auto c1 = random_matrix(nb, ncols, 47);
  auto c2 = random_matrix(m, ncols, 48);
  const Matrix<double> c_stack = stack(c1, c2);
  Matrix<double> expected(nb + m, ncols);
  ref_gemm(Trans::Yes, Trans::No, 1.0, q.cview(), c_stack.cview(), 0.0,
           expected.view());

  tsmqr(Trans::Yes, v.cview(), t.cview(), c1.view(), c2.view());
  const Matrix<double> got = stack(c1, c2);
  expect_near(got, expected, 1e-11, "tsmqr vs explicit Q^T [C1;C2]");
}

TEST(Tsmqr, TransThenNoTransRestores) {
  const int nb = 5, m = 9, ncols = 4;
  auto r = random_upper(nb, 49);
  auto v = random_matrix(m, nb, 50);
  Matrix<double> t(nb, nb);
  tsqrt(r.view(), v.view(), t.view());
  auto c1 = random_matrix(nb, ncols, 51);
  auto c2 = random_matrix(m, ncols, 52);
  const auto c1_orig = c1;
  const auto c2_orig = c2;
  tsmqr(Trans::Yes, v.cview(), t.cview(), c1.view(), c2.view());
  tsmqr(Trans::No, v.cview(), t.cview(), c1.view(), c2.view());
  expect_near(c1, c1_orig, 1e-12, "C1 restored");
  expect_near(c2, c2_orig, 1e-12, "C2 restored");
}

class TtqrtSizes : public ::testing::TestWithParam<int> {};

TEST_P(TtqrtSizes, ReconstructsStackedQR) {
  const int nb = GetParam();
  const auto r1_0 = random_upper(nb, 61);
  const auto r2_0 = random_upper(nb, 62);
  const Matrix<double> original = stack(r1_0, r2_0);

  Matrix<double> r1 = r1_0, r2 = r2_0, t(nb, nb);
  ttqrt(r1.view(), r2.view(), t.view());

  Matrix<double> q = q_from_ttqrt(r2.cview(), t.cview(), nb);
  EXPECT_LT(luqr::verify::orthogonality_error(q), 1e-13);

  Matrix<double> rnew(2 * nb, nb);
  for (int j = 0; j < nb; ++j)
    for (int i = 0; i <= j; ++i) rnew(i, j) = r1(i, j);
  Matrix<double> recon(2 * nb, nb);
  ref_gemm(Trans::No, Trans::No, 1.0, q.cview(), rnew.cview(), 0.0, recon.view());
  expect_near(recon, original, 1e-11, "[R1;R2] = Q [R1';0]");
}

INSTANTIATE_TEST_SUITE_P(Sizes, TtqrtSizes, ::testing::Values(1, 2, 4, 8, 16));

TEST(Ttqrt, VStaysUpperTriangular) {
  // The defining structural property of the TT kernel: the reflectors never
  // touch rows below the diagonal of the killed triangle.
  const int nb = 10;
  auto r1 = random_upper(nb, 63);
  auto r2 = random_upper(nb, 64);
  Matrix<double> t(nb, nb);
  ttqrt(r1.view(), r2.view(), t.view());
  for (int j = 0; j < nb; ++j)
    for (int i = j + 1; i < nb; ++i) EXPECT_DOUBLE_EQ(r2(i, j), 0.0);
}

TEST(Ttmqr, MatchesExplicitStackedApplication) {
  const int nb = 7, ncols = 5;
  auto r1 = random_upper(nb, 65);
  auto r2 = random_upper(nb, 66);
  Matrix<double> t(nb, nb);
  ttqrt(r1.view(), r2.view(), t.view());
  Matrix<double> q = q_from_ttqrt(r2.cview(), t.cview(), nb);

  auto c1 = random_matrix(nb, ncols, 67);
  auto c2 = random_matrix(nb, ncols, 68);
  const Matrix<double> c_stack = stack(c1, c2);
  Matrix<double> expected(2 * nb, ncols);
  ref_gemm(Trans::Yes, Trans::No, 1.0, q.cview(), c_stack.cview(), 0.0,
           expected.view());

  ttmqr(Trans::Yes, r2.cview(), t.cview(), c1.view(), c2.view());
  const Matrix<double> got = stack(c1, c2);
  expect_near(got, expected, 1e-11, "ttmqr vs explicit Q^T [C1;C2]");
}

TEST(Ttmqr, IgnoresGarbageBelowDiagonalOfV) {
  // The killed tile's strictly-lower part may hold older reflector data
  // (GEQRT leftovers); TT kernels must never read it.
  const int nb = 6, ncols = 3;
  auto r1 = random_upper(nb, 69);
  auto r2 = random_upper(nb, 70);
  Matrix<double> t(nb, nb);
  ttqrt(r1.view(), r2.view(), t.view());
  auto v_dirty = r2;
  for (int j = 0; j < nb; ++j)
    for (int i = j + 1; i < nb; ++i) v_dirty(i, j) = 1e30;
  auto c1a = random_matrix(nb, ncols, 71);
  auto c2a = random_matrix(nb, ncols, 72);
  auto c1b = c1a;
  auto c2b = c2a;
  ttmqr(Trans::Yes, r2.cview(), t.cview(), c1a.view(), c2a.view());
  ttmqr(Trans::Yes, v_dirty.cview(), t.cview(), c1b.view(), c2b.view());
  expect_near(c1a, c1b, 0.0, "ttmqr V isolation (C1)");
  expect_near(c2a, c2b, 0.0, "ttmqr V isolation (C2)");
}

TEST(Tsqrt, ZeroBottomBlockIsNoOp) {
  const int nb = 5, m = 5;
  auto r0 = random_upper(nb, 73);
  Matrix<double> r = r0, v(m, nb), t(nb, nb);
  tsqrt(r.view(), v.view(), t.view());
  expect_near(r, r0, 0.0, "R untouched when A = 0");
  for (int j = 0; j < nb; ++j) EXPECT_DOUBLE_EQ(t(j, j), 0.0);  // all taus zero
}

TEST(TsqrtFloat, SinglePrecisionRoundtrip) {
  const int nb = 6, m = 6, ncols = 3;
  Matrix<float> r(nb, nb), v(m, nb), t(nb, nb);
  Rng rng(74);
  for (int j = 0; j < nb; ++j) {
    for (int i = 0; i <= j; ++i) r(i, j) = static_cast<float>(rng.gaussian());
    r(j, j) += 3.0f;
    for (int i = 0; i < m; ++i) v(i, j) = static_cast<float>(rng.gaussian());
  }
  tsqrt(r.view(), v.view(), t.view());
  Matrix<float> c1(nb, ncols), c2(m, ncols);
  for (int j = 0; j < ncols; ++j)
    for (int i = 0; i < nb; ++i) c1(i, j) = static_cast<float>(rng.gaussian());
  const Matrix<float> c1o = c1, c2o = c2;
  tsmqr(Trans::Yes, v.cview(), t.cview(), c1.view(), c2.view());
  tsmqr(Trans::No, v.cview(), t.cview(), c1.view(), c2.view());
  for (int j = 0; j < ncols; ++j)
    for (int i = 0; i < nb; ++i) EXPECT_NEAR(c1(i, j), c1o(i, j), 1e-4f);
}

// ---------------------------------------------------------------------------
// Blocked TSMQR/TTMQR branch (nb x nb x nb products above the GEMM dispatch
// threshold): op(T) Z runs as a packed GEMM on T's upper triangle.
// ---------------------------------------------------------------------------

enum class Stacked { Ts, Tt };

// (nb, RHS width n or 0 for n = nb, Trans::Yes?)
class StackedApplyBlocked
    : public ::testing::TestWithParam<std::tuple<int, int, bool>> {};

// A TS (square V) or TT (upper-triangular V) stacked pair of order nb,
// factored in precision T: its reflectors V, T factor and explicit Q.
template <typename T>
struct StackedFactor {
  Matrix<T> v, t, q;
};

template <typename T>
StackedFactor<T> factor_stacked(Stacked kind, int nb) {
  Matrix<T> r = convert<T>(random_upper(nb, 7300 + nb));
  StackedFactor<T> f;
  f.v = convert<T>(kind == Stacked::Ts ? random_matrix(nb, nb, 7400 + nb)
                                       : random_upper(nb, 7400 + nb));
  f.t = Matrix<T>(nb, nb);
  if (kind == Stacked::Ts) {
    tsqrt(r.view(), f.v.view(), f.t.view());
    f.q = q_from_tsqrt(f.v.cview(), f.t.cview(), nb);
  } else {
    ttqrt(r.view(), f.v.view(), f.t.view());
    f.q = q_from_ttqrt(f.v.cview(), f.t.cview(), nb);
  }
  return f;
}

// Apply the stacked Q (or Q^T) of f to columns [j0, j0 + width) of [C1; C2].
template <typename T>
void apply_stacked(Stacked kind, Trans trans, const StackedFactor<T>& f,
                   const Matrix<T>& tf, Matrix<T>& c1, Matrix<T>& c2, int j0,
                   int width) {
  const int nb = f.v.cols();
  MatrixView<T> c1v = c1.view().block(0, j0, nb, width);
  MatrixView<T> c2v = c2.view().block(0, j0, nb, width);
  if (kind == Stacked::Ts) {
    tsmqr(trans, f.v.cview(), tf.cview(), c1v, c2v);
  } else {
    ttmqr(trans, f.v.cview(), tf.cview(), c1v, c2v);
  }
}

// Check the blocked apply of a stacked pair's Q to a random [C1; C2] of
// width n against the explicit stacked Q and with garbage below the
// diagonal of T.
template <typename T>
void check_stacked_apply_blocked(Stacked kind, int nb, int n, Trans trans,
                                 double tol) {
  SCOPED_TRACE(::testing::Message()
               << (kind == Stacked::Ts ? "tsmqr" : "ttmqr") << " nb=" << nb
               << " n=" << n << " trans=" << (trans == Trans::Yes ? "Yes" : "No")
               << " bytes=" << sizeof(T));
  ASSERT_TRUE(gemm_wants_blocked(nb, nb, nb)) << "case misses the blocked branch";
  const StackedFactor<T> f = factor_stacked<T>(kind, nb);
  const Matrix<T> c1_0 = convert<T>(random_matrix(nb, n, 7500 + n));
  const Matrix<T> c2_0 = convert<T>(random_matrix(nb, n, 7600 + n));

  Matrix<T> c1 = c1_0, c2 = c2_0;
  apply_stacked(kind, trans, f, f.t, c1, c2, 0, n);
  const Matrix<T> got = stack(c1, c2);

  // Against the explicitly accumulated stacked Q.
  const Matrix<T> c_stack = stack(c1_0, c2_0);
  Matrix<T> want(2 * nb, n);
  ref_gemm(trans, Trans::No, T(1), f.q.cview(), c_stack.cview(), T(0),
           want.view());
  EXPECT_LE(static_cast<double>(max_abs_diff(got.cview(), want.cview())), tol)
      << "blocked apply vs explicit stacked Q";

  // Only T's upper triangle is read: garbage below it changes no bit.
  const Matrix<T> t_dirty =
      with_garbage_below_diagonal(f.t, std::numeric_limits<T>::quiet_NaN());
  Matrix<T> d1 = c1_0, d2 = c2_0;
  apply_stacked(kind, trans, f, t_dirty, d1, d2, 0, n);
  expect_bitwise_equal(stack(d1, d2), got, "garbage below T's diagonal");
}

TEST_P(StackedApplyBlocked, TsmqrMatchesExplicitQ) {
  const auto [nb, width, yes] = GetParam();
  const int n = width == 0 ? nb : width;
  const Trans trans = yes ? Trans::Yes : Trans::No;
  check_stacked_apply_blocked<double>(Stacked::Ts, nb, n, trans, 1e-12);
  check_stacked_apply_blocked<float>(Stacked::Ts, nb, n, trans, 1e-4);
}

TEST_P(StackedApplyBlocked, TtmqrMatchesExplicitQ) {
  const auto [nb, width, yes] = GetParam();
  const int n = width == 0 ? nb : width;
  const Trans trans = yes ? Trans::Yes : Trans::No;
  check_stacked_apply_blocked<double>(Stacked::Tt, nb, n, trans, 1e-12);
  check_stacked_apply_blocked<float>(Stacked::Tt, nb, n, trans, 1e-4);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, StackedApplyBlocked,
    ::testing::Combine(::testing::Values(24, 64, 128), ::testing::Values(0, 40),
                       ::testing::Bool()),
    [](const auto& info) {
      const int nb = std::get<0>(info.param);
      const int n = std::get<1>(info.param) == 0 ? nb : std::get<1>(info.param);
      return "nb" + std::to_string(nb) + "_n" + std::to_string(n) +
             (std::get<2>(info.param) ? "_Trans" : "_NoTrans");
    });

// ---------------------------------------------------------------------------
// Width invariance: tsmqr/ttmqr pick their kernel from the tile shape, never
// C's width, and every kernel they can pick treats the columns of [C1; C2]
// independently — so one column at a time reproduces a full-width call bit
// for bit (the retained factorization's exact-width solve depends on it).
// At nb = 24, 32 and 64 a single column's products fall below the GEMM
// dispatch threshold while a tile's do not.
// ---------------------------------------------------------------------------

// (nb, Trans::Yes?)
class StackedApplyWidthInvariance
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

template <typename T>
void check_stacked_width_invariance(Stacked kind, int nb, int n, Trans trans) {
  SCOPED_TRACE(::testing::Message()
               << (kind == Stacked::Ts ? "tsmqr" : "ttmqr") << " nb=" << nb
               << " n=" << n << " trans=" << (trans == Trans::Yes ? "Yes" : "No")
               << " bytes=" << sizeof(T));
  const StackedFactor<T> f = factor_stacked<T>(kind, nb);
  const Matrix<T> c1_0 = convert<T>(random_matrix(nb, n, 7900 + n));
  const Matrix<T> c2_0 = convert<T>(random_matrix(nb, n, 8000 + n));
  Matrix<T> f1 = c1_0, f2 = c2_0;
  apply_stacked(kind, trans, f, f.t, f1, f2, 0, n);
  Matrix<T> s1 = c1_0, s2 = c2_0;
  for (int j = 0; j < n; ++j) apply_stacked(kind, trans, f, f.t, s1, s2, j, 1);
  expect_bitwise_equal(stack(s1, s2), stack(f1, f2),
                       "column by column vs full width");
}

TEST_P(StackedApplyWidthInvariance, TsmqrColumnByColumnMatchesFullWidth) {
  const auto [nb, yes] = GetParam();
  const Trans trans = yes ? Trans::Yes : Trans::No;
  for (int n : {nb, 40}) {
    check_stacked_width_invariance<double>(Stacked::Ts, nb, n, trans);
    check_stacked_width_invariance<float>(Stacked::Ts, nb, n, trans);
  }
}

TEST_P(StackedApplyWidthInvariance, TtmqrColumnByColumnMatchesFullWidth) {
  const auto [nb, yes] = GetParam();
  const Trans trans = yes ? Trans::Yes : Trans::No;
  for (int n : {nb, 40}) {
    check_stacked_width_invariance<double>(Stacked::Tt, nb, n, trans);
    check_stacked_width_invariance<float>(Stacked::Tt, nb, n, trans);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, StackedApplyWidthInvariance,
    ::testing::Combine(::testing::Values(8, 24, 32, 64, 128), ::testing::Bool()),
    [](const auto& info) {
      return "nb" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_Trans" : "_NoTrans");
    });

}  // namespace
}  // namespace luqr::kern

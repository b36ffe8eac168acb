// Tests for the packed GEMM's triangular operand (the TriOperand overload of
// kern::gemm) and the compact-WY kernels built on it:
//  - bitwise parity with gemm_blocked on a test-local densified copy, over side x uplo x diag x transposes, square and
//    trapezoidal operands, sizes off the micro-tile grid, k > KC, and every
//    C width up to nb + 7, in f64 and f32;
//  - unmqr, tsmqr, ttmqr and geqrt_blocked bitwise against a test-local
//    reference that densifies V and T and runs the dense kernels;
//  - the NaN reach rule: a NaN in C reaches exactly the rows it touches
//    through the structural nonzeros, the small-tile loops' rule;
//  - the footprint report and the once-per-product kGemmNan site.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <functional>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "fault/fault.hpp"
#include "kernels/access.hpp"
#include "kernels/lapack.hpp"
#include "kernels/pack.hpp"
#include "test_helpers.hpp"

namespace luqr::kern {
namespace {

using luqr::testing::convert;
using luqr::testing::expect_bitwise_equal;
using luqr::testing::random_matrix;

bool in_trapezoid(Uplo uplo, int r, int c) {
  return uplo == Uplo::Upper ? r <= c : r >= c;
}

// Copy of x with NaN wherever the (uplo, diag) trapezoid holds no data: the
// opposite triangle and, for a unit diagonal, the diagonal itself.
template <typename T>
Matrix<T> with_garbage_outside(Matrix<T> x, Uplo uplo, Diag diag) {
  const T nan = std::numeric_limits<T>::quiet_NaN();
  for (int j = 0; j < x.cols(); ++j)
    for (int i = 0; i < x.rows(); ++i)
      if (!in_trapezoid(uplo, i, j) || (diag == Diag::Unit && i == j))
        x(i, j) = nan;
  return x;
}

// The dense copy of a trapezoid: zeros outside it, ones on a unit diagonal.
template <typename T>
Matrix<T> densify(ConstMatrixView<T> x, Uplo uplo, Diag diag) {
  Matrix<T> d(x.rows, x.cols);
  for (int j = 0; j < x.cols; ++j)
    for (int i = 0; i < x.rows; ++i)
      d(i, j) = i == j && diag == Diag::Unit ? T(1)
                : in_trapezoid(uplo, i, j)   ? x(i, j)
                                             : T(0);
  return d;
}

template <typename T>
Matrix<T> dense_product(Trans ta, Trans tb, T alpha, const Matrix<T>& a,
                        const Matrix<T>& b, T beta, Matrix<T> c) {
  gemm_blocked(ta, tb, alpha, a.cview(), b.cview(), beta, c.view());
  return c;
}

const char* name(Trans t) { return t == Trans::No ? "N" : "T"; }

// C = alpha op(A) op(B) + beta C with op(A) m x k, op(B) k x n and the
// `side` operand triangular, through the triangle overload and through the
// dense packed kernel on a densified copy. The triangle's storage outside its
// trapezoid holds NaN, so a read of it shows up in C.
template <typename T>
void check_tri_gemm(Side side, Uplo uplo, Diag diag, Trans ta, Trans tb,
                    int m, int n, int k, T beta, std::uint64_t seed) {
  SCOPED_TRACE(::testing::Message()
               << (side == Side::Left ? "A" : "B") << " tri "
               << (uplo == Uplo::Upper ? "upper" : "lower")
               << (diag == Diag::Unit ? " unit" : "") << " op=" << name(ta)
               << name(tb) << " m=" << m << " n=" << n << " k=" << k
               << " bytes=" << sizeof(T));
  Matrix<T> a = convert<T>(ta == Trans::No ? random_matrix(m, k, seed)
                                           : random_matrix(k, m, seed));
  Matrix<T> b = convert<T>(tb == Trans::No ? random_matrix(k, n, seed + 1)
                                           : random_matrix(n, k, seed + 1));
  const Matrix<T> c0 = convert<T>(random_matrix(m, n, seed + 2));
  Matrix<T>& x = side == Side::Left ? a : b;
  const Matrix<T> dense = densify(x.cview(), uplo, diag);
  x = with_garbage_outside(x, uplo, diag);
  const T alpha = T(-0.75);

  Matrix<T> got = c0;
  gemm(TriOperand{side, uplo, diag}, ta, tb, alpha, a.cview(), b.cview(),
       beta, got.view());
  const Matrix<T> want = side == Side::Left
                             ? dense_product(ta, tb, alpha, dense, b, beta, c0)
                             : dense_product(ta, tb, alpha, a, dense, beta, c0);
  expect_bitwise_equal(got, want, "triangle operand vs densified copy");
}

// Stored extent of a trapezoid with the given shorter and longer sides.
std::pair<int, int> stored(Uplo uplo, int shorter, int longer) {
  return uplo == Uplo::Lower ? std::pair{longer, shorter}
                             : std::pair{shorter, longer};
}

// Every side x uplo x diag x transposes on one trapezoid extent; `free`
// lists the extents of the non-triangular dimension (C's width for a
// triangular A, C's height for a triangular B).
template <typename T>
void sweep(int shorter, int longer, const std::vector<int>& free) {
  std::uint64_t seed = 100;
  for (Side side : {Side::Left, Side::Right})
    for (Uplo uplo : {Uplo::Lower, Uplo::Upper})
      for (Diag diag : {Diag::NonUnit, Diag::Unit})
        for (Trans ta : {Trans::No, Trans::Yes})
          for (Trans tb : {Trans::No, Trans::Yes}) {
            const auto [rows, cols] = stored(uplo, shorter, longer);
            const Trans t = side == Side::Left ? ta : tb;
            // op(X)'s extent.
            const int op_rows = t == Trans::No ? rows : cols;
            const int op_cols = t == Trans::No ? cols : rows;
            for (int f : free) {
              const T beta = f % 2 == 0 ? T(0) : T(1);
              if (side == Side::Left) {
                check_tri_gemm<T>(side, uplo, diag, ta, tb, op_rows, f,
                                  op_cols, beta, seed++);
              } else {
                check_tri_gemm<T>(side, uplo, diag, ta, tb, f, op_cols,
                                  op_rows, beta, seed++);
              }
            }
          }
}

std::vector<int> widths_up_to(int last) {
  std::vector<int> w;
  for (int n = 1; n <= last; ++n) w.push_back(n);
  return w;
}

// f32?
class TriGemmParity : public ::testing::TestWithParam<bool> {
 protected:
  template <typename F>
  void both(F&& f) const {
    if (GetParam()) {
      f(float{});
    } else {
      f(double{});
    }
  }
};

TEST_P(TriGemmParity, SquareOffTheMicroTileGridEveryWidth) {
  // nb = 37: no multiple of MR or NR; C widths 1 .. nb + 7.
  both([&](auto t) { sweep<decltype(t)>(37, 37, widths_up_to(44)); });
}

TEST_P(TriGemmParity, Trapezoidal) {
  both([&](auto t) { sweep<decltype(t)>(21, 53, {1, 6, 13, 60}); });
}

TEST_P(TriGemmParity, SharedDimensionAboveKc) {
  ASSERT_LT(gemm_blocking().kc, 300);
  both([&](auto t) {
    sweep<decltype(t)>(300, 300, {1, 7});
    sweep<decltype(t)>(290, 333, {5});
  });
}

INSTANTIATE_TEST_SUITE_P(Kernels, TriGemmParity, ::testing::Bool(),
                         [](const auto& info) {
                           return std::string(info.param ? "F32" : "F64");
                         });

TEST(TriGemm, RejectsAnUnnaturalTrapezoid) {
  Matrix<double> a(10, 6), b(6, 4), c(10, 4);
  // An upper operand taller than wide has all-zero rows.
  EXPECT_THROW(gemm(TriOperand{Side::Left, Uplo::Upper, Diag::NonUnit},
                    Trans::No, Trans::No, 1.0, a.cview(), b.cview(), 0.0,
                    c.view()),
               Error);
}

// ---------------------------------------------------------------------------
// The compact-WY kernels against a reference that densifies V and T and runs
// the dense kernels — the arithmetic of the applies before they read the
// triangles in place.
// ---------------------------------------------------------------------------

template <typename T>
Matrix<T> product(GemmKernel kernel, Trans ta, Trans tb, T alpha,
                  ConstMatrixView<T> a, ConstMatrixView<T> b, T beta,
                  Matrix<T> c) {
  gemm(kernel, ta, tb, alpha, a, b, beta, c.view());
  return c;
}

template <typename T>
Matrix<T> copy_of(ConstMatrixView<T> v) {
  Matrix<T> m(v.rows, v.cols);
  copy(v, m.view());
  return m;
}

// unmqr's blocked branch on densified V and T.
template <typename T>
void unmqr_dense(Trans trans, ConstMatrixView<T> v, ConstMatrixView<T> t,
                 MatrixView<T> c) {
  const int m = c.rows, n = c.cols, k = v.cols;
  ASSERT_TRUE(gemm_wants_blocked(k, k, m));
  const auto blocked = GemmKernel::Blocked;
  const Matrix<T> vd = densify(v, Uplo::Lower, Diag::Unit);
  const Matrix<T> td = densify(t.block(0, 0, k, k), Uplo::Upper, Diag::NonUnit);
  const Matrix<T> w = product(blocked, Trans::Yes, Trans::No, T(1), vd.cview(),
                              ConstMatrixView<T>(c), T(0), Matrix<T>(k, n));
  const Matrix<T> w2 = product(blocked, trans, Trans::No, T(1), td.cview(),
                               w.cview(), T(0), Matrix<T>(k, n));
  gemm(blocked, Trans::No, Trans::No, T(-1), vd.cview(), w2.cview(), T(1), c);
}

// tsmqr (dense V) with a densified T, op(T) Z on the packed kernel.
template <typename T>
void tsmqr_dense(Trans trans, ConstMatrixView<T> v, ConstMatrixView<T> t,
                 MatrixView<T> c1, MatrixView<T> c2) {
  const int nb = v.cols, m = v.rows;
  const GemmKernel kernel = gemm_kernel_for(nb, nb, m);
  const Matrix<T> td = densify(t.block(0, 0, nb, nb), Uplo::Upper, Diag::NonUnit);
  const Matrix<T> z = product(kernel, Trans::Yes, Trans::No, T(1), v,
                              ConstMatrixView<T>(c2), T(1), copy_of<T>(c1));
  const Matrix<T> z2 = product(GemmKernel::Blocked, trans, Trans::No, T(1),
                               td.cview(), z.cview(), T(0),
                               Matrix<T>(nb, c1.cols));
  for (int j = 0; j < c1.cols; ++j)
    for (int i = 0; i < nb; ++i) c1(i, j) -= z2(i, j);
  gemm(kernel, Trans::No, Trans::No, T(-1), v, z2.cview(), T(1), c2);
}

// ttmqr's blocked branch on densified V and T.
template <typename T>
void ttmqr_dense(Trans trans, ConstMatrixView<T> v, ConstMatrixView<T> t,
                 MatrixView<T> c1, MatrixView<T> c2) {
  const int nb = v.cols;
  ASSERT_TRUE(gemm_wants_blocked(nb, nb, nb));
  const auto blocked = GemmKernel::Blocked;
  const Matrix<T> vd = densify(v, Uplo::Upper, Diag::NonUnit);
  const Matrix<T> td = densify(t.block(0, 0, nb, nb), Uplo::Upper, Diag::NonUnit);
  const Matrix<T> z = product(blocked, Trans::Yes, Trans::No, T(1), vd.cview(),
                              ConstMatrixView<T>(c2), T(1), copy_of<T>(c1));
  const Matrix<T> z2 = product(blocked, trans, Trans::No, T(1), td.cview(),
                               z.cview(), T(0), Matrix<T>(nb, c1.cols));
  for (int j = 0; j < c1.cols; ++j)
    for (int i = 0; i < nb; ++i) c1(i, j) -= z2(i, j);
  gemm(blocked, Trans::No, Trans::No, T(-1), vd.cview(), z2.cview(), T(1), c2);
}

// geqrt_blocked with every triangular operand densified: the trailing
// update through unmqr_dense (or unmqr's unchanged small-tile loops), the
// T12 = -T1 (V1^T V2) T2 coupling through the dense packed kernel.
template <typename T>
void geqrt_dense(MatrixView<T> a, MatrixView<T> t) {
  const int m = a.rows, n = a.cols;
  fill(t.block(0, 0, n, n), T(0));
  const int jb = panel_blocking().jb;
  for (int j0 = 0; j0 < n; j0 += jb) {
    const int bb = std::min(jb, n - j0), mrem = m - j0;
    MatrixView<T> panel = a.block(j0, j0, mrem, bb);
    MatrixView<T> t22 = t.block(j0, j0, bb, bb);
    geqrt_unblocked(panel, t22);
    const int ncols = n - j0 - bb;
    if (ncols > 0) {
      MatrixView<T> trailing = a.block(j0, j0 + bb, mrem, ncols);
      if (gemm_wants_blocked(bb, bb, mrem)) {
        unmqr_dense(Trans::Yes, ConstMatrixView<T>(panel),
                    ConstMatrixView<T>(t22), trailing);
      } else {
        unmqr(Trans::Yes, ConstMatrixView<T>(panel), ConstMatrixView<T>(t22),
              trailing);
      }
    }
    if (j0 > 0) {
      const Matrix<T> v2 = densify(ConstMatrixView<T>(panel), Uplo::Lower, Diag::Unit);
      const Matrix<T> t1 = densify(ConstMatrixView<T>(t.block(0, 0, j0, j0)),
                                   Uplo::Upper, Diag::NonUnit);
      const Matrix<T> t2 = densify(ConstMatrixView<T>(t22), Uplo::Upper, Diag::NonUnit);
      const auto blocked = GemmKernel::Blocked;
      const Matrix<T> w = product(
          blocked, Trans::Yes, Trans::No, T(1),
          ConstMatrixView<T>(a.block(j0, 0, mrem, j0)), v2.cview(), T(0),
          Matrix<T>(j0, bb));
      const Matrix<T> w2 = product(blocked, Trans::No, Trans::No, T(1),
                                   t1.cview(), w.cview(), T(0),
                                   Matrix<T>(j0, bb));
      gemm(blocked, Trans::No, Trans::No, T(-1), w2.cview(), t2.cview(), T(0),
           t.block(0, j0, j0, bb));
    }
  }
}

template <typename T>
void check_unmqr(int m, int k, int n, Trans trans) {
  SCOPED_TRACE(::testing::Message() << "unmqr m=" << m << " k=" << k << " n="
                                    << n << " trans=" << name(trans)
                                    << " bytes=" << sizeof(T));
  Matrix<T> v = convert<T>(random_matrix(m, k, 500 + m + k));
  Matrix<T> t(k, k);
  geqrt(v.view(), t.view());
  const Matrix<T> c0 = convert<T>(random_matrix(m, n, 600 + n));
  Matrix<T> got = c0, want = c0;
  unmqr(trans, v.cview(), t.cview(), got.view());
  unmqr_dense(trans, v.cview(), t.cview(), want.view());
  expect_bitwise_equal(got, want, "unmqr vs densified reference");
}

TEST(CompactWyParity, UnmqrMatchesDensifiedReference) {
  for (Trans trans : {Trans::No, Trans::Yes})
    for (const auto& [m, k] : {std::pair{24, 24}, std::pair{37, 37},
                               std::pair{128, 128}, std::pair{80, 37}})
      for (int n : {1, k, k + 7}) {
        check_unmqr<double>(m, k, n, trans);
        check_unmqr<float>(m, k, n, trans);
      }
}

template <typename T>
void check_stacked(bool tt, int nb, int m, int n, Trans trans) {
  SCOPED_TRACE(::testing::Message() << (tt ? "ttmqr" : "tsmqr") << " nb=" << nb
                                    << " m=" << m << " n=" << n << " trans="
                                    << name(trans) << " bytes=" << sizeof(T));
  Matrix<T> r = convert<T>(luqr::testing::random_upper(nb, 700 + nb));
  Matrix<T> v = convert<T>(tt ? luqr::testing::random_upper(nb, 710 + nb)
                              : random_matrix(m, nb, 720 + m));
  Matrix<T> t(nb, nb);
  if (tt) {
    ttqrt(r.view(), v.view(), t.view());
  } else {
    tsqrt(r.view(), v.view(), t.view());
  }
  const Matrix<T> c1_0 = convert<T>(random_matrix(nb, n, 730 + n));
  const Matrix<T> c2_0 = convert<T>(random_matrix(v.rows(), n, 740 + n));
  Matrix<T> g1 = c1_0, g2 = c2_0, w1 = c1_0, w2 = c2_0;
  if (tt) {
    ttmqr(trans, v.cview(), t.cview(), g1.view(), g2.view());
    ttmqr_dense(trans, v.cview(), t.cview(), w1.view(), w2.view());
  } else {
    tsmqr(trans, v.cview(), t.cview(), g1.view(), g2.view());
    tsmqr_dense(trans, v.cview(), t.cview(), w1.view(), w2.view());
  }
  expect_bitwise_equal(g1, w1, "C1 vs densified reference");
  expect_bitwise_equal(g2, w2, "C2 vs densified reference");
}

TEST(CompactWyParity, TsmqrMatchesDensifiedReference) {
  // nb = 8 and 12 x 20 run their V products on the simple loops; op(T) Z
  // and every product of the larger orders run packed.
  for (Trans trans : {Trans::No, Trans::Yes})
    for (const auto& [nb, m] : {std::pair{8, 8}, std::pair{12, 20},
                                std::pair{37, 37}, std::pair{64, 50},
                                std::pair{128, 128}})
      for (int n : {1, nb, nb + 7}) {
        check_stacked<double>(false, nb, m, n, trans);
        check_stacked<float>(false, nb, m, n, trans);
      }
}

TEST(CompactWyParity, TtmqrMatchesDensifiedReference) {
  for (Trans trans : {Trans::No, Trans::Yes})
    for (int nb : {24, 37, 64, 128})
      for (int n : {1, nb, nb + 7}) {
        check_stacked<double>(true, nb, nb, n, trans);
        check_stacked<float>(true, nb, nb, n, trans);
      }
}

template <typename T>
void check_geqrt(int m, int n) {
  SCOPED_TRACE(::testing::Message() << "geqrt m=" << m << " n=" << n
                                    << " bytes=" << sizeof(T));
  const Matrix<T> a0 = convert<T>(random_matrix(m, n, 800 + m + n));
  Matrix<T> got = a0, want = a0, tg(n, n), tw(n, n);
  geqrt_blocked(got.view(), tg.view());
  geqrt_dense(want.view(), tw.view());
  expect_bitwise_equal(got, want, "V and R vs densified reference");
  expect_bitwise_equal(tg, tw, "T vs densified reference");
}

TEST(CompactWyParity, GeqrtBlockedMatchesDensifiedReference) {
  // 96 x 70 ends on a 6-wide block, far below the GEMM dispatch threshold.
  for (const auto& [m, n] : {std::pair{128, 128}, std::pair{200, 128},
                             std::pair{96, 70}, std::pair{130, 100}}) {
    check_geqrt<double>(m, n);
    check_geqrt<float>(m, n);
  }
}

// ---------------------------------------------------------------------------
// NaN reach: a NaN in C reaches exactly the rows that its structural
// nonzeros touch — V's and T's trapezoids, whatever values they hold — on
// the packed path as on the small-tile loops.
// ---------------------------------------------------------------------------

using Pattern = std::vector<bool>;
using Structure = std::function<bool(int, int)>;

// out[i] = OR over l of s(i, l) AND in[l].
Pattern reach(int rows, const Structure& s, const Pattern& in) {
  Pattern out(rows, false);
  for (int i = 0; i < rows; ++i)
    for (int l = 0; l < static_cast<int>(in.size()); ++l)
      if (in[l] && s(i, l)) out[i] = true;
  return out;
}

Pattern either(Pattern a, const Pattern& b) {
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = a[i] || b[i];
  return a;
}

Pattern only(int rows, int bad) {
  Pattern p(rows, false);
  if (bad >= 0) p[bad] = true;
  return p;
}

Structure op_t(Trans trans) {
  if (trans == Trans::No) return [](int i, int l) { return l >= i; };
  return [](int i, int l) { return l <= i; };
}

template <typename T>
void expect_pattern(const Matrix<T>& c, int col, const Pattern& want,
                    const char* what) {
  for (int j = 0; j < c.cols(); ++j)
    for (int i = 0; i < c.rows(); ++i) {
      const bool nan_expected = j == col && want[i];
      EXPECT_EQ(std::isnan(c(i, j)), nan_expected)
          << what << " row " << i << " col " << j;
    }
}

template <typename T>
void check_unmqr_nan(int m, int k, int bad, Trans trans) {
  SCOPED_TRACE(::testing::Message() << "unmqr m=" << m << " k=" << k
                                    << " NaN row " << bad << " trans=" << name(trans));
  Matrix<T> v = convert<T>(random_matrix(m, k, 900 + m));
  Matrix<T> t(k, k);
  geqrt(v.view(), t.view());
  Matrix<T> c = convert<T>(random_matrix(m, 3, 901));
  c(bad, 1) = std::numeric_limits<T>::quiet_NaN();
  unmqr(trans, v.cview(), t.cview(), c.view());
  const Pattern w = reach(k, [](int i, int r) { return r >= i; }, only(m, bad));
  const Pattern w2 = reach(k, op_t(trans), w);
  const Pattern out =
      either(only(m, bad), reach(m, [](int r, int i) { return r >= i; }, w2));
  expect_pattern(c, 1, out, "C");
}

template <typename T>
void check_stacked_nan(bool tt, int nb, int bad1, int bad2, Trans trans) {
  SCOPED_TRACE(::testing::Message() << (tt ? "ttmqr" : "tsmqr") << " nb=" << nb
                                    << " NaN rows C1 " << bad1 << " C2 " << bad2
                                    << " trans=" << name(trans));
  Matrix<T> r = convert<T>(luqr::testing::random_upper(nb, 910 + nb));
  Matrix<T> v = convert<T>(tt ? luqr::testing::random_upper(nb, 911)
                              : random_matrix(nb, nb, 912));
  Matrix<T> t(nb, nb);
  if (tt) {
    ttqrt(r.view(), v.view(), t.view());
  } else {
    tsqrt(r.view(), v.view(), t.view());
  }
  Matrix<T> c1 = convert<T>(random_matrix(nb, 3, 913));
  Matrix<T> c2 = convert<T>(random_matrix(nb, 3, 914));
  if (bad1 >= 0) c1(bad1, 1) = std::numeric_limits<T>::quiet_NaN();
  if (bad2 >= 0) c2(bad2, 1) = std::numeric_limits<T>::quiet_NaN();
  if (tt) {
    ttmqr(trans, v.cview(), t.cview(), c1.view(), c2.view());
  } else {
    tsmqr(trans, v.cview(), t.cview(), c1.view(), c2.view());
  }
  // V's structure: upper triangular (TT) or full (TS).
  const Structure vs = tt ? Structure([](int r, int i) { return r <= i; })
                          : Structure([](int, int) { return true; });
  const Structure vts = [vs](int i, int r) { return vs(r, i); };
  const Pattern z = either(only(nb, bad1), reach(nb, vts, only(nb, bad2)));
  const Pattern z2 = reach(nb, op_t(trans), z);
  expect_pattern(c1, 1, either(only(nb, bad1), z2), "C1");
  expect_pattern(c2, 1, either(only(nb, bad2), reach(nb, vs, z2)), "C2");
}

TEST(CompactWyNan, ReachesExactlyTheStructurallyTouchedRows) {
  // unmqr and ttmqr at order 16 run their small-tile loops, which define
  // the rule; the other orders run packed, as does tsmqr's op(T) Z at every
  // order. Rows 5 and 37 sit inside a micro-panel, off the edges of its
  // diagonal band.
  for (Trans trans : {Trans::No, Trans::Yes}) {
    for (const auto& [m, k] : {std::pair{64, 64}, std::pair{16, 16},
                               std::pair{80, 37}})
      for (int bad : {0, 5, k - 1, m - 1}) {
        check_unmqr_nan<double>(m, k, bad, trans);
        check_unmqr_nan<float>(m, k, bad, trans);
      }
    for (bool tt : {false, true})
      for (int nb : {16, 64, 128}) {
        for (int bad : {0, 5, 37 % nb, nb - 1}) {
          check_stacked_nan<double>(tt, nb, bad, -1, trans);
          check_stacked_nan<double>(tt, nb, -1, bad, trans);
          check_stacked_nan<float>(tt, nb, -1, bad, trans);
        }
      }
  }
}

// ---------------------------------------------------------------------------
// Footprint and fault site: the triangle overload reports the same accesses
// as gemm() and is one kGemmNan occurrence per product.
// ---------------------------------------------------------------------------

struct Recorder : AccessListener {
  struct Access {
    const void* ptr;
    std::size_t bytes;
    bool write;
    bool operator==(const Access& o) const {
      return ptr == o.ptr && bytes == o.bytes && write == o.write;
    }
  };
  std::vector<Access> seen;
  void on_access(const void* ptr, std::size_t bytes, bool write) override {
    seen.push_back({ptr, bytes, write});
  }
};

TEST(TriGemmContract, ReportsTheSameFootprintAsGemm) {
  const Matrix<double> a = random_matrix(40, 40, 1), b = random_matrix(40, 9, 2);
  Matrix<double> c(40, 9);
  Recorder dense, tri;
  AccessListener* prev = install_access_listener(&dense);
  gemm(GemmKernel::Blocked, Trans::No, Trans::No, 1.0, a.cview(), b.cview(),
       0.0, c.view());
  install_access_listener(&tri);
  gemm(TriOperand{Side::Left, Uplo::Upper, Diag::NonUnit}, Trans::No,
       Trans::No, 1.0, a.cview(), b.cview(), 0.0, c.view());
  install_access_listener(prev);
  ASSERT_EQ(tri.seen.size(), 3u);
  EXPECT_TRUE(tri.seen == dense.seen);
}

TEST(TriGemmContract, EveryApplyProductIsOneFaultSiteOccurrence) {
  const int nb = 64;
  Matrix<double> r = luqr::testing::random_upper(nb, 3);
  Matrix<double> v = luqr::testing::random_upper(nb, 4), t(nb, nb);
  ttqrt(r.view(), v.view(), t.view());
  Matrix<double> vq = random_matrix(nb, nb, 5), tq(nb, nb);
  geqrt(vq.view(), tq.view());
  Matrix<double> c1 = random_matrix(nb, nb, 6), c2 = random_matrix(nb, nb, 7);
  const auto occurrences = [](const std::function<void()>& run) {
    fault::FaultPlan plan(1);
    plan.arm({fault::site::kGemmNan, 1.0, /*max_fires=*/0});
    fault::ScopedPlan guard(plan);
    run();
    return plan.occurrences(fault::site::kGemmNan);
  };
  EXPECT_EQ(occurrences([&] {
              unmqr(Trans::Yes, vq.cview(), tq.cview(), c1.view());
            }),
            3u);
  EXPECT_EQ(occurrences([&] {
              ttmqr(Trans::Yes, v.cview(), t.cview(), c1.view(), c2.view());
            }),
            3u);
  EXPECT_EQ(occurrences([&] {
              tsmqr(Trans::Yes, vq.cview(), tq.cview(), c1.view(), c2.view());
            }),
            3u);
}

}  // namespace
}  // namespace luqr::kern

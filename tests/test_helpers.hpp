// Shared helpers for the luqr test suite.
#pragma once

#include <gtest/gtest.h>

#include <cstring>

#include "common/rng.hpp"
#include "kernels/dense.hpp"
#include "kernels/reference.hpp"

namespace luqr::testing {

/// Dense random matrix with i.i.d. standard Gaussian entries.
inline Matrix<double> random_matrix(int rows, int cols, std::uint64_t seed) {
  Matrix<double> m(rows, cols);
  Rng rng(seed);
  for (int j = 0; j < cols; ++j)
    for (int i = 0; i < rows; ++i) m(i, j) = rng.gaussian();
  return m;
}

/// Random upper-triangular matrix (nonzero diagonal).
inline Matrix<double> random_upper(int n, std::uint64_t seed) {
  Matrix<double> m(n, n);
  Rng rng(seed);
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i <= j; ++i) m(i, j) = rng.gaussian();
    m(j, j) += (m(j, j) >= 0 ? 3.0 : -3.0);  // keep well-conditioned
  }
  return m;
}

/// Random unit-lower-triangular matrix.
inline Matrix<double> random_unit_lower(int n, std::uint64_t seed) {
  Matrix<double> m(n, n);
  Rng rng(seed);
  for (int j = 0; j < n; ++j) {
    m(j, j) = 1.0;
    for (int i = j + 1; i < n; ++i) m(i, j) = 0.5 * rng.gaussian();
  }
  return m;
}

/// Elementwise copy of a double matrix into precision T.
template <typename T>
Matrix<T> convert(const Matrix<double>& a) {
  Matrix<T> m(a.rows(), a.cols());
  for (int j = 0; j < a.cols(); ++j)
    for (int i = 0; i < a.rows(); ++i) m(i, j) = static_cast<T>(a(i, j));
  return m;
}

/// Copy of an upper-triangular factor with `garbage` written into its strict
/// lower triangle (kernels documented to read only the upper one must not
/// notice).
template <typename T>
Matrix<T> with_garbage_below_diagonal(Matrix<T> a, T garbage) {
  for (int j = 0; j < a.cols(); ++j)
    for (int i = j + 1; i < a.rows(); ++i) a(i, j) = garbage;
  return a;
}

/// EXPECT that two same-shape matrices are bitwise identical.
template <typename T>
void expect_bitwise_equal(const Matrix<T>& a, const Matrix<T>& b,
                          const char* what = "matrices") {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        sizeof(T) * static_cast<std::size_t>(a.rows()) * a.cols()),
            0)
      << what;
}

/// EXPECT that two dense matrices agree to `tol` elementwise.
inline void expect_near(const Matrix<double>& a, const Matrix<double>& b,
                        double tol, const char* what = "matrices") {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  EXPECT_LE(kern::max_abs_diff(a.cview(), b.cview()), tol) << what;
}

}  // namespace luqr::testing

// Shared building blocks of the compact-WY kernels (geqrt_blocked, unmqr,
// tsmqr, ttmqr) — internal to src/kernels.
//
// The packed GEMM reads full rectangles, while the reflector storage keeps
// its triangles next to unrelated data: V below R in a GEQRT tile, a TTQRT V
// above earlier reflectors, T above nothing in particular. densify_triangle
// stages one triangle into workspace with the other one written as zero, so
// the triangular products of the compact-WY algebra run as packed GEMMs.
// apply_t_factor is the op(T) W step of every blocked apply, built on it.
//
// The applies (unmqr, tsmqr, ttmqr) choose their kernel from the tile
// shape — V's order and height, never C's width — and run every inner
// product through that kernel (the GemmKernel overload of gemm), so one
// RHS column goes through exactly the arithmetic it would see inside a
// tile-wide call. The retained factorization's exact-width solve
// (core/factorization.cpp) relies on this.
#pragma once

#include <algorithm>
#include <cstddef>

#include "kernels/blas.hpp"
#include "kernels/matrix_view.hpp"
#include "kernels/workspace.hpp"

namespace luqr::kern {

/// Copy the `uplo` trapezoid of src into a fresh src-shaped buffer from ws
/// (valid until the caller's Frame closes), with the opposite triangle
/// written as zero. Diag::Unit writes ones on the diagonal without reading
/// it. Storage of src outside the trapezoid is never read.
template <typename T>
MatrixView<T> densify_triangle(Uplo uplo, Diag diag, ConstMatrixView<T> src,
                               Workspace& ws) {
  const int m = src.rows, n = src.cols;
  MatrixView<T> d(ws.alloc<T>(static_cast<std::size_t>(m) * n), m, n, m);
  const bool upper = uplo == Uplo::Upper;
  for (int j = 0; j < n; ++j) {
    T* col = &d(0, j);
    const T* s = &src(0, j);
    const int top = std::min(j, m);  // rows strictly above the diagonal
    for (int i = 0; i < top; ++i) col[i] = upper ? s[i] : T(0);
    if (j < m) col[j] = diag == Diag::Unit ? T(1) : s[j];
    for (int i = j + 1; i < m; ++i) col[i] = upper ? T(0) : s[i];
  }
  return d;
}

/// W2 = op(T) W for the k x k upper-triangular block-reflector factor T of a
/// compact-WY transform (only its upper triangle is read) and a k x n W, as
/// one GEMM through `kernel` on a densified copy of T. W2 comes from ws and
/// lives until the caller's Frame closes. Above the GEMM dispatch threshold
/// this beats the in-place TRMM several times over: the TRMM is a chain of
/// dependent scalar dots, and the densify costs one k x k copy.
template <typename T>
MatrixView<T> apply_t_factor(GemmKernel kernel, Trans trans,
                             ConstMatrixView<T> t, ConstMatrixView<T> w,
                             Workspace& ws) {
  const int k = w.rows, n = w.cols;
  const MatrixView<T> td =
      densify_triangle(Uplo::Upper, Diag::NonUnit, t.block(0, 0, k, k), ws);
  MatrixView<T> w2(ws.alloc<T>(static_cast<std::size_t>(k) * n), k, n, k);
  gemm(kernel, trans, Trans::No, T(1), ConstMatrixView<T>(td), w, T(0), w2,
       &ws);
  return w2;
}

}  // namespace luqr::kern

// Owning column-major dense matrix, the boundary type of the public API
// (users hand the solver a Matrix<double>, the tiled core converts it).
#pragma once

#include <utility>
#include <vector>

#include "common/aligned.hpp"
#include "kernels/matrix_view.hpp"

namespace luqr {

/// Owning column-major matrix.
template <typename T>
class Matrix {
 public:
  Matrix() = default;
  Matrix(int rows, int cols, T value = T(0))
      : rows_(rows), cols_(cols), data_(checked_size(rows, cols), value) {}

  /// A rows x cols matrix whose elements are left unwritten: no
  /// value-initialising pass touches the pages, so the first write (often
  /// on the worker thread that fills it) faults them in. Every element must
  /// be written before it is read.
  static Matrix uninitialized(int rows, int cols) { return Matrix(rows, cols, Uninit{}); }

  int rows() const { return rows_; }
  int cols() const { return cols_; }

  T& operator()(int i, int j) { return data_[static_cast<std::size_t>(j) * rows_ + i]; }
  const T& operator()(int i, int j) const {
    return data_[static_cast<std::size_t>(j) * rows_ + i];
  }

  kern::MatrixView<T> view() {
    return kern::MatrixView<T>(data_.data(), rows_, cols_, rows_);
  }
  kern::ConstMatrixView<T> view() const {
    return kern::ConstMatrixView<T>(data_.data(), rows_, cols_, rows_);
  }
  kern::ConstMatrixView<T> cview() const { return view(); }

  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }

  /// Identity matrix of order n.
  static Matrix identity(int n) {
    Matrix m(n, n);
    for (int i = 0; i < n; ++i) m(i, i) = T(1);
    return m;
  }

 private:
  struct Uninit {};
  Matrix(int rows, int cols, Uninit)
      : rows_(rows), cols_(cols), data_(checked_size(rows, cols)) {}

  static std::size_t checked_size(int rows, int cols) {
    LUQR_REQUIRE(rows >= 0 && cols >= 0, "negative matrix dimension");
    return static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols);
  }

  int rows_ = 0;
  int cols_ = 0;
  std::vector<T, DefaultInitAllocator<std::allocator<T>>> data_;
};

}  // namespace luqr

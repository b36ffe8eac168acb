#include "tile/tile_matrix.hpp"

#include <algorithm>

namespace luqr {

template <typename T>
TileMatrix<T> TileMatrix<T>::from_dense(const Matrix<T>& dense, int nb) {
  LUQR_REQUIRE(nb > 0, "tile size must be positive");
  TileMatrix out = uninitialized((dense.rows() + nb - 1) / nb,
                                 (dense.cols() + nb - 1) / nb, nb);
  out.fill_columns(dense.cview(), 0, out.nt());
  return out;
}

template <typename T>
void TileMatrix<T>::fill_columns(kern::ConstMatrixView<T> src, int j0, int j1,
                                 int col0) {
  LUQR_REQUIRE(0 <= j0 && j0 <= j1 && j1 <= nt_, "fill column range out of bounds");
  LUQR_REQUIRE(src.rows <= rows() && col0 >= 0 && col0 + src.cols <= cols(),
               "fill source does not fit the tile grid");
  const std::size_t tile_elems = static_cast<std::size_t>(nb_) * nb_;
  for (int tj = j0; tj < j1; ++tj) {
    for (int ti = 0; ti < mt_; ++ti) {
      T* p = tile(ti, tj).data;
      const int r0 = ti * nb_;
      // Source rows this tile row holds: [r0, r0 + live).
      const int live = std::min(std::max(src.rows - r0, 0), nb_);
      for (int c = 0; c < nb_; ++c) {
        const int j = tj * nb_ + c;  // global column
        const int sj = j - col0;
        T* col = p + static_cast<std::size_t>(c) * nb_;
        const bool in_src = sj >= 0 && sj < src.cols;
        const int copied = in_src ? live : 0;
        if (copied > 0) {
          const T* s = &src(r0, sj);
          std::copy(s, s + copied, col);
        }
        std::fill(col + copied, col + nb_, T(0));
        // Identity padding: the diagonal outside the source block.
        if (j >= r0 && j < r0 + nb_ && (!in_src || j >= src.rows)) col[j - r0] = T(1);
      }
      std::fill(p + tile_elems, p + tile_stride_, T(0));  // stride slack
    }
  }
}

template <typename T>
Matrix<T> TileMatrix<T>::to_dense(int rows, int cols) const {
  LUQR_REQUIRE(rows <= this->rows() && cols <= this->cols(), "to_dense overflow");
  Matrix<T> out(rows, cols);
  for (int j = 0; j < cols; ++j)
    for (int i = 0; i < rows; ++i) out(i, j) = at(i, j);
  return out;
}

template <typename T>
void TileMatrix<T>::backup_column(int j, int i0, int i1,
                                  std::vector<std::vector<T>>& out) const {
  LUQR_REQUIRE(i0 >= 0 && i0 <= i1 && i1 <= mt_, "backup range out of bounds");
  out.assign(static_cast<std::size_t>(i1 - i0), {});
  for (int i = i0; i < i1; ++i) {
    const T* p = tile_ptr(i, j);
    out[static_cast<std::size_t>(i - i0)].assign(p, p + static_cast<std::size_t>(nb_) * nb_);
  }
}

template <typename T>
void TileMatrix<T>::restore_column(int j, int i0, int i1,
                                   const std::vector<std::vector<T>>& saved) {
  LUQR_REQUIRE(static_cast<int>(saved.size()) == i1 - i0, "restore size mismatch");
  for (int i = i0; i < i1; ++i) {
    const auto& buf = saved[static_cast<std::size_t>(i - i0)];
    LUQR_REQUIRE(buf.size() == static_cast<std::size_t>(nb_) * nb_, "restore tile size");
    T* p = tile_ptr(i, j);
    std::copy(buf.begin(), buf.end(), p);
  }
}

template class TileMatrix<double>;
template class TileMatrix<float>;

}  // namespace luqr

#include "core/solve.hpp"

namespace luqr::core {

template <typename T>
TileMatrix<T> make_augmented(const Matrix<T>& a, const Matrix<T>& b, int nb) {
  LUQR_REQUIRE(a.rows() == a.cols(), "system matrix must be square");
  LUQR_REQUIRE(b.rows() == a.rows(), "rhs row count mismatch");
  LUQR_REQUIRE(nb > 0, "tile size must be positive");
  const int n_scalar = a.rows();
  const int mt = (n_scalar + nb - 1) / nb;
  const int bt = (b.cols() + nb - 1) / nb;
  TileMatrix<T> aug = TileMatrix<T>::uninitialized(mt, mt + bt, nb);
  // Square part with identity padding (keeps the padded system nonsingular
  // and the padded solution tail exactly zero), then the RHS columns, zero
  // padded.
  aug.fill_columns(a.cview(), 0, mt);
  aug.fill_columns(b.cview(), mt, mt + bt, mt * nb);
  return aug;
}

template <typename T>
Matrix<T> extract_solution(const TileMatrix<T>& aug, int n_scalar, int nrhs) {
  const int nb = aug.nb();
  const int mt = aug.mt();
  Matrix<T> x(n_scalar, nrhs);
  for (int j = 0; j < nrhs; ++j)
    for (int i = 0; i < n_scalar; ++i) x(i, j) = aug.at(i, mt * nb + j);
  return x;
}

template TileMatrix<double> make_augmented(const Matrix<double>&,
                                           const Matrix<double>&, int);
template TileMatrix<float> make_augmented(const Matrix<float>&,
                                          const Matrix<float>&, int);
template Matrix<double> extract_solution(const TileMatrix<double>&, int, int);
template Matrix<float> extract_solution(const TileMatrix<float>&, int, int);

// hybrid_solve is a thin wrapper over the luqr::Solver facade; its
// definition lives in api/solver.cpp so this layer never includes upward.

}  // namespace luqr::core

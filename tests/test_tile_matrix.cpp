// Tests for the tiled container and the 2D block-cyclic process grid.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "core/solve.hpp"
#include "test_helpers.hpp"
#include "tile/process_grid.hpp"
#include "tile/tile_matrix.hpp"

namespace luqr {
namespace {

using luqr::testing::random_matrix;

TEST(TileMatrix, RoundTripDenseConversion) {
  const auto dense = random_matrix(24, 24, 1);
  auto tiled = TileMatrix<double>::from_dense(dense, 8);
  EXPECT_EQ(tiled.mt(), 3);
  EXPECT_EQ(tiled.nt(), 3);
  const auto back = tiled.to_dense(24, 24);
  for (int j = 0; j < 24; ++j)
    for (int i = 0; i < 24; ++i) EXPECT_DOUBLE_EQ(back(i, j), dense(i, j));
}

TEST(TileMatrix, GlobalElementAddressing) {
  TileMatrix<double> a(2, 2, 4);
  a.at(5, 6) = 42.0;  // tile (1,1), local (1,2)
  EXPECT_DOUBLE_EQ(a.tile(1, 1)(1, 2), 42.0);
  a.tile(0, 1)(3, 0) = -7.0;  // global (3, 4)
  EXPECT_DOUBLE_EQ(a.at(3, 4), -7.0);
}

TEST(TileMatrix, TilesAreContiguousColumnMajor) {
  TileMatrix<double> a(2, 2, 3);
  auto t = a.tile(1, 0);
  EXPECT_EQ(t.rows, 3);
  EXPECT_EQ(t.cols, 3);
  EXPECT_EQ(t.ld, 3);
  t(0, 0) = 1.0;
  t(2, 2) = 9.0;
  EXPECT_DOUBLE_EQ(*(t.data + 8), 9.0);  // last element of the tile buffer
}

TEST(TileMatrix, PaddingIsIdentity) {
  const auto dense = random_matrix(10, 10, 2);  // nb=4 -> padded to 12
  auto tiled = TileMatrix<double>::from_dense(dense, 4);
  EXPECT_EQ(tiled.rows(), 12);
  for (int i = 10; i < 12; ++i) {
    for (int j = 0; j < 12; ++j) {
      EXPECT_DOUBLE_EQ(tiled.at(i, j), i == j ? 1.0 : 0.0);
      EXPECT_DOUBLE_EQ(tiled.at(j, i), j == i ? 1.0 : 0.0);
    }
  }
}

TEST(TileMatrix, BackupRestoreColumn) {
  const auto dense = random_matrix(16, 16, 3);
  auto tiled = TileMatrix<double>::from_dense(dense, 4);
  std::vector<std::vector<double>> saved;
  tiled.backup_column(1, 1, 4, saved);
  ASSERT_EQ(saved.size(), 3u);
  // Clobber and restore.
  for (int i = 1; i < 4; ++i) kern::fill(tiled.tile(i, 1), -1.0);
  tiled.restore_column(1, 1, 4, saved);
  const auto back = tiled.to_dense(16, 16);
  for (int j = 0; j < 16; ++j)
    for (int i = 0; i < 16; ++i) EXPECT_DOUBLE_EQ(back(i, j), dense(i, j));
}

TEST(TileMatrix, OutOfRangeTileThrows) {
  TileMatrix<double> a(2, 3, 4);
  EXPECT_THROW(a.tile(2, 0), Error);
  EXPECT_THROW(a.tile(0, 3), Error);
  EXPECT_THROW(a.tile(-1, 0), Error);
}

TEST(TileMatrix, RectangularGridForAugmentedSystems) {
  TileMatrix<double> a(3, 5, 4);  // 3x3 square part + 2 RHS tile columns
  EXPECT_EQ(a.rows(), 12);
  EXPECT_EQ(a.cols(), 20);
  a.at(11, 19) = 1.5;
  EXPECT_DOUBLE_EQ(a.tile(2, 4)(3, 3), 1.5);
}

TEST(TileMatrixFloat, WorksWithFloat) {
  TileMatrix<float> a(1, 1, 2);
  a.at(1, 1) = 2.5f;
  EXPECT_FLOAT_EQ(a.tile(0, 0)(1, 1), 2.5f);
}

// ---------------------------------------------------------------------------
// Single-pass conversion: fill_columns against the element-wise definition
// ---------------------------------------------------------------------------

template <typename T>
Matrix<T> random_matrix_t(int rows, int cols, std::uint64_t seed) {
  const auto d = random_matrix(rows, cols, seed);
  Matrix<T> m(rows, cols);
  for (int j = 0; j < cols; ++j)
    for (int i = 0; i < rows; ++i) m(i, j) = static_cast<T>(d(i, j));
  return m;
}

// Whole storage of a tile grid, stride slack between tiles included (tiles
// are laid out contiguously, column of tiles after column of tiles).
template <typename T>
std::size_t storage_elems(const TileMatrix<T>& a) {
  if (a.mt() * a.nt() < 2) return static_cast<std::size_t>(a.nb()) * a.nb();
  const auto* t0 = static_cast<const T*>(a.tile_key(0, 0));
  const auto* t1 = a.mt() > 1 ? static_cast<const T*>(a.tile_key(1, 0))
                              : static_cast<const T*>(a.tile_key(0, 1));
  return static_cast<std::size_t>(t1 - t0) * a.mt() * a.nt();
}

template <typename T>
void expect_same_storage(const TileMatrix<T>& want, const TileMatrix<T>& got) {
  ASSERT_EQ(want.mt(), got.mt());
  ASSERT_EQ(want.nt(), got.nt());
  ASSERT_EQ(want.nb(), got.nb());
  const std::size_t bytes = storage_elems(want) * sizeof(T);
  EXPECT_EQ(std::memcmp(want.tile_key(0, 0), got.tile_key(0, 0), bytes), 0);
}

// Overwrite every element (slack included) so a fill that skips one shows.
template <typename T>
void poison(TileMatrix<T>& a) {
  T* base = a.tile(0, 0).data;
  std::fill(base, base + storage_elems(a), std::numeric_limits<T>::quiet_NaN());
}

// The element-wise definition from_dense and make_augmented had before the
// single-pass filler: a zero-filled grid, the dense block, identity padding
// on the diagonal outside it.
template <typename T>
TileMatrix<T> elementwise_from_dense(const Matrix<T>& dense, int nb) {
  TileMatrix<T> out((dense.rows() + nb - 1) / nb, (dense.cols() + nb - 1) / nb, nb);
  for (int j = 0; j < out.cols(); ++j)
    for (int i = 0; i < out.rows(); ++i) {
      if (i < dense.rows() && j < dense.cols()) {
        out.at(i, j) = dense(i, j);
      } else if (i == j) {
        out.at(i, j) = T(1);
      }
    }
  return out;
}

template <typename T>
TileMatrix<T> elementwise_augmented(const Matrix<T>& a, const Matrix<T>& b, int nb) {
  const int n = a.rows();
  const int mt = (n + nb - 1) / nb;
  TileMatrix<T> aug(mt, mt + (b.cols() + nb - 1) / nb, nb);
  for (int j = 0; j < mt * nb; ++j)
    for (int i = 0; i < mt * nb; ++i) {
      if (i < n && j < n) {
        aug.at(i, j) = a(i, j);
      } else if (i == j) {
        aug.at(i, j) = T(1);
      }
    }
  for (int j = 0; j < b.cols(); ++j)
    for (int i = 0; i < n; ++i) aug.at(i, mt * nb + j) = b(i, j);
  return aug;
}

template <typename T>
void expect_filler_matches_elementwise(int rows, int cols, int nb) {
  SCOPED_TRACE(::testing::Message() << rows << "x" << cols << " nb=" << nb);
  const auto dense = random_matrix_t<T>(rows, cols, 70 + rows);
  const TileMatrix<T> want = elementwise_from_dense(dense, nb);
  expect_same_storage(want, TileMatrix<T>::from_dense(dense, nb));

  // Column by column into poisoned storage: the staged path's chunking.
  TileMatrix<T> got = TileMatrix<T>::uninitialized(want.mt(), want.nt(), nb);
  poison(got);
  for (int j = 0; j < got.nt(); ++j) got.fill_columns(dense.cview(), j, j + 1);
  expect_same_storage(want, got);
}

TEST(TileFill, MatchesElementwiseDefinitionF64) {
  for (int nb : {5, 12}) {
    expect_filler_matches_elementwise<double>(23, 23, nb);  // n % nb != 0
    expect_filler_matches_elementwise<double>(24, 24, nb);
    expect_filler_matches_elementwise<double>(17, 9, nb);   // rectangular
    expect_filler_matches_elementwise<double>(9, 17, nb);   // diagonal below the rows
  }
}

TEST(TileFill, MatchesElementwiseDefinitionF32) {
  for (int nb : {5, 12}) {
    expect_filler_matches_elementwise<float>(23, 23, nb);
    expect_filler_matches_elementwise<float>(9, 17, nb);
  }
}

TEST(TileFill, AugmentedMatchesElementwiseDefinition) {
  for (int nb : {5, 12}) {
    for (int nrhs : {1, 3, 13}) {
      SCOPED_TRACE(::testing::Message() << "nb=" << nb << " nrhs=" << nrhs);
      const auto a = random_matrix(23, 23, 81);
      const auto b = random_matrix(23, nrhs, 82);
      expect_same_storage(elementwise_augmented(a, b, nb),
                          core::make_augmented(a, b, nb));
      const auto af = random_matrix_t<float>(23, 23, 83);
      const auto bf = random_matrix_t<float>(23, nrhs, 84);
      expect_same_storage(elementwise_augmented(af, bf, nb),
                          core::make_augmented(af, bf, nb));
    }
  }
}

TEST(TileFill, RejectsOutOfRangeColumnsAndOversizedSource) {
  auto a = TileMatrix<double>::uninitialized(2, 2, 4);
  const auto fits = random_matrix(8, 8, 85);
  const auto too_tall = random_matrix(9, 8, 86);
  EXPECT_THROW(a.fill_columns(fits.cview(), 1, 3), Error);
  EXPECT_THROW(a.fill_columns(fits.cview(), 0, 1, /*col0=*/1), Error);
  EXPECT_THROW(a.fill_columns(too_tall.cview(), 0, 2), Error);
  EXPECT_THROW(TileMatrix<double>::uninitialized(1, 1, 0), Error);
}

// ---------------------------------------------------------------------------
// ProcessGrid
// ---------------------------------------------------------------------------

TEST(ProcessGrid, OwnershipIsBlockCyclic) {
  ProcessGrid g(4, 4);
  EXPECT_EQ(g.nodes(), 16);
  EXPECT_EQ(g.owner(0, 0), 0);
  EXPECT_EQ(g.owner(1, 0), 4);
  EXPECT_EQ(g.owner(0, 1), 1);
  EXPECT_EQ(g.owner(5, 6), (5 % 4) * 4 + (6 % 4));
}

TEST(ProcessGrid, DiagonalDomainRows) {
  ProcessGrid g(4, 4);
  // Step 1 of a 10-tile panel: rows congruent to 1 mod 4 starting at 1.
  EXPECT_EQ(g.diagonal_domain(1, 10), (std::vector<int>{1, 5, 9}));
  // Step 7: rows 7 only (11 > mt).
  EXPECT_EQ(g.diagonal_domain(7, 10), (std::vector<int>{7}));
}

TEST(ProcessGrid, SingleRowGridOwnsWholePanel) {
  ProcessGrid g(1, 4);
  const auto rows = g.diagonal_domain(2, 6);
  EXPECT_EQ(rows, (std::vector<int>{2, 3, 4, 5}));
}

TEST(ProcessGrid, PanelDomainsPartitionThePanel) {
  ProcessGrid g(3, 2);
  const int k = 2, mt = 11;
  const auto domains = g.panel_domains(k, mt);
  // First group must be the diagonal domain.
  EXPECT_EQ(domains[0], g.diagonal_domain(k, mt));
  // All rows k..mt-1 appear exactly once.
  std::vector<int> seen;
  for (const auto& d : domains) {
    EXPECT_FALSE(d.empty());
    for (int r : d) seen.push_back(r);
  }
  std::sort(seen.begin(), seen.end());
  std::vector<int> expected;
  for (int i = k; i < mt; ++i) expected.push_back(i);
  EXPECT_EQ(seen, expected);
  // Each group is one grid row.
  for (const auto& d : domains)
    for (int r : d) EXPECT_EQ(g.row_rank(r), g.row_rank(d[0]));
}

TEST(ProcessGrid, LastStepHasSingleDomain) {
  ProcessGrid g(4, 1);
  const auto domains = g.panel_domains(9, 10);
  ASSERT_EQ(domains.size(), 1u);
  EXPECT_EQ(domains[0], (std::vector<int>{9}));
}

TEST(ProcessGrid, InvalidGridThrows) {
  EXPECT_THROW(ProcessGrid(0, 2), Error);
  EXPECT_THROW(ProcessGrid(2, -1), Error);
}

}  // namespace
}  // namespace luqr

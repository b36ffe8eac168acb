// Tiled matrix storage.
//
// The paper's algorithms operate on an n x n grid of nb x nb tiles
// (N = n * nb). TileMatrix stores each tile contiguously (column-major
// inside the tile), which is what makes every kernel of Table I a dense
// operation on one to three contiguous blocks — the storage layout of
// PLASMA/DPLASMA.
//
// Rectangular tile grids are supported so the right-hand side b can ride
// along as extra tile column(s) (paper §II-D-1: factor the augmented matrix
// Ã = (A, b)). General N (not a multiple of nb) is handled by embedding the
// dense matrix into the top-left corner of a padded tiled matrix with an
// identity tail (§II-D-2's "clean-up" in library form).
#pragma once

#include <vector>

#include "common/aligned.hpp"
#include "fault/fault.hpp"
#include "kernels/access.hpp"
#include "kernels/dense.hpp"
#include "kernels/matrix_view.hpp"

namespace luqr {

/// Owning tiled matrix: mt x nt tiles of nb x nb scalars. Storage is
/// 64-byte aligned and the per-tile stride is padded up to a whole number
/// of cache lines, so every tile starts on a cache-line/SIMD boundary
/// regardless of nb.
template <typename T>
class TileMatrix {
 public:
  TileMatrix() = default;
  TileMatrix(int mt, int nt, int nb)
      : mt_(mt), nt_(nt), nb_(nb), tile_stride_(padded_tile_stride(nb)),
        data_(checked_elems(mt, nt, nb), T(0)) {}

  int mt() const { return mt_; }   ///< tile rows
  int nt() const { return nt_; }   ///< tile cols
  int nb() const { return nb_; }   ///< tile order
  int rows() const { return mt_ * nb_; }
  int cols() const { return nt_ * nb_; }

  /// Mutable view of tile (i, j). Acquisition reports a write to the
  /// thread's access listener when one is installed (the runtime auditor);
  /// without one the hook is a single thread-local pointer test. Read-only
  /// uses inside audited tasks must go through the const overload
  /// (std::as_const) or they count as writes.
  kern::MatrixView<T> tile(int i, int j) {
    T* p = tile_ptr(i, j);
    kern::note_access(p, tile_bytes(), /*write=*/true);
    return kern::MatrixView<T>(p, nb_, nb_, nb_);
  }
  /// Read-only view of tile (i, j); acquisition reports a read.
  kern::ConstMatrixView<T> tile(int i, int j) const {
    const T* p = tile_ptr(i, j);
    kern::note_access(p, tile_bytes(), /*write=*/false);
    return kern::ConstMatrixView<T>(p, nb_, nb_, nb_);
  }
  /// Tile (i, j)'s identity for dependency declaration and audit
  /// registration: the same address tile().data yields, but with *no* access
  /// report — drivers build Dep lists (often from inside other audited
  /// tasks) without touching the data.
  const void* tile_key(int i, int j) const { return tile_ptr(i, j); }

  /// Global element access (i, j in scalar coordinates).
  T& at(int i, int j) {
    return *(tile_ptr(i / nb_, j / nb_) + (j % nb_) * nb_ + (i % nb_));
  }
  T at(int i, int j) const {
    return *(tile_ptr(i / nb_, j / nb_) + (j % nb_) * nb_ + (i % nb_));
  }

  /// mt x nt tiles whose storage is left unwritten: no value-initialising
  /// pass touches the pages, so the first write — fill_columns, typically
  /// on the worker that goes on to use the tiles — faults them in. Every
  /// tile column must be filled before any element is read.
  static TileMatrix uninitialized(int mt, int nt, int nb) {
    return TileMatrix(mt, nt, nb, Uninit{});
  }

  /// Embed a dense matrix into a tiled one. Rows/cols are padded up to a
  /// multiple of nb; the padding block is the identity (so factorizations
  /// of the padded matrix reproduce the original, and padded solves return
  /// zeros in the tail). One pass: uninitialized + fill_columns(0, nt).
  static TileMatrix from_dense(const Matrix<T>& dense, int nb);

  /// Write every element of tile columns [j0, j1) in one pass, the stride
  /// slack between tiles included. The source occupies global rows
  /// [0, src.rows) and columns [col0, col0 + src.cols); element (i, j) is
  /// src(i, j - col0) inside that block, 1 on the diagonal (i == j) outside
  /// it (identity padding), and 0 elsewhere. Each tile written is reported
  /// to the access listener as a write, so an audited task that fills its
  /// declared tiles stays inside its Dep set.
  void fill_columns(kern::ConstMatrixView<T> src, int j0, int j1, int col0 = 0);

  /// Extract the top-left rows x cols corner back to dense storage.
  Matrix<T> to_dense(int rows, int cols) const;
  Matrix<T> to_dense() const { return to_dense(rows(), cols()); }

  /// Bytes of tile storage this matrix holds (telemetry / cache budgeting).
  std::size_t allocated_bytes() const { return data_.size() * sizeof(T); }

  /// Deep copy of one tile column segment [i0, i1) x {j} into `out` tiles —
  /// the Backup-Panel operation of the paper's dataflow (Figure 1).
  void backup_column(int j, int i0, int i1, std::vector<std::vector<T>>& out) const;

  /// Restore tiles saved by backup_column (the QR branch of Propagate).
  void restore_column(int j, int i0, int i1, const std::vector<std::vector<T>>& saved);

 private:
  struct Uninit {};
  TileMatrix(int mt, int nt, int nb, Uninit)
      : mt_(mt), nt_(nt), nb_(nb), tile_stride_(padded_tile_stride(nb)),
        data_(checked_elems(mt, nt, nb)) {}

  /// Elements between consecutive tiles: nb*nb rounded up so each tile
  /// begins a whole number of cache lines after the (aligned) base.
  static std::size_t padded_tile_stride(int nb) {
    constexpr std::size_t elems_per_line = kCacheLineBytes / sizeof(T);
    return align_up(static_cast<std::size_t>(nb) * nb, elems_per_line);
  }

  /// Storage element count, gated by the tile-allocation fault site (the
  /// injected std::bad_alloc leaves the object unconstructed, exactly like
  /// a real allocation failure in the vector below).
  static std::size_t checked_elems(int mt, int nt, int nb) {
    LUQR_REQUIRE(mt >= 0 && nt >= 0 && nb > 0, "bad tile grid shape");
    fault::maybe_alloc_fail(fault::site::kTileAlloc);
    return static_cast<std::size_t>(mt) * nt * padded_tile_stride(nb);
  }

  /// Bytes one tile's elements span (the audit footprint of a tile view).
  std::size_t tile_bytes() const {
    return static_cast<std::size_t>(nb_) * static_cast<std::size_t>(nb_) * sizeof(T);
  }

  T* tile_ptr(int i, int j) {
    LUQR_REQUIRE(i >= 0 && i < mt_ && j >= 0 && j < nt_, "tile index out of range");
    return data_.data() + (static_cast<std::size_t>(j) * mt_ + i) * tile_stride_;
  }
  const T* tile_ptr(int i, int j) const {
    LUQR_REQUIRE(i >= 0 && i < mt_ && j >= 0 && j < nt_, "tile index out of range");
    return data_.data() + (static_cast<std::size_t>(j) * mt_ + i) * tile_stride_;
  }

  int mt_ = 0, nt_ = 0, nb_ = 1;
  std::size_t tile_stride_ = 0;
  std::vector<T, DefaultInitAllocator<AlignedAllocator<T>>> data_;
};

}  // namespace luqr

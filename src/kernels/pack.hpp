// Panel packing and cache-blocking configuration for the packed GEMM.
//
// The blocked GEMM (kernels/gemm.cpp) walks C in NC-wide column blocks, the
// shared dimension in KC-deep slices, and A in MC-tall row blocks — the
// classic {NC, KC, MC} loop nest that keeps a KC x NC slice of B resident in
// L2/L3, an MC x KC slice of A in L2, and streams MR x NR micro-tiles of C
// through registers. Before the micro-kernel runs, both slices are packed
// into contiguous panels:
//
//   Ap: MR-row panels, element (i, l) of a panel at dst[l*MR + i]
//   Bp: NR-column panels, element (l, j) of a panel at dst[l*NR + j]
//
// Packing absorbs the transpose variants (all four of gemm_nn/tn/nt/tt read
// through the same packed layout) and folds alpha into Bp, so the inner
// kernel is a single alpha-free code path. Short panels are zero-padded to
// MR/NR, which is numerically inert (the padding rows/cols are never written
// back).
//
// Blocking parameters come from the environment once per process
// (LUQR_GEMM_MC/KC/NC, LUQR_GEMM_SMALL_MNK) and are deliberately
// independent of thread count: a tile's GEMM performs bit-identical
// arithmetic whether the serial driver or any engine worker runs it.
#pragma once

#include <algorithm>
#include <cstddef>

#include "kernels/blas.hpp"
#include "kernels/matrix_view.hpp"

namespace luqr::kern {

/// Cache-blocking parameters, fixed at first use for the whole process.
struct GemmBlocking {
  int mc;         ///< A row-block height        (LUQR_GEMM_MC, default 256)
  int kc;         ///< shared-dimension depth    (LUQR_GEMM_KC, default 256)
  int nc;         ///< B/C column-block width    (LUQR_GEMM_NC, default 2048)
  long small_mnk; ///< m*n*k below which gemm() keeps the simple loops
                  ///< (LUQR_GEMM_SMALL_MNK, default 8192)
};

/// The process-wide blocking configuration (env read once, then cached).
const GemmBlocking& gemm_blocking();

/// Dispatch predicate of gemm(): true when an (m x n x k) product is big
/// enough for the packed path to win over the simple loops.
bool gemm_wants_blocked(int m, int n, int k);

/// gemm()'s kernel for an (m x n x k) product: Blocked iff
/// gemm_wants_blocked(m, n, k).
GemmKernel gemm_kernel_for(int m, int n, int k);

/// Blocking/dispatch knobs for the blocked panel factorizations (GETRF and
/// GEQRT): the inner unblocked panel width, and the column count below which
/// the kernels keep the seed's unblocked loops. Like the GEMM blocking these
/// are read from the environment once per process and never depend on thread
/// count, so a panel factorization is bitwise identical on the serial driver
/// and on any engine worker.
struct PanelBlocking {
  int jb;       ///< inner panel width           (LUQR_PANEL_JB, default 32)
  int small_n;  ///< unblocked below this n      (LUQR_PANEL_SMALL_N, default 64)
};

/// The process-wide panel blocking configuration (env read once, cached).
const PanelBlocking& panel_blocking();

/// Dispatch predicate of getrf()/geqrt(): true when an m x n panel is big
/// enough for the blocked algorithm to win over the unblocked loops.
bool panel_wants_blocked(int m, int n);

/// Blocking/dispatch knobs for the blocked TRSM.
struct TrsmBlocking {
  int kb;       ///< diagonal block size         (LUQR_TRSM_KB, default 64)
  int small_m;  ///< unblocked below this triangle dim
                ///<                              (LUQR_TRSM_SMALL_M, default 128)
};

/// The process-wide TRSM blocking configuration (env read once, cached).
const TrsmBlocking& trsm_blocking();

/// Dispatch predicate of trsm(). Depends on the triangle dimension only —
/// never on the RHS width — so a Left-side solve picks the same kernel for
/// one column or for many. Together with the blocked path's fixed inner GEMM
/// this keeps Left TRSM exactly a per-column operation at any width, the
/// invariance the wide-RHS solve path (core/factorization.cpp) relies on.
bool trsm_wants_blocked(int dim);

/// Workspace bytes one gemm_blocked(m, n, k) call allocates for its packed
/// A/B panels. The batched backend (core/batch) reserves a chunk's
/// high-water estimate up front via Workspace::reserve so every matrix in
/// the chunk reuses the same pack scratch without growing the arena.
template <typename T>
std::size_t gemm_pack_scratch_bytes(int m, int n, int k);

/// Where a triangular GEMM operand (TriOperand) holds data once op() is
/// applied: element (r, s) of op(X) is a structural nonzero iff s >= r
/// (upper) or s <= r (lower); `unit` makes the diagonal an implicit one.
struct OpTriangle {
  bool upper;
  bool unit;
};

/// The op() structure of an operand stored as `uplo`/`diag`, used as
/// op(X) with `trans`.
inline OpTriangle op_triangle(Uplo uplo, Diag diag, Trans trans) {
  return {(uplo == Uplo::Upper) == (trans == Trans::No), diag == Diag::Unit};
}

/// A half-open range of packed columns.
struct ColRange {
  int lo;
  int hi;
};

/// The packed columns of the KC block [p0, p0 + kc) in which op(A) rows
/// [r, r + mr) of a triangular op(A) hold any data — the only columns its
/// packer writes and the micro-kernel reads. Depends on the row panel, never
/// on B's or C's width.
inline ColRange tri_panel_cols(OpTriangle s, int r, int mr, int p0, int kc) {
  if (s.upper) return {std::clamp(r - p0, 0, kc), kc};
  return {0, std::clamp(r + mr - p0, 0, kc)};
}

/// Pack the [i0, i0+mc) x [p0, p0+kc) block of op(A) into MR-row panels at
/// dst (size >= round_up(mc, MR) * kc). op(A)(i, l) is a(i, l) or a(l, i).
/// With `tri`, op(A) is triangular: each panel writes only its
/// tri_panel_cols, reads only the triangle, and writes the zeros and the
/// unit diagonal itself.
template <typename T, int MR>
void pack_a_panel(Trans trans, int mc, int kc, ConstMatrixView<T> a, int i0,
                  int p0, T* dst, const OpTriangle* tri = nullptr);

/// Pack the [p0, p0+kc) x [j0, j0+nc) block of op(B), scaled by alpha, into
/// NR-column panels at dst (size >= kc * round_up(nc, NR)). With `tri`,
/// op(B) is triangular: only the triangle is read, and the packer writes
/// the zeros and alpha for a unit diagonal itself.
template <typename T, int NR>
void pack_b_panel(Trans trans, T alpha, int kc, int nc, ConstMatrixView<T> b,
                  int p0, int j0, T* dst, const OpTriangle* tri = nullptr);

}  // namespace luqr::kern

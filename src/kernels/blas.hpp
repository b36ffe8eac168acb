// Level-3 BLAS-style tile kernels (GEMM, TRSM) built from scratch.
//
// These are the workhorses of the LU step: the trailing update of variant A1
// is GEMM(alpha=-1, beta=1) and the panel eliminations are TRSMs. They follow
// the BLAS calling conventions (side/uplo/trans/diag enums, alpha/beta
// scaling) so the tiled algorithms read like their PLASMA counterparts.
//
// GEMM has two code paths: a packed, cache-blocked, register-tiled kernel
// (kernels/microkernel.hpp + kernels/pack.hpp) for products above a size
// threshold, and the seed's simple loops for small/edge tiles. gemm()
// dispatches on size (see pack.hpp for the blocking/threshold knobs), or
// runs the kernel its caller names; both paths are also exposed directly
// for the parity tests and the kernel bench.
//
// Definitions live in gemm.cpp / trsm.cpp with explicit instantiations for
// float and double.
#pragma once

#include "kernels/matrix_view.hpp"
#include "kernels/workspace.hpp"

namespace luqr::kern {

enum class Trans { No, Yes };
enum class Side { Left, Right };
enum class Uplo { Lower, Upper };
enum class Diag { NonUnit, Unit };

/// C <- alpha * op(A) * op(B) + beta * C.
/// op(A) is (m x k), op(B) is (k x n), C is (m x n).
/// Packing scratch comes from `ws` (the calling thread's arena when null).
template <typename T>
void gemm(Trans transa, Trans transb, T alpha, ConstMatrixView<T> a,
          ConstMatrixView<T> b, T beta, MatrixView<T> c,
          Workspace* ws = nullptr);

/// The two GEMM implementations: the seed's simple loops and the packed
/// cache-blocked kernel.
enum class GemmKernel { Unblocked, Blocked };

/// gemm() with the kernel fixed by the caller instead of chosen from this
/// product's own shape — for callers whose products vary in width only
/// (the compact-WY applies, the wide solve panel) and must run every column
/// through one kernel whatever the width. Both kernels compute each column
/// of C independently of the others, so a fixed choice makes the result
/// column-for-column identical at any width. Same footprint report,
/// profiler scope and fault site as gemm().
template <typename T>
void gemm(GemmKernel kernel, Trans transa, Trans transb, T alpha,
          ConstMatrixView<T> a, ConstMatrixView<T> b, T beta, MatrixView<T> c,
          Workspace* ws = nullptr);

/// One operand of a GEMM that is triangular or trapezoidal as stored: `side`
/// names it (Left: A, Right: B), `uplo` the trapezoid that holds its data,
/// and Diag::Unit an implicit unit diagonal. A Lower operand is at least as
/// tall as wide, an Upper one at most as tall as wide.
struct TriOperand {
  Side side;
  Uplo uplo;
  Diag diag;
};

/// The packed GEMM with one operand triangular (the compact-WY products:
/// V and T of the QR applies, V and T of GEQRT's T-factor coupling), at
/// every size. Only the operand's `uplo` trapezoid is read — the rest of
/// its storage may hold anything, and a unit diagonal is not read at all;
/// the packers write the zeros and ones themselves. Each MR-row micro-panel
/// of a triangular A runs the micro-kernel over only its structurally
/// nonzero columns, about half the flops of a square operand, and inside
/// the diagonal band a lane masks the columns outside its row instead of
/// adding 0 * b; so a NaN or Inf in B reaches only the rows of C whose
/// structural nonzeros of op(A) multiply it. A triangular B is masked in
/// its packed panels, not skipped. The skipped terms are exact zeros: on
/// finite input C equals gemm_blocked() on a densified copy bit for bit.
/// Each column of C is computed independently of the others. Same
/// footprint report, profiler scope and fault site as gemm().
template <typename T>
void gemm(TriOperand tri, Trans transa, Trans transb, T alpha,
          ConstMatrixView<T> a, ConstMatrixView<T> b, T beta, MatrixView<T> c,
          Workspace* ws = nullptr);

/// The packed cache-blocked path, unconditionally (exposed so tests can
/// exercise it at sizes the dispatcher would route to the simple loops).
template <typename T>
void gemm_blocked(Trans transa, Trans transb, T alpha, ConstMatrixView<T> a,
                  ConstMatrixView<T> b, T beta, MatrixView<T> c,
                  Workspace* ws = nullptr);

/// The simple axpy/dot loops, unconditionally (the small-tile path; also
/// the bench's baseline for the blocked kernel's speedup).
template <typename T>
void gemm_unblocked(Trans transa, Trans transb, T alpha, ConstMatrixView<T> a,
                    ConstMatrixView<T> b, T beta, MatrixView<T> c);

/// Triangular solve with multiple right-hand sides:
///   side == Left : solve op(A) * X = alpha * B, X overwrites B
///   side == Right: solve X * op(A) = alpha * B, X overwrites B
/// A is triangular (uplo selects the referenced triangle; diag == Unit means
/// an implicit unit diagonal — those entries are never read, so no redundant
/// divides and no sensitivity to whatever is stored there).
///
/// Like gemm, trsm() dispatches on size between a blocked path (unblocked
/// diagonal-block solves + packed GEMM updates) and the seed's simple loops
/// — but on the *triangle* dimension only, never the RHS width, so Left
/// solves stay exactly per-column operations at any width (see
/// trsm_wants_blocked in kernels/pack.hpp). Packing scratch comes from `ws`
/// (the calling thread's arena when null).
template <typename T>
void trsm(Side side, Uplo uplo, Trans trans, Diag diag, T alpha,
          ConstMatrixView<T> a, MatrixView<T> b, Workspace* ws = nullptr);

/// The blocked TRSM path, unconditionally (exposed for parity tests and the
/// panel bench).
template <typename T>
void trsm_blocked(Side side, Uplo uplo, Trans trans, Diag diag, T alpha,
                  ConstMatrixView<T> a, MatrixView<T> b,
                  Workspace* ws = nullptr);

/// The seed's simple substitution loops, unconditionally (small-triangle
/// path; also the bench's baseline for the blocked TRSM's speedup).
template <typename T>
void trsm_unblocked(Side side, Uplo uplo, Trans trans, Diag diag, T alpha,
                    ConstMatrixView<T> a, MatrixView<T> b);

/// B <- alpha * op(A) * B (side == Left) or alpha * B * op(A) (side == Right)
/// with A triangular. Used by the norm estimators, the small-tile loops of
/// unmqr and ttmqr, and tests.
template <typename T>
void trmm(Side side, Uplo uplo, Trans trans, Diag diag, T alpha,
          ConstMatrixView<T> a, MatrixView<T> b);

}  // namespace luqr::kern

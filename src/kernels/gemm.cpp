#include <algorithm>
#include <limits>

#include "fault/fault.hpp"
#include "kernels/access.hpp"
#include "kernels/blas.hpp"
#include "kernels/microkernel.hpp"
#include "kernels/pack.hpp"
#include "obs/kprof.hpp"

namespace luqr::kern {

namespace {

// Scale C by beta (handles beta == 0 without reading C, per BLAS semantics).
template <typename T>
void scale_c(T beta, const MatrixView<T>& c) {
  if (beta == T(1)) return;
  for (int j = 0; j < c.cols; ++j) {
    T* cj = &c(0, j);
    if (beta == T(0)) {
      for (int i = 0; i < c.rows; ++i) cj[i] = T(0);
    } else {
      for (int i = 0; i < c.rows; ++i) cj[i] *= beta;
    }
  }
}

// op(A)'s column count == the shared dimension k; also validates shapes.
template <typename T>
int checked_k(Trans transa, Trans transb, const ConstMatrixView<T>& a,
              const ConstMatrixView<T>& b, const MatrixView<T>& c) {
  const int opa_rows = transa == Trans::No ? a.rows : a.cols;
  const int opa_cols = transa == Trans::No ? a.cols : a.rows;
  const int opb_rows = transb == Trans::No ? b.rows : b.cols;
  const int opb_cols = transb == Trans::No ? b.cols : b.rows;
  LUQR_REQUIRE(opa_rows == c.rows && opb_cols == c.cols && opa_cols == opb_rows,
               "gemm dimension mismatch");
  return opa_cols;
}

// C += alpha * A * B with A (m x k), B (k x n), both untransposed.
// Column-major axpy form: C(:,j) += (alpha*B(l,j)) * A(:,l). No value-based
// short-circuit on B(l,j) == 0: skipping the axpy would drop a NaN/Inf
// carried by A (0 * NaN must propagate, as in BLAS).
template <typename T>
void gemm_nn(T alpha, const ConstMatrixView<T>& a, const ConstMatrixView<T>& b,
             const MatrixView<T>& c) {
  const int m = c.rows, n = c.cols, k = a.cols;
  for (int j = 0; j < n; ++j) {
    T* cj = &c(0, j);
    for (int l = 0; l < k; ++l) {
      const T blj = alpha * b(l, j);
      const T* al = &a(0, l);
      for (int i = 0; i < m; ++i) cj[i] += al[i] * blj;
    }
  }
}

// C += alpha * A^T * B: dot-product form, A (k x m), B (k x n).
template <typename T>
void gemm_tn(T alpha, const ConstMatrixView<T>& a, const ConstMatrixView<T>& b,
             const MatrixView<T>& c) {
  const int m = c.rows, n = c.cols, k = a.rows;
  for (int j = 0; j < n; ++j) {
    const T* bj = &b(0, j);
    for (int i = 0; i < m; ++i) {
      const T* ai = &a(0, i);
      T acc = T(0);
      for (int l = 0; l < k; ++l) acc += ai[l] * bj[l];
      c(i, j) += alpha * acc;
    }
  }
}

// C += alpha * A * B^T: axpy form over columns of C, A (m x k), B (n x k).
template <typename T>
void gemm_nt(T alpha, const ConstMatrixView<T>& a, const ConstMatrixView<T>& b,
             const MatrixView<T>& c) {
  const int m = c.rows, n = c.cols, k = a.cols;
  for (int j = 0; j < n; ++j) {
    T* cj = &c(0, j);
    for (int l = 0; l < k; ++l) {
      const T blj = alpha * b(j, l);
      const T* al = &a(0, l);
      for (int i = 0; i < m; ++i) cj[i] += al[i] * blj;
    }
  }
}

// C += alpha * A^T * B^T, A (k x m), B (n x k).
template <typename T>
void gemm_tt(T alpha, const ConstMatrixView<T>& a, const ConstMatrixView<T>& b,
             const MatrixView<T>& c) {
  const int m = c.rows, n = c.cols, k = a.rows;
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < m; ++i) {
      const T* ai = &a(0, i);
      T acc = T(0);
      for (int l = 0; l < k; ++l) acc += ai[l] * b(j, l);
      c(i, j) += alpha * acc;
    }
  }
}

// The structure of op(A) in a packed block product.
enum PanelKind { kDense, kUpper, kLower };

// The macro-kernel: every MR x NR micro-tile of one packed (mc x kc) x
// (kc x nc) block product, added into C at c (leading dimension ldc). For
// a triangular op(A) (rows from i0, packed columns from p0) each micro-panel
// runs only its tri_panel_cols, and skips a KC block that holds none.
template <typename T, PanelKind kKind>
void macro_kernel(int mc, int nc, int kc, int i0, int p0, const T* apack,
                  const T* bpack, T* c, int ldc) {
  constexpr int MR = MicroTile<T>::MR;
  constexpr int NR = MicroTile<T>::NR;
  alignas(kCacheLineBytes) T ctmp[MR * NR];
  for (int jr = 0; jr < nc; jr += NR) {
    const int nr = std::min(NR, nc - jr);
    const T* bp = bpack + static_cast<std::ptrdiff_t>(jr) * kc;
    for (int ir = 0; ir < mc; ir += MR) {
      const int mr = std::min(MR, mc - ir);
      const T* ap = apack + static_cast<std::ptrdiff_t>(ir) * kc;
      ColRange cols{0, kc};
      if constexpr (kKind != kDense) {
        cols = tri_panel_cols({kKind == kUpper, false}, i0 + ir, mr, p0, kc);
        if (cols.lo >= cols.hi) continue;
      }
      const auto run = [&](T* dst, int ld) {
        if constexpr (kKind == kDense) {
          microkernel<T>(kc, ap, bp, dst, ld);
        } else {
          microkernel_tri<T, kKind == kUpper>(cols.lo, cols.hi, i0 + ir - p0,
                                              ap, bp, dst, ld);
        }
      };
      T* cblk = c + ir + static_cast<std::ptrdiff_t>(jr) * ldc;
      if (mr == MR && nr == NR) {
        run(cblk, ldc);
      } else {
        // Edge micro-tile: run full-width into a scratch tile, write back
        // only the live mr x nr corner (same summation order as the aligned
        // path: zero-init accumulate, then one add to C).
        for (int i = 0; i < MR * NR; ++i) ctmp[i] = T(0);
        run(ctmp, MR);
        for (int j = 0; j < nr; ++j)
          for (int i = 0; i < mr; ++i)
            cblk[i + static_cast<std::ptrdiff_t>(j) * ldc] += ctmp[i + j * MR];
      }
    }
  }
}

// The packed GEMM (gemm_blocked), optionally with one triangular operand.
// A triangular A packs and runs each MR-row micro-panel over its
// tri_panel_cols only, through microkernel_tri; a triangular B is masked
// in its packed panels.
template <typename T>
void gemm_packed(const TriOperand* tri, Trans transa, Trans transb, T alpha,
                 const ConstMatrixView<T>& a, const ConstMatrixView<T>& b,
                 T beta, const MatrixView<T>& c, Workspace* wsp) {
  constexpr int MR = MicroTile<T>::MR;
  constexpr int NR = MicroTile<T>::NR;
  const int m = c.rows, n = c.cols;
  const int k = checked_k(transa, transb, a, b, c);
  scale_c(beta, c);
  if (alpha == T(0) || m == 0 || n == 0 || k == 0) return;

  const bool tri_a = tri && tri->side == Side::Left;
  const OpTriangle s =
      tri ? op_triangle(tri->uplo, tri->diag, tri_a ? transa : transb)
          : OpTriangle{};
  const OpTriangle* sa = tri_a ? &s : nullptr;
  const OpTriangle* sb = tri && !tri_a ? &s : nullptr;

  const GemmBlocking& bl = gemm_blocking();
  Workspace& ws = workspace_or_tls(wsp);
  Workspace::Frame frame(ws);
  // Panel buffers sized to the smaller of the blocking limit and the actual
  // problem, rounded up to whole micro-panels.
  const int mc_cap = std::min((m + MR - 1) / MR * MR, (bl.mc + MR - 1) / MR * MR);
  const int nc_cap = std::min((n + NR - 1) / NR * NR, (bl.nc + NR - 1) / NR * NR);
  const int kc_cap = std::min(k, bl.kc);
  T* apack = ws.alloc<T>(static_cast<std::size_t>(mc_cap) * kc_cap);
  T* bpack = ws.alloc<T>(static_cast<std::size_t>(kc_cap) * nc_cap);

  for (int jc = 0; jc < n; jc += bl.nc) {
    const int nc = std::min(bl.nc, n - jc);
    for (int pc = 0; pc < k; pc += bl.kc) {
      const int kc = std::min(bl.kc, k - pc);
      pack_b_panel<T, NR>(transb, alpha, kc, nc, b, pc, jc, bpack, sb);
      for (int ic = 0; ic < m; ic += bl.mc) {
        const int mc = std::min(bl.mc, m - ic);
        pack_a_panel<T, MR>(transa, mc, kc, a, ic, pc, apack, sa);
        T* cblk = &c(ic, jc);
        if (!tri_a) {
          macro_kernel<T, kDense>(mc, nc, kc, ic, pc, apack, bpack, cblk, c.ld);
        } else if (s.upper) {
          macro_kernel<T, kUpper>(mc, nc, kc, ic, pc, apack, bpack, cblk, c.ld);
        } else {
          macro_kernel<T, kLower>(mc, nc, kc, ic, pc, apack, bpack, cblk, c.ld);
        }
      }
    }
  }
}

// gemm()'s wrapper around every product: the audited-task footprint report
// (a no-op without an installed listener), the profiler scope and the
// kGemmNan fault site.
template <typename T, typename Body>
void gemm_entry(const ConstMatrixView<T>& a, const ConstMatrixView<T>& b,
                const MatrixView<T>& c, int k, Body&& body) {
  note_read(a);
  note_read(b);
  note_write(c);
  obs::KernelScope prof(obs::KernelClass::Gemm,
                        obs::gemm_model_flops(c.rows, c.cols, k));
  body();
  // Fault site: poison one output element with a quiet NaN — downstream
  // layers must detect the non-finite result, never cache it, and recover.
  if (fault::should_fire(fault::site::kGemmNan) && c.rows > 0 && c.cols > 0)
    c(0, 0) = std::numeric_limits<T>::quiet_NaN();
}

}  // namespace

template <typename T>
void gemm_unblocked(Trans transa, Trans transb, T alpha, ConstMatrixView<T> a,
                    ConstMatrixView<T> b, T beta, MatrixView<T> c) {
  const int k = checked_k(transa, transb, a, b, c);
  scale_c(beta, c);
  if (alpha == T(0) || c.rows == 0 || c.cols == 0 || k == 0) return;
  if (transa == Trans::No && transb == Trans::No) {
    gemm_nn(alpha, a, b, c);
  } else if (transa == Trans::Yes && transb == Trans::No) {
    gemm_tn(alpha, a, b, c);
  } else if (transa == Trans::No && transb == Trans::Yes) {
    gemm_nt(alpha, a, b, c);
  } else {
    gemm_tt(alpha, a, b, c);
  }
}

template <typename T>
void gemm_blocked(Trans transa, Trans transb, T alpha, ConstMatrixView<T> a,
                  ConstMatrixView<T> b, T beta, MatrixView<T> c,
                  Workspace* wsp) {
  gemm_packed<T>(nullptr, transa, transb, alpha, a, b, beta, c, wsp);
}

template <typename T>
void gemm(GemmKernel kernel, Trans transa, Trans transb, T alpha,
          ConstMatrixView<T> a, ConstMatrixView<T> b, T beta, MatrixView<T> c,
          Workspace* ws) {
  const int k = transa == Trans::No ? a.cols : a.rows;
  gemm_entry(a, b, c, k, [&] {
    if (kernel == GemmKernel::Blocked) {
      gemm_blocked(transa, transb, alpha, a, b, beta, c, ws);
    } else {
      gemm_unblocked(transa, transb, alpha, a, b, beta, c);
    }
  });
}

template <typename T>
void gemm(TriOperand tri, Trans transa, Trans transb, T alpha,
          ConstMatrixView<T> a, ConstMatrixView<T> b, T beta, MatrixView<T> c,
          Workspace* ws) {
  const ConstMatrixView<T>& x = tri.side == Side::Left ? a : b;
  LUQR_REQUIRE(tri.uplo == Uplo::Lower ? x.rows >= x.cols : x.rows <= x.cols,
               "gemm: a triangular operand must be a lower trapezoid at least "
               "as tall as wide or an upper one at most as tall as wide");
  const int k = checked_k(transa, transb, a, b, c);
  gemm_entry(a, b, c, k, [&] {
    gemm_packed(&tri, transa, transb, alpha, a, b, beta, c, ws);
  });
}

template <typename T>
void gemm(Trans transa, Trans transb, T alpha, ConstMatrixView<T> a,
          ConstMatrixView<T> b, T beta, MatrixView<T> c, Workspace* ws) {
  const int k = transa == Trans::No ? a.cols : a.rows;
  gemm(gemm_kernel_for(c.rows, c.cols, k), transa, transb, alpha, a, b, beta,
       c, ws);
}

template <typename T>
std::size_t gemm_pack_scratch_bytes(int m, int n, int k) {
  if (m <= 0 || n <= 0 || k <= 0) return 0;
  constexpr int MR = MicroTile<T>::MR;
  constexpr int NR = MicroTile<T>::NR;
  const GemmBlocking& bl = gemm_blocking();
  // Mirror of gemm_blocked's apack/bpack sizing; each alloc() rounds up to a
  // cache line independently, so account for both round-ups.
  const int mc_cap =
      std::min((m + MR - 1) / MR * MR, (bl.mc + MR - 1) / MR * MR);
  const int nc_cap =
      std::min((n + NR - 1) / NR * NR, (bl.nc + NR - 1) / NR * NR);
  const int kc_cap = std::min(k, bl.kc);
  const std::size_t a_bytes =
      static_cast<std::size_t>(mc_cap) * kc_cap * sizeof(T);
  const std::size_t b_bytes =
      static_cast<std::size_t>(kc_cap) * nc_cap * sizeof(T);
  return align_up(a_bytes, kCacheLineBytes) + align_up(b_bytes, kCacheLineBytes);
}

#define LUQR_INST(T)                                                          \
  template std::size_t gemm_pack_scratch_bytes<T>(int, int, int);             \
  template void gemm<T>(Trans, Trans, T, ConstMatrixView<T>,                  \
                        ConstMatrixView<T>, T, MatrixView<T>, Workspace*);    \
  template void gemm<T>(GemmKernel, Trans, Trans, T, ConstMatrixView<T>,      \
                        ConstMatrixView<T>, T, MatrixView<T>, Workspace*);    \
  template void gemm<T>(TriOperand, Trans, Trans, T, ConstMatrixView<T>,      \
                        ConstMatrixView<T>, T, MatrixView<T>, Workspace*);    \
  template void gemm_blocked<T>(Trans, Trans, T, ConstMatrixView<T>,          \
                                ConstMatrixView<T>, T, MatrixView<T>,         \
                                Workspace*);                                  \
  template void gemm_unblocked<T>(Trans, Trans, T, ConstMatrixView<T>,        \
                                  ConstMatrixView<T>, T, MatrixView<T>);
LUQR_INST(double)
LUQR_INST(float)
#undef LUQR_INST

}  // namespace luqr::kern

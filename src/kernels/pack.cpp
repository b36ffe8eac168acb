#include "kernels/pack.hpp"

#include <algorithm>

#include "common/env.hpp"
#include "kernels/microkernel.hpp"

namespace luqr::kern {

const GemmBlocking& gemm_blocking() {
  static const GemmBlocking blocking = [] {
    GemmBlocking b;
    b.mc = static_cast<int>(env_long("LUQR_GEMM_MC", 256));
    b.kc = static_cast<int>(env_long("LUQR_GEMM_KC", 256));
    b.nc = static_cast<int>(env_long("LUQR_GEMM_NC", 2048));
    b.small_mnk = env_long("LUQR_GEMM_SMALL_MNK", 8192);
    LUQR_REQUIRE(b.mc > 0 && b.kc > 0 && b.nc > 0,
                 "LUQR_GEMM_MC/KC/NC must be positive");
    return b;
  }();
  return blocking;
}

bool gemm_wants_blocked(int m, int n, int k) {
  return static_cast<long long>(m) * n * k >=
         static_cast<long long>(gemm_blocking().small_mnk);
}

GemmKernel gemm_kernel_for(int m, int n, int k) {
  return gemm_wants_blocked(m, n, k) ? GemmKernel::Blocked
                                     : GemmKernel::Unblocked;
}

const PanelBlocking& panel_blocking() {
  static const PanelBlocking blocking = [] {
    PanelBlocking b;
    b.jb = static_cast<int>(env_long("LUQR_PANEL_JB", 32));
    b.small_n = static_cast<int>(env_long("LUQR_PANEL_SMALL_N", 64));
    LUQR_REQUIRE(b.jb > 0 && b.small_n > 0,
                 "LUQR_PANEL_JB/SMALL_N must be positive");
    return b;
  }();
  return blocking;
}

bool panel_wants_blocked(int m, int n) {
  const PanelBlocking& b = panel_blocking();
  // Blocking pays once there is more than one block step; m only has to be
  // large enough for the panel/GEMM split to exist at all.
  return n >= b.small_n && n > b.jb && m > b.jb;
}

const TrsmBlocking& trsm_blocking() {
  static const TrsmBlocking blocking = [] {
    TrsmBlocking b;
    b.kb = static_cast<int>(env_long("LUQR_TRSM_KB", 64));
    b.small_m = static_cast<int>(env_long("LUQR_TRSM_SMALL_M", 128));
    LUQR_REQUIRE(b.kb > 0 && b.small_m > 0,
                 "LUQR_TRSM_KB/SMALL_M must be positive");
    return b;
  }();
  return blocking;
}

bool trsm_wants_blocked(int dim) {
  const TrsmBlocking& b = trsm_blocking();
  return dim >= b.small_m && dim > b.kb;
}

template <typename T, int MR>
void pack_a_panel(Trans trans, int mc, int kc, ConstMatrixView<T> a, int i0,
                  int p0, T* dst, const OpTriangle* tri) {
  // A unit diagonal is written as one, never read: it leaves the copy range.
  const int unit = tri && tri->unit ? 1 : 0;
  for (int ir = 0; ir < mc; ir += MR) {
    const int mr = std::min(MR, mc - ir);
    const int r = i0 + ir;  // op(A) row of the panel's first lane
    const ColRange cols = tri ? tri_panel_cols(*tri, r, mr, p0, kc)
                              : ColRange{0, kc};
    if (trans == Trans::No) {
      // Panel rows are a column segment of A: contiguous reads.
      for (int l = cols.lo; l < cols.hi; ++l) {
        const T* col = &a(r, p0 + l);
        T* d = dst + static_cast<std::ptrdiff_t>(l) * MR;
        const int dg = p0 + l - r;  // the lane on column p0 + l's diagonal
        int lo = 0, hi = mr;        // the lanes holding data
        if (tri && tri->upper) hi = std::clamp(dg + 1 - unit, 0, mr);
        if (tri && !tri->upper) lo = std::clamp(dg + unit, 0, mr);
        for (int i = 0; i < lo; ++i) d[i] = T(0);
        for (int i = lo; i < hi; ++i) d[i] = col[i];
        for (int i = hi; i < MR; ++i) d[i] = T(0);
        if (unit && dg >= 0 && dg < mr) d[dg] = T(1);
      }
    } else {
      // op(A) = A^T: panel row i is a column of A, read contiguously over l.
      for (int i = 0; i < mr; ++i) {
        const T* col = &a(p0, r + i);
        T* d = dst + i;
        const int dg = r + i - p0;  // the packed column on lane i's diagonal
        int lo = cols.lo, hi = cols.hi;
        if (tri && tri->upper) lo = std::clamp(dg + unit, cols.lo, cols.hi);
        if (tri && !tri->upper) hi = std::clamp(dg + 1 - unit, cols.lo, cols.hi);
        for (int l = cols.lo; l < lo; ++l) d[static_cast<std::ptrdiff_t>(l) * MR] = T(0);
        for (int l = lo; l < hi; ++l) d[static_cast<std::ptrdiff_t>(l) * MR] = col[l];
        for (int l = hi; l < cols.hi; ++l) d[static_cast<std::ptrdiff_t>(l) * MR] = T(0);
        if (unit && dg >= cols.lo && dg < cols.hi)
          d[static_cast<std::ptrdiff_t>(dg) * MR] = T(1);
      }
      for (int i = mr; i < MR; ++i) {
        T* d = dst + i;
        for (int l = cols.lo; l < cols.hi; ++l) d[static_cast<std::ptrdiff_t>(l) * MR] = T(0);
      }
    }
    dst += static_cast<std::ptrdiff_t>(MR) * kc;
  }
}

template <typename T, int NR>
void pack_b_panel(Trans trans, T alpha, int kc, int nc, ConstMatrixView<T> b,
                  int p0, int j0, T* dst, const OpTriangle* tri) {
  // A unit diagonal packs as alpha * 1, never read: it leaves the copy range.
  const int unit = tri && tri->unit ? 1 : 0;
  for (int jr = 0; jr < nc; jr += NR) {
    const int nr = std::min(NR, nc - jr);
    const int c0 = j0 + jr;  // op(B) column of the panel's first lane
    if (trans == Trans::No) {
      // Panel column j is a column segment of B: contiguous reads over l.
      for (int j = 0; j < nr; ++j) {
        const T* col = &b(p0, c0 + j);
        T* d = dst + j;
        const int dg = c0 + j - p0;  // the packed row on column j's diagonal
        int lo = 0, hi = kc;         // the packed rows holding data
        if (tri && tri->upper) hi = std::clamp(dg + 1 - unit, 0, kc);
        if (tri && !tri->upper) lo = std::clamp(dg + unit, 0, kc);
        for (int l = 0; l < lo; ++l) d[static_cast<std::ptrdiff_t>(l) * NR] = T(0);
        for (int l = lo; l < hi; ++l) d[static_cast<std::ptrdiff_t>(l) * NR] = alpha * col[l];
        for (int l = hi; l < kc; ++l) d[static_cast<std::ptrdiff_t>(l) * NR] = T(0);
        if (unit && dg >= 0 && dg < kc) d[static_cast<std::ptrdiff_t>(dg) * NR] = alpha;
      }
      for (int j = nr; j < NR; ++j) {
        T* d = dst + j;
        for (int l = 0; l < kc; ++l) d[static_cast<std::ptrdiff_t>(l) * NR] = T(0);
      }
    } else {
      // op(B) = B^T: panel row l is a column of B, contiguous over j.
      for (int l = 0; l < kc; ++l) {
        const T* col = &b(c0, p0 + l);
        T* d = dst + static_cast<std::ptrdiff_t>(l) * NR;
        const int dg = p0 + l - c0;  // the lane on packed row l's diagonal
        int lo = 0, hi = nr;
        if (tri && tri->upper) lo = std::clamp(dg + unit, 0, nr);
        if (tri && !tri->upper) hi = std::clamp(dg + 1 - unit, 0, nr);
        for (int j = 0; j < lo; ++j) d[j] = T(0);
        for (int j = lo; j < hi; ++j) d[j] = alpha * col[j];
        for (int j = hi; j < NR; ++j) d[j] = T(0);
        if (unit && dg >= 0 && dg < nr) d[dg] = alpha;
      }
    }
    dst += static_cast<std::ptrdiff_t>(NR) * kc;
  }
}

#define LUQR_INST(T)                                                        \
  template void pack_a_panel<T, MicroTile<T>::MR>(                         \
      Trans, int, int, ConstMatrixView<T>, int, int, T*, const OpTriangle*); \
  template void pack_b_panel<T, MicroTile<T>::NR>(                         \
      Trans, T, int, int, ConstMatrixView<T>, int, int, T*, const OpTriangle*);
LUQR_INST(double)
LUQR_INST(float)
#undef LUQR_INST

}  // namespace luqr::kern

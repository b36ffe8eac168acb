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
                  int p0, T* dst) {
  for (int ir = 0; ir < mc; ir += MR) {
    const int mr = std::min(MR, mc - ir);
    if (trans == Trans::No) {
      // Panel rows are a column segment of A: contiguous reads.
      for (int l = 0; l < kc; ++l) {
        const T* col = &a(i0 + ir, p0 + l);
        T* d = dst + static_cast<std::ptrdiff_t>(l) * MR;
        for (int i = 0; i < mr; ++i) d[i] = col[i];
        for (int i = mr; i < MR; ++i) d[i] = T(0);
      }
    } else {
      // op(A) = A^T: panel row i is a column of A, read contiguously over l.
      for (int i = 0; i < mr; ++i) {
        const T* col = &a(p0, i0 + ir + i);
        T* d = dst + i;
        for (int l = 0; l < kc; ++l) d[static_cast<std::ptrdiff_t>(l) * MR] = col[l];
      }
      for (int i = mr; i < MR; ++i) {
        T* d = dst + i;
        for (int l = 0; l < kc; ++l) d[static_cast<std::ptrdiff_t>(l) * MR] = T(0);
      }
    }
    dst += static_cast<std::ptrdiff_t>(MR) * kc;
  }
}

template <typename T, int NR>
void pack_b_panel(Trans trans, T alpha, int kc, int nc, ConstMatrixView<T> b,
                  int p0, int j0, T* dst) {
  for (int jr = 0; jr < nc; jr += NR) {
    const int nr = std::min(NR, nc - jr);
    if (trans == Trans::No) {
      // Panel column j is a column segment of B: contiguous reads over l.
      for (int j = 0; j < nr; ++j) {
        const T* col = &b(p0, j0 + jr + j);
        T* d = dst + j;
        for (int l = 0; l < kc; ++l) d[static_cast<std::ptrdiff_t>(l) * NR] = alpha * col[l];
      }
      for (int j = nr; j < NR; ++j) {
        T* d = dst + j;
        for (int l = 0; l < kc; ++l) d[static_cast<std::ptrdiff_t>(l) * NR] = T(0);
      }
    } else {
      // op(B) = B^T: panel row l is a column of B, contiguous over j.
      for (int l = 0; l < kc; ++l) {
        const T* col = &b(j0 + jr, p0 + l);
        T* d = dst + static_cast<std::ptrdiff_t>(l) * NR;
        for (int j = 0; j < nr; ++j) d[j] = alpha * col[j];
        for (int j = nr; j < NR; ++j) d[j] = T(0);
      }
    }
    dst += static_cast<std::ptrdiff_t>(NR) * kc;
  }
}

#define LUQR_INST(T)                                                        \
  template void pack_a_panel<T, MicroTile<T>::MR>(Trans, int, int,          \
                                                  ConstMatrixView<T>, int,  \
                                                  int, T*);                 \
  template void pack_b_panel<T, MicroTile<T>::NR>(Trans, T, int, int,       \
                                                  ConstMatrixView<T>, int,  \
                                                  int, T*);
LUQR_INST(double)
LUQR_INST(float)
#undef LUQR_INST

}  // namespace luqr::kern

// Register-tiled GEMM micro-kernel (the BLIS-style inner kernel).
//
// One call computes C(MR x NR) += Ap * Bp where Ap is an MR x kc panel in
// packed row-major-by-MR layout and Bp a kc x NR panel in packed
// column-major-by-NR layout (see kernels/pack.hpp). The MR x NR accumulator
// tile lives entirely in vector registers across the kc loop, so the inner
// loop runs MR*NR FMAs per MR+NR loads and zero stores — the difference
// between the seed's axpy loops (1 FMA per load+load+store) and machine
// peak.
//
// The vector width adapts to whatever ISA this translation unit is compiled
// for (__AVX512F__ / __AVX__ / baseline), which is why this header must only
// be included from kernel TUs that share one set of arch flags (gemm.cpp and
// pack.cpp, both built with LUQR_KERNEL_NATIVE's flags): MicroTile<T>::MR
// feeds the packed layout, so packer and micro-kernel must agree.
//
// Determinism: for a fixed element C(i, j), the accumulator sums
// a(i, l) * b(l, j) over l in increasing order regardless of MR/NR or vector
// width, and the partial sum is added to C once per KC block. Results
// therefore depend only on KC (and the compiler's FMA contraction choice,
// fixed per build) — never on thread count or on which worker ran the tile.
#pragma once

#include <algorithm>
#include <cstddef>

namespace luqr::kern {

namespace micro {

#if defined(__AVX512F__)
inline constexpr int kVecBytes = 64;
#elif defined(__AVX__)
inline constexpr int kVecBytes = 32;
#else
inline constexpr int kVecBytes = 16;
#endif

}  // namespace micro

/// Micro-tile geometry for element type T: MR rows (two hardware vectors)
/// by NR columns of C held in registers.
template <typename T>
struct MicroTile {
  static constexpr int kLanes = micro::kVecBytes / static_cast<int>(sizeof(T));
  static constexpr int kVecs = 2;              // row vectors per micro-tile
  static constexpr int MR = kVecs * kLanes;    // micro-tile rows
  static constexpr int NR = 6;                 // micro-tile cols
};

#if defined(__GNUC__) || defined(__clang__)

// Hardware vector of T filling kVecBytes. Explicit specializations keep the
// vector_size attribute off dependent types (clang only accepts it there in
// recent versions).
template <typename T>
struct VecOf;
template <>
struct VecOf<double> {
  typedef double type __attribute__((vector_size(micro::kVecBytes)));
};
template <>
struct VecOf<float> {
  typedef float type __attribute__((vector_size(micro::kVecBytes)));
};

/// C(MR x NR) += Ap(MR x kc, packed) * Bp(kc x NR, packed); C column-major
/// with leading dimension ldc. Ap must be aligned to the vector width
/// (packed panels come from the Workspace arena, which over-aligns to 64).
template <typename T>
inline void microkernel(int kc, const T* __restrict__ ap,
                        const T* __restrict__ bp, T* __restrict__ c, int ldc) {
  constexpr int W = MicroTile<T>::kLanes;
  constexpr int NV = MicroTile<T>::kVecs;
  constexpr int NR = MicroTile<T>::NR;
  typedef typename VecOf<T>::type vec;
  vec acc[NV][NR];
  for (int v = 0; v < NV; ++v)
    for (int j = 0; j < NR; ++j) acc[v][j] = vec{};
  const vec* a = reinterpret_cast<const vec*>(ap);
  for (int l = 0; l < kc; ++l) {
    const T* b = bp + static_cast<std::ptrdiff_t>(l) * NR;
#pragma GCC unroll 8
    for (int j = 0; j < NR; ++j) {
      const vec bj = b[j] - vec{};  // broadcast
#pragma GCC unroll 4
      for (int v = 0; v < NV; ++v) acc[v][j] += a[l * NV + v] * bj;
    }
  }
  for (int j = 0; j < NR; ++j) {
    T* cj = c + static_cast<std::ptrdiff_t>(j) * ldc;
    for (int v = 0; v < NV; ++v)
      for (int i = 0; i < W; ++i) cj[v * W + i] += acc[v][j][i];
  }
}

// Signed integer vector with the lanes of VecOf<T>: the lane masks of
// microkernel_tri.
template <typename T>
struct LaneIndexOf;
template <>
struct LaneIndexOf<double> {
  typedef long long lane;
  typedef lane type __attribute__((vector_size(micro::kVecBytes)));
};
template <>
struct LaneIndexOf<float> {
  typedef int lane;
  typedef lane type __attribute__((vector_size(micro::kVecBytes)));
};

/// microkernel() over the data of a triangular op(A) micro-panel: lane i
/// of Ap holds data in packed column l iff l >= d + i (kUpper) or
/// l <= d + i (lower), where d is the panel's diagonal offset. Only packed
/// columns [lo, hi) run (tri_panel_cols in kernels/pack.hpp: those where
/// some lane holds data). In the diagonal band, where only some lanes do,
/// the others keep their accumulators instead of adding 0 * b. Every term
/// that runs is the same step, in the same order, as in microkernel(), and
/// every term skipped is an exact zero, so on finite B the result equals
/// microkernel() over the whole zero-filled panel bit for bit, while a NaN
/// or Inf in B reaches only the lanes whose data multiplies it.
template <typename T, bool kUpper>
inline void microkernel_tri(int lo, int hi, int d, const T* __restrict__ ap,
                            const T* __restrict__ bp, T* __restrict__ c,
                            int ldc) {
  constexpr int W = MicroTile<T>::kLanes;
  constexpr int NV = MicroTile<T>::kVecs;
  constexpr int NR = MicroTile<T>::NR;
  constexpr int MR = MicroTile<T>::MR;
  typedef typename VecOf<T>::type vec;
  typedef typename LaneIndexOf<T>::type ivec;
  typedef typename LaneIndexOf<T>::lane lane_t;
  vec acc[NV][NR];
  for (int v = 0; v < NV; ++v)
    for (int j = 0; j < NR; ++j) acc[v][j] = vec{};
  ivec lane[NV];
  for (int v = 0; v < NV; ++v)
    for (int i = 0; i < W; ++i) lane[v][i] = static_cast<lane_t>(v * W + i);
  const vec* a = reinterpret_cast<const vec*>(ap);
  // The columns where every lane holds data: l >= d + MR - 1 (upper),
  // l <= d (lower); the band is the rest of [lo, hi).
  const int full_lo = kUpper ? std::clamp(d + MR - 1, lo, hi) : lo;
  const int full_hi = kUpper ? hi : std::clamp(d + 1, lo, hi);
  const auto full = [&](int l0, int l1) {
    for (int l = l0; l < l1; ++l) {
      const T* b = bp + static_cast<std::ptrdiff_t>(l) * NR;
#pragma GCC unroll 8
      for (int j = 0; j < NR; ++j) {
        const vec bj = b[j] - vec{};  // broadcast
#pragma GCC unroll 4
        for (int v = 0; v < NV; ++v) acc[v][j] += a[l * NV + v] * bj;
      }
    }
  };
  const auto band = [&](int l0, int l1) {
    for (int l = l0; l < l1; ++l) {
      const T* b = bp + static_cast<std::ptrdiff_t>(l) * NR;
      const ivec s = ivec{} + static_cast<lane_t>(l - d);
#pragma GCC unroll 8
      for (int j = 0; j < NR; ++j) {
        const vec bj = b[j] - vec{};  // broadcast
#pragma GCC unroll 4
        for (int v = 0; v < NV; ++v) {
          const vec t = acc[v][j] + a[l * NV + v] * bj;
          if constexpr (kUpper) {
            acc[v][j] = lane[v] <= s ? t : acc[v][j];
          } else {
            acc[v][j] = lane[v] >= s ? t : acc[v][j];
          }
        }
      }
    }
  };
  if constexpr (kUpper) {
    band(lo, full_lo);
    full(full_lo, hi);
  } else {
    full(lo, full_hi);
    band(full_hi, hi);
  }
  for (int j = 0; j < NR; ++j) {
    T* cj = c + static_cast<std::ptrdiff_t>(j) * ldc;
    for (int v = 0; v < NV; ++v)
      for (int i = 0; i < W; ++i) cj[v * W + i] += acc[v][j][i];
  }
}

#else  // portable fallback (MSVC, others): plain accumulator tile

template <typename T>
inline void microkernel(int kc, const T* ap, const T* bp, T* c, int ldc) {
  constexpr int MR = MicroTile<T>::MR;
  constexpr int NR = MicroTile<T>::NR;
  T acc[NR][MR] = {};
  for (int l = 0; l < kc; ++l) {
    const T* a = ap + static_cast<std::ptrdiff_t>(l) * MR;
    const T* b = bp + static_cast<std::ptrdiff_t>(l) * NR;
    for (int j = 0; j < NR; ++j)
      for (int i = 0; i < MR; ++i) acc[j][i] += a[i] * b[j];
  }
  for (int j = 0; j < NR; ++j) {
    T* cj = c + static_cast<std::ptrdiff_t>(j) * ldc;
    for (int i = 0; i < MR; ++i) cj[i] += acc[j][i];
  }
}

template <typename T, bool kUpper>
inline void microkernel_tri(int lo, int hi, int d, const T* ap, const T* bp,
                            T* c, int ldc) {
  constexpr int MR = MicroTile<T>::MR;
  constexpr int NR = MicroTile<T>::NR;
  T acc[NR][MR] = {};
  for (int l = lo; l < hi; ++l) {
    const T* a = ap + static_cast<std::ptrdiff_t>(l) * MR;
    const T* b = bp + static_cast<std::ptrdiff_t>(l) * NR;
    for (int j = 0; j < NR; ++j)
      for (int i = 0; i < MR; ++i)
        if (kUpper ? l >= d + i : l <= d + i) acc[j][i] += a[i] * b[j];
  }
  for (int j = 0; j < NR; ++j) {
    T* cj = c + static_cast<std::ptrdiff_t>(j) * ldc;
    for (int i = 0; i < MR; ++i) cj[i] += acc[j][i];
  }
}

#endif

}  // namespace luqr::kern

// Always-on per-kernel-class profiler.
//
// Each kernel dispatch entry point (the same ones kernels/access.hpp
// instruments with note_read/note_write) opens a KernelScope that records
// wall time, call count, and model flops into per-class registry counters:
//
//   luqr_kernel_time_ns_total{class="gemm"}
//   luqr_kernel_calls_total{class="gemm"}
//   luqr_kernel_flops_total{class="gemm"}
//
// Cost per instrumented call: two steady_clock reads plus three relaxed
// sharded fetch_adds — cheap enough to default-on (the CI perf floors run
// with it enabled).  Set LUQR_KPROF=0 to disable, leaving only a
// thread-local load + branch.
//
// Composite kernels (gessm, ssssm, tsmqr, unmqr, ...) invoke gemm/trsm/trmm
// internally; a thread-local depth flag suppresses nested scopes so time is
// attributed to the *outermost* kernel class only and the per-class sum
// approximates total compute time instead of double-counting.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>

#include "obs/metrics.hpp"

namespace luqr {
namespace obs {

enum class KernelClass : int {
  Gemm = 0,
  Trsm,
  Trmm,
  Getrf,
  Laswp,
  Gessm,
  Geqrt,
  Unmqr,
  Tsqrt,
  Tsmqr,
  Ttqrt,
  Ttmqr,
  Tstrf,
  Ssssm,
  Lange,
  kCount
};

inline constexpr int kKernelClassCount = int(KernelClass::kCount);

// Prometheus label value for a class ("gemm", "trsm", ...).
const char* kernel_class_label(KernelClass c);

// LUQR_KPROF environment toggle, read once; default enabled.
bool kernel_profiler_enabled();

struct KernelClassStats {
  std::uint64_t calls = 0;
  std::uint64_t time_ns = 0;  ///< accumulated per call without rounding
  std::uint64_t flops = 0;
};

// Point-in-time per-class totals (indexed by KernelClass).  Diff two of
// these around a region to profile it (see luqr_solve --profile).
using KernelProfile = std::array<KernelClassStats, kKernelClassCount>;
KernelProfile kernel_profile();

// Coarse scheduler-facing grouping of an engine task name ("panel", "trsm",
// "gemm", "qr-factor", "qr-apply", "other") — used by the Chrome-trace
// export and tools to bucket tasks by kernel class.
const char* task_class_name(const char* task_name);

namespace detail {

struct KernelSlot {
  Counter* time_ns;
  Counter* calls;
  Counter* flops;
};
KernelSlot& kernel_slot(KernelClass c);

bool& in_kernel_flag();

}  // namespace detail

class KernelScope {
 public:
  KernelScope(KernelClass c, double model_flops) {
    bool& in_kernel = detail::in_kernel_flag();
    if (in_kernel || !kernel_profiler_enabled()) return;
    in_kernel = true;
    active_ = true;
    class_ = c;
    flops_ = model_flops > 0 ? std::uint64_t(model_flops) : 0;
    start_ = std::chrono::steady_clock::now();
  }
  ~KernelScope() {
    if (!active_) return;
    detail::in_kernel_flag() = false;
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
    detail::KernelSlot& slot = detail::kernel_slot(class_);
    slot.calls->add(1);
    slot.time_ns->add(std::uint64_t(ns));
    if (flops_ > 0) slot.flops->add(flops_);
  }

  KernelScope(const KernelScope&) = delete;
  KernelScope& operator=(const KernelScope&) = delete;

 private:
  bool active_ = false;
  KernelClass class_ = KernelClass::Gemm;
  std::uint64_t flops_ = 0;
  std::chrono::steady_clock::time_point start_{};
};

// Approximate flop models for the instrumented kernels.  These are the
// standard dense-linear-algebra operation counts; composite kernels include
// their internal gemm/trmm/trsm work since nested scopes are suppressed.
inline double gemm_model_flops(int m, int n, int k) {
  return 2.0 * m * double(n) * k;
}
inline double trsm_model_flops(bool left, int m, int n) {
  return left ? double(m) * m * n : double(m) * n * n;
}
inline double getrf_model_flops(int m, int n) {
  return double(n) * n * (m - n / 3.0);
}
inline double geqrt_model_flops(int m, int n) {
  return 2.0 * n * double(n) * (m - n / 3.0);
}
inline double unmqr_model_flops(int m, int n, int k) {
  return 4.0 * m * double(n) * k;
}
inline double tsqrt_model_flops(int m, int nb) {
  return 2.0 * m * double(nb) * nb;
}
inline double tsmqr_model_flops(int m, int n, int nb) {
  return 4.0 * m * double(n) * nb;
}
inline double ttqrt_model_flops(int nb) { return 2.0 * nb * double(nb) * nb; }
inline double ttmqr_model_flops(int n, int nb) {
  return 4.0 * nb * double(nb) * n;
}
inline double tstrf_model_flops(int nb) { return 2.0 * nb * double(nb) * nb; }
inline double ssssm_model_flops(int n, int nb) {
  return 3.0 * nb * double(nb) * n;
}

}  // namespace obs
}  // namespace luqr

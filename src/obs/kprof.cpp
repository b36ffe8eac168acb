#include "obs/kprof.hpp"

#include <cstdlib>
#include <cstring>

namespace luqr {
namespace obs {

const char* kernel_class_label(KernelClass c) {
  switch (c) {
    case KernelClass::Gemm:
      return "gemm";
    case KernelClass::Trsm:
      return "trsm";
    case KernelClass::Trmm:
      return "trmm";
    case KernelClass::Getrf:
      return "getrf";
    case KernelClass::Laswp:
      return "laswp";
    case KernelClass::Gessm:
      return "gessm";
    case KernelClass::Geqrt:
      return "geqrt";
    case KernelClass::Unmqr:
      return "unmqr";
    case KernelClass::Tsqrt:
      return "tsqrt";
    case KernelClass::Tsmqr:
      return "tsmqr";
    case KernelClass::Ttqrt:
      return "ttqrt";
    case KernelClass::Ttmqr:
      return "ttmqr";
    case KernelClass::Tstrf:
      return "tstrf";
    case KernelClass::Ssssm:
      return "ssssm";
    case KernelClass::Lange:
      return "lange";
    case KernelClass::kCount:
      break;
  }
  return "unknown";
}

bool kernel_profiler_enabled() {
  static const bool enabled = [] {
    const char* v = std::getenv("LUQR_KPROF");
    return v == nullptr || std::strcmp(v, "0") != 0;
  }();
  return enabled;
}

namespace detail {

bool& in_kernel_flag() {
  thread_local bool flag = false;
  return flag;
}

KernelSlot& kernel_slot(KernelClass c) {
  // One registration pass for all classes (thread-safe static init), then
  // hot-path lookups are a plain array index.
  static std::array<KernelSlot, kKernelClassCount>* slots = [] {
    auto* arr = new std::array<KernelSlot, kKernelClassCount>();
    Registry& reg = Registry::global();
    for (int i = 0; i < kKernelClassCount; ++i) {
      const Labels labels{{"class", kernel_class_label(KernelClass(i))}};
      (*arr)[size_t(i)] = KernelSlot{
          &reg.counter("luqr_kernel_time_ns_total", labels,
                       "Wall time spent inside kernel dispatch, nanoseconds"),
          &reg.counter("luqr_kernel_calls_total", labels,
                       "Kernel dispatch invocations"),
          &reg.counter("luqr_kernel_flops_total", labels,
                       "Approximate model flops executed"),
      };
    }
    return arr;
  }();
  return (*slots)[size_t(int(c))];
}

}  // namespace detail

KernelProfile kernel_profile() {
  KernelProfile prof{};
  if (!kernel_profiler_enabled()) return prof;
  for (int i = 0; i < kKernelClassCount; ++i) {
    const detail::KernelSlot& slot = detail::kernel_slot(KernelClass(i));
    prof[size_t(i)].calls = slot.calls->value();
    prof[size_t(i)].time_ns = slot.time_ns->value();
    prof[size_t(i)].flops = slot.flops->value();
  }
  return prof;
}

const char* task_class_name(const char* task_name) {
  if (task_name == nullptr) return "other";
  const auto is = [task_name](const char* s) {
    return std::strcmp(task_name, s) == 0;
  };
  // Exact names from the hybrid driver's task graph (see runtime/).
  if (is("panel")) return "panel";
  if (is("swptrsm") || is("trsm")) return "trsm";
  if (is("gemm")) return "gemm";
  if (is("restore") || is("geqrt") || is("tsqrt") || is("ttqrt"))
    return "qr-factor";
  if (is("unmqr") || is("tsmqr") || is("ttmqr")) return "qr-apply";
  // Serve-layer driver tasks keep their own family.
  if (std::strncmp(task_name, "serve-", 6) == 0) return "serve";
  return "other";
}

}  // namespace obs
}  // namespace luqr

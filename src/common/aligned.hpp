// 64-byte-aligned allocation.
//
// Tiles and kernel workspace buffers start on cache-line (and AVX-512
// vector) boundaries so the packed-GEMM micro-kernel can use full-width
// aligned loads on packed panels and tiles never straddle a line at their
// origin.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace luqr {

/// Cache-line / widest-SIMD alignment used throughout the kernel layer.
inline constexpr std::size_t kCacheLineBytes = 64;

/// Round `n` up to a multiple of `align` (a power of two).
inline constexpr std::size_t align_up(std::size_t n, std::size_t align) {
  return (n + align - 1) & ~(align - 1);
}

/// Minimal std::allocator replacement returning 64-byte-aligned storage
/// (C++17 aligned operator new). Drop-in for std::vector.
template <typename T, std::size_t Align = kCacheLineBytes>
struct AlignedAllocator {
  using value_type = T;
  // Explicit rebind: the default one cannot re-instantiate through the
  // non-type Align parameter.
  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Align>;
  };

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Align>&) {}  // NOLINT: converting

  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t(Align)));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t(Align));
  }

  template <typename U>
  bool operator==(const AlignedAllocator<U, Align>&) const { return true; }
  template <typename U>
  bool operator!=(const AlignedAllocator<U, Align>&) const { return false; }
};

/// Allocator adaptor whose argument-less construct() default-initialises:
/// std::vector<T, DefaultInitAllocator<A>>(n) allocates n trivial elements
/// without writing them (no zero-fill pass, so the pages stay untouched
/// until their first real write), while (n, value), copies and moves
/// construct exactly as A does.
template <typename A>
struct DefaultInitAllocator : A {
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<
        typename std::allocator_traits<A>::template rebind_alloc<U>>;
  };

  using A::A;
  DefaultInitAllocator() = default;

  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    std::allocator_traits<A>::construct(static_cast<A&>(*this), p,
                                        std::forward<Args>(args)...);
  }
};

}  // namespace luqr

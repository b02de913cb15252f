// Cache-line-aligned storage for hot per-site arrays.
//
// The driver's lanes walk structure-of-arrays site state (offsets,
// pending counts) from several threads at once.
// Aligning each array's base to the cache-line size guarantees that array
// element 0 never straddles a line shared with an unrelated allocation,
// so two workers touching *different* arrays can never false-share, and
// contiguous site ranges map to contiguous, predictably-aligned lines.
// (Within one array, adjacent sites still share a line — by design: each
// lane owns a contiguous home range of sites, so cross-lane sharing
// happens only at the two range boundaries.)
#ifndef DMT_UTIL_ALIGNED_H_
#define DMT_UTIL_ALIGNED_H_

#include <cstddef>
#include <new>
#include <vector>

namespace dmt {

/// Assumed cache-line/destructive-interference size. Hardcoded 64: every
/// x86-64 and the common AArch64 parts use 64-byte lines, and
/// std::hardware_destructive_interference_size is still patchy in
/// libstdc++ (and ABI-fragile to boot).
inline constexpr size_t kCacheLineBytes = 64;

/// Minimal C++17 aligned allocator: std::vector<T, CacheLineAllocator<T>>
/// gets a 64-byte-aligned data() pointer.
template <typename T, size_t Alignment = kCacheLineBytes>
struct CacheLineAllocator {
  using value_type = T;

  // Explicit rebind: allocator_traits cannot synthesize one for a template
  // with a non-type (Alignment) parameter.
  template <typename U>
  struct rebind {
    using other = CacheLineAllocator<U, Alignment>;
  };

  CacheLineAllocator() noexcept = default;
  template <typename U>
  CacheLineAllocator(const CacheLineAllocator<U, Alignment>&) noexcept {}

  T* allocate(size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t(Alignment)));
  }
  void deallocate(T* p, size_t) noexcept {
    ::operator delete(p, std::align_val_t(Alignment));
  }

  template <typename U>
  bool operator==(const CacheLineAllocator<U, Alignment>&) const noexcept {
    return true;
  }
  template <typename U>
  bool operator!=(const CacheLineAllocator<U, Alignment>&) const noexcept {
    return false;
  }
};

/// A std::vector whose buffer starts on a cache-line boundary.
template <typename T>
using CacheAlignedVector = std::vector<T, CacheLineAllocator<T>>;

}  // namespace dmt

#endif  // DMT_UTIL_ALIGNED_H_

// Replaces the global allocation functions with malloc/free wrappers that
// count every allocation, for tests that pin how often a code path
// allocates. Include it in exactly one translation unit of a test binary.
//
// The nothrow forms are replaced too: the standard library takes some
// buffers through them (std::stable_sort's temporary buffer), and a
// sanitizer's own nothrow operator new would hand out memory that the
// replaced operator delete then returns to free().
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace msts_test {
inline std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace msts_test

void* operator new(std::size_t size) {
  msts_test::g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  msts_test::g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}

// free() is the right partner: every operator new above calls malloc. GCC
// cannot see that once a delete is inlined, and warns about a mismatch.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
#pragma GCC diagnostic pop

// Counting global allocator for the benchmark binary only: every
// operator new in the process bumps one relaxed counter, unless the calling
// thread marked itself as control plane (controller, OFP server loop). The
// data-plane count over a measured window — producer plus runtime workers —
// is the evidence for the runtime's "allocation-free in steady state" claim.
#include "alloc_count.hpp"

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace perfbench {
namespace {

std::atomic<std::uint64_t> g_data_allocs{0};
thread_local bool t_control_thread = false;

void* allocate(std::size_t size, std::size_t alignment) noexcept {
  if (!t_control_thread) g_data_allocs.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  if (alignment <= alignof(std::max_align_t)) return std::malloc(size);
  // aligned_alloc wants the size to be a multiple of the alignment.
  return std::aligned_alloc(alignment,
                            (size + alignment - 1) & ~(alignment - 1));
}

void* allocate_or_throw(std::size_t size, std::size_t alignment) {
  void* p = allocate(size, alignment);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

std::uint64_t data_plane_allocations() {
  return g_data_allocs.load(std::memory_order_relaxed);
}

void mark_control_thread() { t_control_thread = true; }

}  // namespace perfbench

using perfbench::allocate;
using perfbench::allocate_or_throw;

void* operator new(std::size_t n) { return allocate_or_throw(n, 0); }
void* operator new[](std::size_t n) { return allocate_or_throw(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return allocate_or_throw(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return allocate_or_throw(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return allocate(n, 0);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return allocate(n, 0);
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return allocate(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return allocate(n, static_cast<std::size_t>(a));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

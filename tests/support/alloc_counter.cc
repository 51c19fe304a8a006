#include "support/alloc_counter.h"

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace {

std::atomic<int64_t> g_allocations{0};

void* Allocate(std::size_t size, std::size_t alignment) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  if (alignment <= alignof(std::max_align_t)) return std::malloc(size);
  // aligned_alloc wants a size that is a multiple of the alignment.
  return std::aligned_alloc(alignment,
                            (size + alignment - 1) / alignment * alignment);
}

void* AllocateOrThrow(std::size_t size, std::size_t alignment) {
  void* p = Allocate(size, alignment);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

std::size_t Alignment(std::align_val_t alignment) {
  return static_cast<std::size_t>(alignment);
}

}  // namespace

namespace awmoe {

int64_t HeapAllocationCount() {
  return g_allocations.load(std::memory_order_relaxed);
}

}  // namespace awmoe

void* operator new(std::size_t size) { return AllocateOrThrow(size, 0); }
void* operator new[](std::size_t size) { return AllocateOrThrow(size, 0); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return Allocate(size, 0);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return Allocate(size, 0);
}
void* operator new(std::size_t size, std::align_val_t alignment) {
  return AllocateOrThrow(size, Alignment(alignment));
}
void* operator new[](std::size_t size, std::align_val_t alignment) {
  return AllocateOrThrow(size, Alignment(alignment));
}
void* operator new(std::size_t size, std::align_val_t alignment,
                   const std::nothrow_t&) noexcept {
  return Allocate(size, Alignment(alignment));
}
void* operator new[](std::size_t size, std::align_val_t alignment,
                     const std::nothrow_t&) noexcept {
  return Allocate(size, Alignment(alignment));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
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

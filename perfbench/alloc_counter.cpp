#include "alloc_counter.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench {
namespace {

struct alignas(64) PaddedCounter {
  std::atomic<uint64_t> n{0};
};
PaddedCounter g_system;
PaddedCounter g_generator;
thread_local bool t_isGenerator = false;

void count() noexcept {
  (t_isGenerator ? g_generator : g_system)
      .n.fetch_add(1, std::memory_order_relaxed);
}

void* allocate(std::size_t n) {
  count();
  if (void* p = std::malloc(n == 0 ? 1 : n)) {
    return p;
  }
  throw std::bad_alloc();
}

void* allocateAligned(std::size_t n, std::align_val_t al) {
  count();
  const auto a = static_cast<std::size_t>(al);
  const std::size_t rounded = ((n == 0 ? 1 : n) + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

AllocCounts allocCounts() noexcept {
  return {g_system.n.load(std::memory_order_relaxed),
          g_generator.n.load(std::memory_order_relaxed)};
}

void markGeneratorThread() noexcept { t_isGenerator = true; }

}  // namespace perfbench

void* operator new(std::size_t n) { return perfbench::allocate(n); }
void* operator new[](std::size_t n) { return perfbench::allocate(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return perfbench::allocate(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return perfbench::allocate(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t n, std::align_val_t al) {
  return perfbench::allocateAligned(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return perfbench::allocateAligned(n, al);
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

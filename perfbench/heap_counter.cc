#include "heap_counter.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace qcap::perfbench::heap {
namespace {

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_count{0};
thread_local bool t_ignored = false;

void CountOne() {
  if (g_enabled.load(std::memory_order_relaxed) && !t_ignored) {
    g_count.fetch_add(1, std::memory_order_relaxed);
  }
}

void* Allocate(std::size_t size) {
  CountOne();
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* AllocateAligned(std::size_t size, std::align_val_t align) {
  CountOne();
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = ((size == 0 ? 1 : size) + a - 1) / a * a;
  void* p = std::aligned_alloc(a, rounded);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void Enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
void IgnoreThisThread(bool on) { t_ignored = on; }
uint64_t Count() { return g_count.load(std::memory_order_relaxed); }

}  // namespace qcap::perfbench::heap

using qcap::perfbench::heap::Allocate;
using qcap::perfbench::heap::AllocateAligned;

void* operator new(std::size_t size) { return Allocate(size); }
void* operator new[](std::size_t size) { return Allocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return Allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return Allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return AllocateAligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return AllocateAligned(size, align);
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

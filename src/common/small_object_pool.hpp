// SmallObjectPool — per-thread free lists for the simulator's small,
// short-lived heap objects.
//
// One pool serves every object the engine makes and frees per event or per
// call: coroutine frames, Engine::Callback nodes (deliveries, timers), the
// RPC client's pending-call map nodes, the RPC server's duplicate-request
// cache entries and the BufStore nodes behind buffer segments (DESIGN.md
// §18).  A block freed by one kind is handed to the next request of its
// size class, whatever kind asks.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace sgfs {

/// Free lists of heap blocks, one per 64-byte size class up to 8 KiB.  A
/// released block goes to the head of its class's list and is the next
/// block that class hands out; a larger block goes straight to
/// ::operator new/delete.  A list holds at most as many blocks as its class
/// ever had live at once, reachable from the list head.
///
/// The lists are per thread, and a block is released on the thread that
/// allocated it (engines, and everything they allocate, never cross
/// threads).  When a thread that allocated from the pool exits, its lists
/// are freed.  Under ASan a cached block is poisoned except for its link,
/// so a touch of a dead object is reported.
class SmallObjectPool {
 public:
  static constexpr std::size_t kGranule = 64;
  static constexpr std::size_t kMaxPooled = 8 * 1024;

  /// Bytes a request of n bytes is served with (n itself above kMaxPooled).
  static constexpr std::size_t class_size(std::size_t n) noexcept {
    return n > kMaxPooled ? n : (n + kGranule - 1) / kGranule * kGranule;
  }

  static void* allocate(std::size_t n) {
    if (n > kMaxPooled) return ::operator new(n);
    const std::size_t size = class_size(n);
    void*& head = heads_[size / kGranule - 1];
    void* b = head;
    if (b == nullptr) return fill(size);
    unpoison(b, size - sizeof(void*));
    std::memcpy(&head, link(b, size), sizeof(void*));
    return b;
  }

  static void release(void* p, std::size_t n) noexcept {
    if (n > kMaxPooled) return ::operator delete(p, n);
    const std::size_t size = class_size(n);
    void*& head = heads_[size / kGranule - 1];
    std::memcpy(link(p, size), &head, sizeof(void*));
    head = p;
    poison(p, size - sizeof(void*));
  }

 private:
  struct ThreadExit;

  // A class's list is empty: a fresh block from the heap.  The first call
  // on a thread also arms the hook that frees the lists at thread exit.
  static void* fill(std::size_t size);
  // Frees every block cached by the calling thread.
  static void drain() noexcept;

  // The link of a cached block is its last word: a coroutine frame's resume
  // and destroy pointers and a Callback's vtable pointer lead the block, so
  // they stay poisoned under ASan.
  static void* link(void* b, std::size_t size) noexcept {
    return static_cast<char*>(b) + size - sizeof(void*);
  }

#if defined(__SANITIZE_ADDRESS__)
  // The leak checker skips poisoned words, so the link stays unpoisoned to
  // keep the blocks behind it reachable.
  static void poison(void* b, std::size_t bytes) noexcept {
    ASAN_POISON_MEMORY_REGION(b, bytes);
  }
  static void unpoison(void* b, std::size_t bytes) noexcept {
    ASAN_UNPOISON_MEMORY_REGION(b, bytes);
  }
#else
  static void poison(void*, std::size_t) noexcept {}
  static void unpoison(void*, std::size_t) noexcept {}
#endif

  static constexpr std::size_t kClasses = kMaxPooled / kGranule;
  static inline thread_local void* heads_[kClasses] = {};
};

/// Standard allocator over SmallObjectPool, for node-based containers whose
/// nodes come and go per call (the RPC layer's pending and DRC maps).
template <typename T>
struct PoolAllocator {
  using value_type = T;

  PoolAllocator() = default;
  template <typename U>
  PoolAllocator(const PoolAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(SmallObjectPool::allocate(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    SmallObjectPool::release(p, n * sizeof(T));
  }

  template <typename U>
  bool operator==(const PoolAllocator<U>&) const noexcept {
    return true;
  }
};

}  // namespace sgfs

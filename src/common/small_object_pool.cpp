#include "common/small_object_pool.hpp"

namespace sgfs {

struct SmallObjectPool::ThreadExit {
  ThreadExit() = default;
  ThreadExit(const ThreadExit&) = delete;
  ThreadExit& operator=(const ThreadExit&) = delete;
  ~ThreadExit() { SmallObjectPool::drain(); }
};

void* SmallObjectPool::fill(std::size_t size) {
  // Constructed on a thread's first miss; destroyed, and so drains the
  // thread's lists, when the thread exits.
  static thread_local ThreadExit exit_hook;
  (void)exit_hook;
  return ::operator new(size);
}

void SmallObjectPool::drain() noexcept {
  for (std::size_t c = 0; c < kClasses; ++c) {
    const std::size_t size = (c + 1) * kGranule;
    void* b = heads_[c];
    heads_[c] = nullptr;
    while (b != nullptr) {
      void* next;
      std::memcpy(&next, link(b, size), sizeof(void*));
      unpoison(b, size - sizeof(void*));
      ::operator delete(b, size);
      b = next;
    }
  }
}

}  // namespace sgfs

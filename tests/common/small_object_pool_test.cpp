#include <gtest/gtest.h>

#include <algorithm>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/bufchain.hpp"
#include "common/small_object_pool.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"

namespace sgfs {
namespace {

using sim::Engine;
using sim::Task;

// Stores the awaiting coroutine's frame address and resumes it at once.
struct FrameAddress {
  void** out;
  bool await_ready() const noexcept { return false; }
  bool await_suspend(std::coroutine_handle<> h) noexcept {
    *out = h.address();
    return false;
  }
  void await_resume() const noexcept {}
};

Task<void> small_frame(void** out) { co_await FrameAddress{out}; }

// Keeps a 3000-byte local across the suspension, so it lives in the frame.
Task<void> large_frame(void** out) {
  volatile char pad[3000];
  pad[0] = 1;
  co_await FrameAddress{out};
  pad[sizeof(pad) - 1] = pad[0];
}

// Runs `task` as the only actor of a fresh engine; its frame is released
// when it finishes.
void run_alone(Task<void> task) {
  Engine eng;
  eng.spawn(std::move(task));
  eng.run();
}

bool aligned(const void* p) {
  return reinterpret_cast<uintptr_t>(p) % __STDCPP_DEFAULT_NEW_ALIGNMENT__ ==
         0;
}

TEST(SmallObjectPool, ReleasedFrameIsHandedToTheNextCoroutineOfItsClass) {
  void* first = nullptr;
  void* second = nullptr;
  run_alone(small_frame(&first));
  run_alone(small_frame(&second));
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(second, first);

  // Any request of the same 64-byte class takes the last frame released.
  void* p = SmallObjectPool::allocate(100);
  SmallObjectPool::release(p, 100);
  EXPECT_EQ(SmallObjectPool::allocate(120), p);
  SmallObjectPool::release(p, 120);
}

TEST(SmallObjectPool, ClassesNeverAliasAndAreAligned) {
  std::vector<size_t> sizes;
  for (size_t n = 1;
       n <= SmallObjectPool::kMaxPooled + 2 * SmallObjectPool::kGranule;
       n += 37) {
    sizes.push_back(n);
  }
  for (int round = 0; round < 2; ++round) {
    // Every request is live at once: no two may overlap.
    std::vector<std::pair<char*, size_t>> live;
    for (size_t n : sizes) {
      void* p = SmallObjectPool::allocate(n);
      EXPECT_TRUE(aligned(p)) << n;
      live.emplace_back(static_cast<char*>(p), n);
    }
    std::vector<std::pair<char*, size_t>> by_addr = live;
    std::sort(by_addr.begin(), by_addr.end());
    for (size_t i = 1; i < by_addr.size(); ++i) {
      EXPECT_LE(by_addr[i - 1].first +
                    SmallObjectPool::class_size(by_addr[i - 1].second),
                by_addr[i].first);
    }
    // Released in reverse, so the second round hands frames out in another
    // order; each must come back to a request of its own class.
    std::map<char*, size_t> released;
    for (auto& [p, n] : live) {
      released[p] = SmallObjectPool::class_size(n);
      SmallObjectPool::release(p, n);
    }
    std::reverse(sizes.begin(), sizes.end());
    for (size_t n : sizes) {
      char* p = static_cast<char*>(SmallObjectPool::allocate(n));
      auto it = released.find(p);
      if (it != released.end()) {
        EXPECT_EQ(it->second, SmallObjectPool::class_size(n));
      }
      SmallObjectPool::release(p, n);
    }
  }

  // Coroutine frames: a released small frame is never handed to a large one.
  void* small = nullptr;
  void* large = nullptr;
  run_alone(small_frame(&small));
  run_alone(large_frame(&large));
  EXPECT_TRUE(aligned(small));
  EXPECT_TRUE(aligned(large));
  EXPECT_NE(small, large);
}

TEST(SmallObjectPool, BlocksAreReusedAcrossObjectKindsWithoutAliasing) {
  // A timer node, a BufStore node and a map node all fall in the 64-byte
  // class.  Each kind takes the block the previous kind released, and
  // kinds live at once never share one.
  using Map = std::map<int, int, std::less<>,
                       PoolAllocator<std::pair<const int, int>>>;
  Engine eng;
  int fired = 0;
  Engine::Callback* timer = eng.call_at(1000, [&fired] { ++fired; });
  const char* block = reinterpret_cast<const char*>(timer);
  eng.cancel(timer);  // still in its arm hop: freed when it comes up
  eng.run();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(eng.events_processed(), 0u);

  Map map;
  {
    BufChain chain{Buffer(100, 0x5A)};
    // A store's bytes are the first member of its node.
    EXPECT_EQ(reinterpret_cast<const char*>(chain.segments()[0].store.get()),
              block);
  }
  map.emplace(7, 70);
  // The map's value sits inside its node, behind the tree links.
  const char* value = reinterpret_cast<const char*>(&*map.begin());
  EXPECT_GE(value, block);
  EXPECT_LT(value, block + SmallObjectPool::kGranule);

  // While the map node is live, a new timer and a new store each get a
  // block of their own, and every object keeps its contents.
  BufChain chain{Buffer(100, 0xA5)};
  timer = eng.call_at(eng.now() + 1000, [&fired] { ++fired; });
  const char* store_block =
      reinterpret_cast<const char*>(chain.segments()[0].store.get());
  EXPECT_NE(store_block, reinterpret_cast<const char*>(timer));
  EXPECT_NE(store_block, block);
  EXPECT_NE(reinterpret_cast<const char*>(timer), block);
  eng.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(map.at(7), 70);
  EXPECT_EQ(chain, Buffer(100, 0xA5));
}

TEST(SmallObjectPool, ReadingAReleasedFrameIsReported) {
#if defined(__SANITIZE_ADDRESS__)
  void* frame = nullptr;
  run_alone(small_frame(&frame));
  ASSERT_NE(frame, nullptr);
  EXPECT_DEATH((void)*static_cast<volatile char*>(frame), "use-after-poison");
  // A resume through a stale handle reads the frame's resume pointer.
  EXPECT_DEATH(std::coroutine_handle<>::from_address(frame).resume(),
               "use-after-poison");
#else
  GTEST_SKIP() << "needs AddressSanitizer";
#endif
}

}  // namespace
}  // namespace sgfs

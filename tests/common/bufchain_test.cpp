// BufChain unit tests: adoption/slice/concat semantics, iovec-style segment
// iteration, copy accounting, and refcount lifetime across coroutine
// suspension (the property the whole zero-copy pipeline leans on).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/bufchain.hpp"
#include "common/rng.hpp"
#include "sim/engine.hpp"

namespace sgfs {
namespace {

TEST(BufChain, AdoptionIsZeroCopy) {
  const BufStats before = buf_stats();
  BufChain c{Buffer(4096, 0x41)};
  EXPECT_EQ(c.size(), 4096u);
  EXPECT_EQ(buf_stats().bytes_copied, before.bytes_copied);
  EXPECT_EQ(buf_stats().bytes_zerocopy, before.bytes_zerocopy + 4096);
  EXPECT_EQ(buf_stats().segments_allocated, before.segments_allocated + 1);
}

TEST(BufChain, CopyOfCopiesAndCounts) {
  Buffer src(1000, 0x7);
  const BufStats before = buf_stats();
  BufChain c = BufChain::copy_of(ByteView(src));
  EXPECT_EQ(c, src);
  EXPECT_EQ(buf_stats().bytes_copied, before.bytes_copied + 1000);
  // The copy owns its store: mutating the source must not show through.
  src[0] = 0x9;
  EXPECT_EQ(c.at(0), 0x7);
}

TEST(BufChain, SliceSharesTheBackingStore) {
  BufChain whole{to_bytes("0123456789abcdef")};
  const BufStats before = buf_stats();
  BufChain mid = whole.slice(4, 8);
  EXPECT_EQ(to_string(mid), "456789ab");
  // Same store, just a narrower window — and the handoff is counted as
  // zero-copy, not as a copy.
  EXPECT_EQ(mid.segments()[0].store.get(), whole.segments()[0].store.get());
  EXPECT_EQ(buf_stats().bytes_copied, before.bytes_copied);
  EXPECT_EQ(buf_stats().bytes_zerocopy, before.bytes_zerocopy + 8);

  EXPECT_THROW(whole.slice(10, 7), std::out_of_range);
  EXPECT_THROW(whole.slice(17, 0), std::out_of_range);
  EXPECT_EQ(whole.slice(16, 0).size(), 0u);
}

TEST(BufChain, SliceAcrossSegmentBoundaries) {
  BufChain c;
  c.append(to_bytes("aaaa"));
  c.append(to_bytes("bbbb"));
  c.append(to_bytes("cccc"));
  ASSERT_EQ(c.segments().size(), 3u);
  BufChain s = c.slice(2, 8);  // aabbbbcc
  EXPECT_EQ(to_string(s), "aabbbbcc");
  EXPECT_EQ(s.segments().size(), 3u);
  // Every segment of the slice aliases a store of the source chain.
  for (const auto& seg : s.segments()) {
    bool shared = false;
    for (const auto& src : c.segments()) shared |= seg.store == src.store;
    EXPECT_TRUE(shared);
  }
}

TEST(BufChain, AppendConcatenatesWithoutCopying) {
  BufChain head{to_bytes("header|")};
  BufChain payload{Buffer(64 * 1024, 0x5a)};
  const BufStats before = buf_stats();
  head.append(payload);
  EXPECT_EQ(head.size(), 7u + 64 * 1024);
  EXPECT_EQ(buf_stats().bytes_copied, before.bytes_copied);
  EXPECT_EQ(head.at(6), uint8_t('|'));
  EXPECT_EQ(head.at(7), 0x5a);
  EXPECT_EQ(head.at(head.size() - 1), 0x5a);
}

TEST(BufChain, SegmentIterationCoversAllBytesInOrder) {
  Rng rng(0xB0F);
  Buffer a = rng.bytes(100);
  Buffer b = rng.bytes(1);
  Buffer c = rng.bytes(4000);
  Buffer expect;
  for (const Buffer* p : {&a, &b, &c})
    expect.insert(expect.end(), p->begin(), p->end());

  BufChain chain;
  chain.append(Buffer(a));
  chain.append(Buffer(b));
  chain.append(Buffer(c));

  // iovec-style gather: walk segments() exactly like Stream::write does.
  Buffer gathered;
  size_t total = 0;
  for (const auto& seg : chain.segments()) {
    ByteView v = seg.view();
    gathered.insert(gathered.end(), v.begin(), v.end());
    total += seg.len;
  }
  EXPECT_EQ(total, chain.size());
  EXPECT_EQ(gathered, expect);
  EXPECT_EQ(chain.flatten(), expect);
}

TEST(BufChain, FlattenAndCopyToCount) {
  BufChain c;
  c.append(Buffer(300, 1));
  c.append(Buffer(700, 2));
  const BufStats before = buf_stats();
  Buffer flat = c.flatten();
  EXPECT_EQ(flat.size(), 1000u);
  EXPECT_EQ(buf_stats().bytes_copied, before.bytes_copied + 1000);
  Buffer out(400);
  EXPECT_EQ(c.copy_to(MutByteView(out.data(), out.size())), 400u);
  EXPECT_EQ(buf_stats().bytes_copied, before.bytes_copied + 1400);
  EXPECT_EQ(out[299], 1);
  EXPECT_EQ(out[300], 2);
}

TEST(BufChain, LinearizeBorrowsSingleSegmentAndCopiesFragmented) {
  BufChain single{to_bytes("contiguous")};
  Buffer scratch;
  const BufStats before = buf_stats();
  ByteView v = linearize(single, scratch);
  EXPECT_EQ(to_string(v), "contiguous");
  EXPECT_TRUE(scratch.empty());
  EXPECT_EQ(buf_stats().bytes_copied, before.bytes_copied);

  BufChain split;
  split.append(to_bytes("two "));
  split.append(to_bytes("parts"));
  ByteView w = linearize(split, scratch);
  EXPECT_EQ(to_string(w), "two parts");
  EXPECT_EQ(buf_stats().bytes_copied, before.bytes_copied + 9);
}

// Builds a chain of `k` segments over `bytes` (split points drawn from rng).
BufChain chain_of(const Buffer& bytes, size_t k, Rng& rng) {
  std::vector<size_t> cuts{0, bytes.size()};
  while (cuts.size() < k + 1) {
    const size_t c = 1 + rng.next_below(bytes.size() - 1);
    if (std::find(cuts.begin(), cuts.end(), c) == cuts.end()) {
      cuts.push_back(c);
    }
  }
  std::sort(cuts.begin(), cuts.end());
  BufChain out;
  for (size_t i = 0; i + 1 < cuts.size(); ++i) {
    out.append(Buffer(bytes.begin() + cuts[i], bytes.begin() + cuts[i + 1]));
  }
  return out;
}

TEST(BufChain, InlineAndSpilledChainsAgreeWithFlatten) {
  // Up to kInline segments live inline, more spill to the heap; every
  // operation must agree with the flat bytes either way.
  Rng rng(7);
  const Buffer bytes = rng.bytes(40);
  for (size_t k = 1; k <= BufChain::kInline + 2; ++k) {
    const BufChain c = chain_of(bytes, k, rng);
    ASSERT_EQ(c.segments().size(), k);
    EXPECT_EQ(c.flatten(), bytes) << k;
    EXPECT_EQ(c, bytes) << k;

    for (size_t off = 0; off <= bytes.size(); off += 3) {
      for (size_t len = 0; off + len <= bytes.size(); len += 5) {
        const BufChain s = c.slice(off, len);
        EXPECT_EQ(s.flatten(), Buffer(bytes.begin() + off,
                                      bytes.begin() + off + len))
            << k << " " << off << " " << len;
      }
    }

    BufChain copy = c;
    EXPECT_EQ(copy.segments().size(), k);
    EXPECT_EQ(copy, c);
    BufChain moved = std::move(copy);
    EXPECT_EQ(moved, c);
    EXPECT_TRUE(copy.empty());  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(copy.size(), 0u);
    EXPECT_TRUE(copy.segments().empty());
    BufChain assigned;
    assigned = std::move(moved);
    EXPECT_EQ(assigned.flatten(), bytes);
    EXPECT_TRUE(moved.empty());  // NOLINT(bugprone-use-after-move)
    EXPECT_TRUE(moved.segments().empty());

    // Appends across the inline/spill boundary in both directions.
    for (size_t j = 1; j <= 5; ++j) {
      BufChain left = chain_of(bytes, k, rng);
      left.append(chain_of(bytes, j, rng));
      Buffer both = bytes;
      both.insert(both.end(), bytes.begin(), bytes.end());
      EXPECT_EQ(left.segments().size(), k + j);
      EXPECT_EQ(left.flatten(), both) << k << "+" << j;
      EXPECT_EQ(left, chain_of(both, 1 + (k + j) % 5, rng)) << k << "+" << j;
    }

    // == sees a one-byte difference wherever it falls.
    for (size_t pos = 0; pos < bytes.size(); pos += 7) {
      Buffer other = bytes;
      other[pos] ^= 0x01;
      EXPECT_FALSE(c == chain_of(other, 1 + pos % 5, rng)) << k << " " << pos;
    }
  }
}

// Segment counts on either side of the inline/spill boundary.
constexpr size_t kBoundary[] = {BufChain::kInline - 1, BufChain::kInline,
                                BufChain::kInline + 1};

TEST(BufChain, InlineSpillBoundaryUnderAppendSliceCopyAndMove) {
  Rng rng(11);
  const Buffer bytes = rng.bytes(60);
  for (size_t k : kBoundary) {
    for (size_t j : {size_t{1}, BufChain::kInline}) {
      BufChain c = chain_of(bytes, k, rng);
      c.append(chain_of(bytes, j, rng));
      Buffer both = bytes;
      both.insert(both.end(), bytes.begin(), bytes.end());
      ASSERT_EQ(c.segments().size(), k + j);
      EXPECT_EQ(c, both) << k << "+" << j;

      // Slices whose first and last bytes fall in every pair of segments,
      // so some start inline and end in a segment that spilled.
      size_t start = 0;
      for (const auto& first : c.segments()) {
        size_t end = 0;
        for (const auto& last : c.segments()) {
          end += last.len;
          if (end <= start) continue;
          const BufChain s = c.slice(start, end - start);
          EXPECT_EQ(s.flatten(),
                    Buffer(both.begin() + start, both.begin() + end))
              << k << "+" << j << " [" << start << "," << end << ")";
        }
        start += first.len;
      }

      const BufChain copy = c;
      EXPECT_EQ(copy.segments().size(), c.segments().size());
      EXPECT_EQ(copy, both);

      BufChain moved(std::move(c));
      EXPECT_EQ(moved, both);
      EXPECT_TRUE(c.empty());  // NOLINT(bugprone-use-after-move)
      EXPECT_TRUE(c.segments().empty());

      // Self-move-assignment leaves the chain as it was.
      BufChain& alias = moved;
      moved = std::move(alias);
      EXPECT_EQ(moved, both);
      EXPECT_EQ(moved.segments().size(), k + j);

      // Move-assignment over a chain that already holds segments, spilled
      // or not, releases them.
      BufChain target = chain_of(bytes, k, rng);
      target = std::move(moved);
      EXPECT_EQ(target, both);
      EXPECT_TRUE(moved.empty());  // NOLINT(bugprone-use-after-move)
    }
  }
}

TEST(BufChain, MovedFromChainIsEmptyAndReusable) {
  Rng rng(12);
  const Buffer bytes = rng.bytes(30);
  for (size_t k : kBoundary) {
    BufChain c = chain_of(bytes, k, rng);
    BufChain dst = std::move(c);
    EXPECT_EQ(dst, bytes);
    EXPECT_TRUE(c.empty());  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(c.size(), 0u);
    EXPECT_TRUE(c.segments().empty());
    EXPECT_EQ(c.try_view()->size(), 0u);
    // Reuse: grow the moved-from chain across the boundary again.
    for (size_t i = 0; i < k; ++i) c.append(to_bytes("ab"));
    EXPECT_EQ(c.segments().size(), k);
    EXPECT_EQ(c.size(), 2 * k);
    EXPECT_EQ(c.at(2 * k - 1), uint8_t('b'));
    c = std::move(dst);
    EXPECT_EQ(c, bytes);
    dst.append(to_bytes("z"));  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(to_string(dst), "z");
  }
}

TEST(BufChainLifetime, UseCountReturnsToOneAfterCopiesMovesAndDrops) {
  for (size_t k : kBoundary) {
    BufStore watch;
    {
      BufChain c{Buffer(16, 0x3C)};
      watch = c.segments()[0].store;
      // The same store appears in every segment.
      for (size_t i = 1; i < k; ++i) c.append(c.slice(0, 4));
      ASSERT_EQ(c.segments().size(), k);
      EXPECT_EQ(watch.use_count(), k + 1);
      {
        BufChain copy = c;
        EXPECT_EQ(watch.use_count(), 2 * k + 1);
        BufChain moved = std::move(copy);
        EXPECT_EQ(watch.use_count(), 2 * k + 1);
        BufChain assigned;
        assigned = std::move(moved);
        EXPECT_EQ(watch.use_count(), 2 * k + 1);
        assigned = c;  // copy-assign over a populated chain
        EXPECT_EQ(watch.use_count(), 2 * k + 1);
        BufChain joined = c.slice(0, 1);
        joined.append(std::move(assigned));
        EXPECT_EQ(watch.use_count(), 2 * k + 2);
      }
      EXPECT_EQ(watch.use_count(), k + 1);
    }
    EXPECT_EQ(watch.use_count(), 1u) << k;
  }
}

TEST(BufChain, PinnedStatsForAFixedScript) {
  // A fixed script of every counted operation; the deltas are pinned so a
  // change of representation cannot move what the benches report.
  const BufStats before = buf_stats();
  BufChain a{Buffer(100, 1)};                   // +1 segment, +100 zc
  const Buffer fifty(50, 2);
  BufChain b = BufChain::copy_of(ByteView(fifty));  // +50 cp, +1, +50 zc
  a.append(b);
  for (uint8_t i = 0; i < 5; ++i) a.append(Buffer(10, i));  // +5, +50 zc
  a.append(Buffer{});
  BufChain s = a.slice(90, 80);                 // +80 zc
  BufChain c = s;
  BufChain m = std::move(c);
  Buffer f = m.flatten();                       // +80 cp
  Buffer out(30);
  a.copy_to(MutByteView(out.data(), out.size()));  // +30 cp
  Buffer scratch;
  linearize(a, scratch);                        // +200 cp
  BufChain one{a.segments()[0]};                // +100 zc
  linearize(one, scratch);
  BufChain joined = std::move(one);
  joined.append(std::move(m));
  const BufStats& now = buf_stats();
  EXPECT_EQ(now.segments_allocated - before.segments_allocated, 7u);
  EXPECT_EQ(now.bytes_zerocopy - before.bytes_zerocopy, 380u);
  EXPECT_EQ(now.bytes_copied - before.bytes_copied, 360u);
  EXPECT_EQ(a.segments().size(), 7u);
  EXPECT_EQ(joined.size(), 180u);
}

TEST(BufChainLifetime, RefcountReleasesStoreWithLastHolder) {
  // `watch` holds one reference of its own: a count of 1 means every chain
  // has let the store go, and dropping `watch` then frees it.
  BufStore watch;
  {
    BufChain slice;
    {
      BufChain whole{Buffer(128, 0xEE)};
      watch = whole.segments()[0].store;
      slice = whole.slice(32, 64);
      EXPECT_EQ(watch.use_count(), 3u);  // whole, slice, watch
    }
    // The slice alone keeps the store alive.
    EXPECT_EQ(watch.use_count(), 2u);
    EXPECT_EQ(slice.at(0), 0xEE);
  }
  EXPECT_EQ(watch.use_count(), 1u);
}

TEST(BufChainLifetime, SurvivesCoroutineSuspension) {
  // A coroutine holding only a slice suspends; the chain that produced the
  // slice (and the Buffer it adopted) are destroyed before the coroutine
  // resumes.  The shared store must keep the bytes alive.
  sim::Engine eng;
  std::string out;
  BufStore watch;  // one reference of its own, as above
  {
    BufChain chain{to_bytes("payload that outlives its creator")};
    watch = chain.segments()[0].store;
    eng.spawn([](sim::Engine& eng, BufChain held,
                 std::string* out) -> sim::Task<void> {
      co_await eng.sleep(1000);
      *out = to_string(held.slice(8, 4));
    }(eng, chain.slice(0, chain.size()), &out));
  }
  EXPECT_EQ(watch.use_count(), 2u);  // pinned by the suspended frame
  eng.run_task([](sim::Engine& eng) -> sim::Task<void> {
    co_await eng.sleep(2000);
  }(eng));
  EXPECT_EQ(out, "that");
  EXPECT_EQ(watch.use_count(), 1u);  // released once the coroutine finished
}

}  // namespace
}  // namespace sgfs

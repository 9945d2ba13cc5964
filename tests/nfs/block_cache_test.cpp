// BlockCache and UnstableLedger against small reference models, plus the
// suspension interleavings the evictor and the replay loop must survive.
#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <ostream>

#include "common/rng.hpp"
#include "nfs/block_cache.hpp"
#include "sim/engine.hpp"

namespace sgfs::nfs {

void PrintTo(const BlockKey& key, std::ostream* os) {
  *os << "(" << key.fileid << ", " << key.block << ")";
}

namespace {

using namespace sgfs::sim::literals;
using sim::Engine;
using sim::Task;

constexpr size_t kBlock = 4096;

// --- BlockCache vs a reference model -------------------------------------------

// The model keeps the LRU order as a list (front = oldest) and the dirty set
// as a set of keys; every operation mirrors the documented semantics.
struct Model {
  uint64_t capacity;
  std::list<BlockKey> lru;
  std::set<BlockKey> dirty;
  std::vector<BlockKey> written_back;

  bool resident(const BlockKey& k) const {
    return std::find(lru.begin(), lru.end(), k) != lru.end();
  }
  uint64_t used() const { return lru.size() * kBlock; }
  void to_back(const BlockKey& k) {
    lru.remove(k);
    lru.push_back(k);
  }
  void erase(const BlockKey& k) {
    lru.remove(k);
    dirty.erase(k);
  }
  void make_room_clean(uint64_t incoming) {
    for (auto it = lru.begin(); used() + incoming > capacity &&
                                it != lru.end();) {
      if (dirty.count(*it)) {
        ++it;
      } else {
        it = lru.erase(it);
      }
    }
  }
  void evict(uint64_t incoming) {
    while (used() + incoming > capacity && !lru.empty()) {
      const BlockKey victim = lru.front();
      if (dirty.erase(victim)) written_back.push_back(victim);
      lru.pop_front();
    }
  }
};

void expect_matches(const BlockCache& cache, const Model& model) {
  ASSERT_TRUE(cache.consistent());
  std::vector<BlockKey> want(model.lru.begin(), model.lru.end());
  std::sort(want.begin(), want.end());
  ASSERT_EQ(cache.keys(), want);
  ASSERT_EQ(cache.bytes_used(), model.used());
  ASSERT_EQ(cache.dirty_count(), model.dirty.size());
  for (const BlockKey& k : want) {
    ASSERT_EQ(cache.is_dirty(k), model.dirty.count(k) == 1);
  }
  std::vector<uint64_t> files;
  for (const BlockKey& k : model.dirty) {
    if (files.empty() || files.back() != k.fileid) files.push_back(k.fileid);
  }
  ASSERT_EQ(cache.dirty_files(), files);
}

TEST(BlockCache, RandomOpsMatchReferenceModel) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    Engine eng;
    const uint64_t capacity = 6 * kBlock;
    BlockCache cache(kBlock, capacity);
    Model model{capacity, {}, {}, {}};
    std::vector<BlockKey> written_back;
    auto write_back = [&](const BlockKey& k) -> Task<void> {
      written_back.push_back(k);
      cache.clear_dirty(k);
      co_return;
    };
    for (int step = 0; step < 2000; ++step) {
      const BlockKey k(rng.next_below(3), rng.next_below(5));
      switch (rng.next_below(10)) {
        case 0:
        case 1:
          cache.insert(k);
          if (model.resident(k)) {
            model.to_back(k);
          } else {
            model.lru.push_back(k);
          }
          break;
        case 2:
          ASSERT_EQ(cache.touch(k) != nullptr, model.resident(k));
          if (model.resident(k)) model.to_back(k);
          break;
        case 3:
          if (model.resident(k)) {
            ASSERT_EQ(cache.mark_dirty(k), model.dirty.insert(k).second);
          }
          break;
        case 4:
          ASSERT_EQ(cache.clear_dirty(k), model.dirty.erase(k) == 1);
          break;
        case 5:
          cache.erase(k);
          model.erase(k);
          break;
        case 6: {
          const uint64_t from = rng.next_below(5);
          for (uint64_t b = from; b < 5; ++b) model.erase(BlockKey(k.fileid, b));
          cache.erase_file(k.fileid, from);
          break;
        }
        case 7: {
          const uint64_t incoming = rng.next_below(3) * kBlock;
          model.make_room_clean(incoming);
          ASSERT_EQ(cache.make_room_clean(incoming),
                    model.used() + incoming <= capacity);
          break;
        }
        case 8: {
          const uint64_t incoming = rng.next_below(3) * kBlock;
          model.evict(incoming);
          eng.run_task(cache.evict(incoming, write_back));
          ASSERT_EQ(written_back, model.written_back);
          break;
        }
        default:
          if (rng.next_below(20) == 0) {
            cache.clear();
            model.lru.clear();
            model.dirty.clear();
          } else {
            cache.erase_clean();
            model.lru.remove_if(
                [&](const BlockKey& b) { return !model.dirty.count(b); });
          }
          break;
      }
      expect_matches(cache, model);
    }
  }
}

TEST(BlockCache, InsertZeroFillsAndRestoresTruncatedBuffers) {
  BlockCache cache(kBlock, 4 * kBlock);
  BlockCache::Block& b = cache.insert(BlockKey(1, 0));
  EXPECT_EQ(b.data, Buffer(kBlock, 0));
  b.data.resize(10);
  EXPECT_EQ(cache.insert(BlockKey(1, 0)).data.size(), kBlock);
}

TEST(BlockCache, EraseReportsCancelledDirtyBytes) {
  BlockCache cache(kBlock, 8 * kBlock);
  for (uint64_t b = 0; b < 4; ++b) {
    cache.insert(BlockKey(7, b)).valid = static_cast<uint32_t>(100 + b);
  }
  cache.mark_dirty(BlockKey(7, 1));
  cache.mark_dirty(BlockKey(7, 3));
  EXPECT_EQ(cache.erase_file(7, 2), 103u);  // only block 3 was dirty
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.dirty_blocks(7), std::vector<uint64_t>{1});
  EXPECT_EQ(cache.first_dirty(7), std::optional<uint64_t>(1));
  EXPECT_EQ(cache.erase(BlockKey(7, 0)), 0u);  // clean
  EXPECT_EQ(cache.clear(), 101u);
  EXPECT_FALSE(cache.has_dirty(7));
  EXPECT_TRUE(cache.consistent());
}

TEST(BlockCache, TouchMakesTheOldestBlockTheNewest) {
  // A full three-block cache; re-touching the oldest block makes the second
  // one the least recently used, so making room for one more evicts it.  A
  // FIFO order would evict the touched block instead.
  BlockCache cache(kBlock, 3 * kBlock);
  const BlockKey a(1, 0), b(1, 1), c(1, 2), d(1, 3);
  cache.insert(a);
  cache.insert(b);
  cache.insert(c);
  ASSERT_NE(cache.touch(a), nullptr);
  ASSERT_TRUE(cache.make_room_clean(kBlock));
  cache.insert(d);
  EXPECT_EQ(cache.keys(), (std::vector<BlockKey>{a, c, d}));
  // The same order holds for the evictor: C is now the oldest.
  Engine eng;
  eng.run_task(cache.evict(kBlock, [](const BlockKey&) -> Task<void> {
    co_return;
  }));
  EXPECT_EQ(cache.keys(), (std::vector<BlockKey>{a, d}));
  EXPECT_TRUE(cache.consistent());
}

// --- evictor interleavings --------------------------------------------------
//
// Three blocks in a two-block cache; the oldest (A) is dirty, so the evictor
// suspends in its write-back.  While it sleeps, a second coroutine reshapes
// the cache.  The evictor must act on what is true after the suspension.

struct Interleaving {
  Engine eng;
  BlockCache cache{kBlock, 2 * kBlock};
  const BlockKey a{1, 0}, b{1, 1}, c{1, 2};
  int write_backs = 0;

  Interleaving() {
    cache.insert(a);
    cache.insert(b);
    cache.insert(c);
    cache.mark_dirty(a);
  }
  // The RPC takes 10 ms; the dirty bit clears when it returns, and a
  // verifier check keeps the callback suspended for 10 ms more.
  Task<void> write_back(BlockKey key) {
    ++write_backs;
    co_await eng.sleep(10_ms);
    cache.clear_dirty(key);
    co_await eng.sleep(10_ms);
  }
  template <typename Meddle>
  void run(Meddle meddle) {
    auto meddler = [](Engine& eng, Meddle fn) -> Task<void> {
      co_await eng.sleep(15_ms);
      fn();
    };
    eng.spawn(meddler(eng, meddle));
    eng.run_task(cache.evict(0, [this](const BlockKey& key) {
      return write_back(key);
    }));
    eng.run();
    ASSERT_TRUE(cache.consistent());
  }
};

TEST(BlockCache, EvictorSurvivesVictimErasedDuringWriteBack) {
  Interleaving t;
  t.run([&] { t.cache.erase(t.a); });
  // A left by another path; the cache already fits, so nothing else goes.
  EXPECT_EQ(t.cache.keys(), (std::vector<BlockKey>{t.b, t.c}));
  EXPECT_EQ(t.write_backs, 1);
}

TEST(BlockCache, EvictorWritesBackVictimRedirtiedDuringWriteBack) {
  Interleaving t;
  t.run([&] { t.cache.mark_dirty(t.a); });
  // The second write of A must reach the server before A may go.
  EXPECT_EQ(t.write_backs, 2);
  EXPECT_EQ(t.cache.keys(), (std::vector<BlockKey>{t.b, t.c}));
}

TEST(BlockCache, EvictorEvictsVictimTouchedDuringWriteBack) {
  Interleaving t;
  t.run([&] { t.cache.touch(t.a); });
  // A is clean once its write-back returns, so A (not B) is the one that
  // goes, even though the touch made B the oldest block.
  EXPECT_EQ(t.cache.keys(), (std::vector<BlockKey>{t.b, t.c}));
  EXPECT_EQ(t.write_backs, 1);
}

// --- UnstableLedger -----------------------------------------------------------

BufChain bytes_of(size_t n, uint8_t fill) { return Buffer(n, fill); }

TEST(UnstableLedger, FirstVerifierIsAdoptedWithoutReplay) {
  Engine eng;
  UnstableLedger ledger(eng.metrics(), "t.recovery", false);
  int sends = 0;
  auto send = [&](const BlockKey&, BufChain) -> Task<std::optional<uint64_t>> {
    ++sends;
    co_return 1;
  };
  ledger.put(BlockKey(1, 0), bytes_of(10, 1));
  bool rolled = true;
  eng.run_task([](UnstableLedger& l, UnstableLedger::Send s,
                  bool& out) -> Task<void> {
    out = co_await l.note_verf(5, true, s);
    out = out || co_await l.note_verf(5, true, s);
  }(ledger, send, rolled));
  EXPECT_FALSE(rolled);
  EXPECT_EQ(sends, 0);
  EXPECT_EQ(ledger.verf(), std::optional<uint64_t>(5));
  EXPECT_EQ(eng.metrics().counter_value("t.recovery.verf_mismatches"), 0u);
}

TEST(UnstableLedger, ReplayRestartsWhenVerifierRollsAgainMidReplay) {
  Engine eng;
  UnstableLedger ledger(eng.metrics(), "t.recovery", false);
  ledger.put(BlockKey(1, 0), bytes_of(100, 1));
  ledger.put(BlockKey(1, 1), bytes_of(200, 2));
  ledger.put(BlockKey(2, 0), bytes_of(300, 3));
  // The server crashes again while the second shadow is in flight: its
  // reply carries verifier 9, so the pass must start over under 9.
  std::vector<BlockKey> sent;
  auto send = [&](const BlockKey& key,
                  BufChain data) -> Task<std::optional<uint64_t>> {
    co_await eng.sleep(1_ms);
    EXPECT_EQ(data, *ledger.find(key));
    sent.push_back(key);
    co_return sent.size() < 2 ? 8 : 9;
  };
  bool rolled = false;
  eng.run_task([](UnstableLedger& l, UnstableLedger::Send s,
                  bool& out) -> Task<void> {
    (void)co_await l.note_verf(7, true, s);
    out = co_await l.note_verf(8, true, s);
  }(ledger, send, rolled));
  EXPECT_TRUE(rolled);
  EXPECT_EQ(sent, (std::vector<BlockKey>{BlockKey(1, 0), BlockKey(1, 1),
                                         BlockKey(1, 0), BlockKey(1, 1),
                                         BlockKey(2, 0)}));
  EXPECT_EQ(ledger.verf(), std::optional<uint64_t>(9));
  auto& m = eng.metrics();
  EXPECT_EQ(m.counter_value("t.recovery.verf_mismatches"), 2u);
  EXPECT_EQ(m.counter_value("t.recovery.replays"), 1u);
  EXPECT_EQ(m.counter_value("t.recovery.replayed_bytes"), 900u);
  EXPECT_EQ(ledger.size(), 3u);  // shadows stay until the COMMIT
}

TEST(UnstableLedger, ReplaySkipsFailedSendsAndShadowsDroppedMeanwhile) {
  Engine eng;
  UnstableLedger ledger(eng.metrics(), "t.recovery", false);
  ledger.put(BlockKey(1, 0), bytes_of(100, 1));
  ledger.put(BlockKey(2, 0), bytes_of(200, 2));
  ledger.put(BlockKey(3, 0), bytes_of(300, 3));
  std::vector<BlockKey> sent;
  auto send = [&](const BlockKey& key,
                  BufChain) -> Task<std::optional<uint64_t>> {
    co_await eng.sleep(1_ms);
    sent.push_back(key);
    // File 2 is removed while the first resend is in flight.
    ledger.drop_file(2);
    if (key.fileid == 1) co_return std::nullopt;  // WRITE failed: skipped
    co_return 8;
  };
  eng.run_task([](UnstableLedger& l, UnstableLedger::Send s) -> Task<void> {
    (void)co_await l.note_verf(7, true, s);
    (void)co_await l.note_verf(8, true, s);
  }(ledger, send));
  EXPECT_EQ(sent, (std::vector<BlockKey>{BlockKey(1, 0), BlockKey(3, 0)}));
  EXPECT_EQ(eng.metrics().counter_value("t.recovery.replayed_bytes"), 300u);
}

TEST(UnstableLedger, ReplayDisabledOnlyAdoptsTheNewVerifier) {
  Engine eng;
  UnstableLedger ledger(eng.metrics(), "t.recovery", false);
  ledger.put(BlockKey(1, 0), bytes_of(100, 1));
  int sends = 0;
  auto send = [&](const BlockKey&, BufChain) -> Task<std::optional<uint64_t>> {
    ++sends;
    co_return 8;
  };
  bool rolled = false;
  eng.run_task([](UnstableLedger& l, UnstableLedger::Send s,
                  bool& out) -> Task<void> {
    (void)co_await l.note_verf(7, false, s);
    out = co_await l.note_verf(8, false, s);
  }(ledger, send, rolled));
  EXPECT_TRUE(rolled);
  EXPECT_EQ(sends, 0);
  EXPECT_EQ(ledger.verf(), std::optional<uint64_t>(8));
}

TEST(UnstableLedger, ByteGaugeTracksShadowsWhenEnabled) {
  Engine eng;
  auto& m = eng.metrics();
  UnstableLedger quiet(m, "q.recovery", false);
  quiet.put(BlockKey(1, 0), bytes_of(10, 1));
  quiet.clear();
  EXPECT_EQ(m.gauges().count("q.recovery.uncommitted_bytes"), 0u);

  UnstableLedger ledger(m, "t.recovery", true);
  ledger.put(BlockKey(1, 0), bytes_of(100, 1));
  ledger.put(BlockKey(1, 1), bytes_of(50, 1));
  ledger.put(BlockKey(1, 0), bytes_of(30, 1));  // replaces the 100
  ledger.put(BlockKey(2, 0), bytes_of(7, 1));
  EXPECT_EQ(m.gauge_value("t.recovery.uncommitted_bytes"), 87);
  ledger.drop_file(1, 1);
  EXPECT_EQ(m.gauge_value("t.recovery.uncommitted_bytes"), 37);
  EXPECT_EQ(ledger.files(), (std::set<uint64_t>{1, 2}));
  ledger.clear();
  EXPECT_EQ(m.gauge_value("t.recovery.uncommitted_bytes"), 0);
  EXPECT_EQ(ledger.size(), 0u);
}

TEST(UnstableLedger, TrimCutsAShadowToATruncatedLength) {
  Engine eng;
  auto& m = eng.metrics();
  UnstableLedger ledger(m, "t.recovery", true);
  ledger.put(BlockKey(1, 0), bytes_of(100, 1));
  ledger.trim(BlockKey(1, 0), 40);
  ledger.trim(BlockKey(1, 0), 60);  // never grows a shadow back
  ledger.trim(BlockKey(9, 0), 10);  // no shadow: nothing to do
  ASSERT_NE(ledger.find(BlockKey(1, 0)), nullptr);
  EXPECT_EQ(ledger.find(BlockKey(1, 0))->size(), 40u);
  EXPECT_EQ(m.gauge_value("t.recovery.uncommitted_bytes"), 40);
  EXPECT_EQ(ledger.size(), 1u);
}

}  // namespace
}  // namespace sgfs::nfs

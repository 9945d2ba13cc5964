// The client proxy's at-rest cache store on its own, without a Testbed: a
// host, a BlockCache and a config are all it needs (DESIGN.md §15).
//
// Pins the store's contract:
//   - a tampered, truncated, spliced or rolled-back sealed block (or name
//     entry) is never returned and counts exactly one verify failure;
//   - a burst of failures trips the bypass, and a verified hit in the
//     half-open probe re-arms caching;
//   - a mode switch and a re-key keep dirty bytes and drop clean ones;
//   - the plaintext mode draws no RNG, charges no CPU, registers no
//     storage-integrity metric and opens a block without copying it.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "common/rng.hpp"
#include "net/network.hpp"
#include "sgfs/cache_store.hpp"
#include "sim/engine.hpp"

namespace sgfs::core {
namespace {

using BlockKey = nfs::BlockKey;

constexpr size_t kBlock = 1024;
constexpr uint64_t kRngSeed = 7;

ClientProxyConfig store_config(bool sealed) {
  ClientProxyConfig config;
  config.cache.block_size = kBlock;
  config.cache.capacity_bytes = 64 * kBlock;
  config.cache.encryption = sealed;
  config.cache.poison_burst = 3;
  config.cache.poison_window = 2 * sim::kSecond;
  config.cache.bypass_duration = 5 * sim::kSecond;
  return config;
}

struct Rig {
  sim::Engine eng;
  net::Network net{eng};
  net::Host& host = net.add_host("compute");
  ClientProxyConfig config;
  nfs::BlockCache cache;
  Rng rng{kRngSeed};
  CacheStore store;

  explicit Rig(bool sealed)
      : config(store_config(sealed)),
        cache(kBlock, config.cache.capacity_bytes),
        store(host, cache, config, rng) {}

  /// The bytes `fill` writes over a whole block: a pattern unique to the
  /// key and the round.
  static Buffer pattern(const BlockKey& key, uint8_t round) {
    Buffer out(kBlock);
    for (size_t i = 0; i < kBlock; ++i) {
      out[i] = static_cast<uint8_t>(key.fileid * 31 + key.block * 7 + i +
                                    round);
    }
    return out;
  }
  void fill(const BlockKey& key, uint8_t round = 0) {
    const Buffer bytes = pattern(key, round);
    ASSERT_TRUE(store.overlay(key, kBlock, /*absorb=*/false,
                              [&](MutByteView dst) {
                                std::copy(bytes.begin(), bytes.end(),
                                          dst.begin());
                              }));
  }
  void absorb(const BlockKey& key, uint8_t round = 0) {
    const Buffer bytes = pattern(key, round);
    store.overlay(key, kBlock, /*absorb=*/true, [&](MutByteView dst) {
      std::copy(bytes.begin(), bytes.end(), dst.begin());
    });
    cache.mark_dirty(key);
  }
  Buffer at_rest(const BlockKey& key) {
    Buffer out;
    store.tamper_block(key, [&](Buffer& data) { out = data; });
    return out;
  }
  uint64_t counter(const std::string& name) const {
    return eng.metrics().counter_value(name);
  }
  uint64_t verify_failures() const {
    return counter("sgfs.cache.verify_failures");
  }
  void advance(sim::SimDur d) {
    eng.run_task([](sim::Engine& eng, sim::SimDur d) -> sim::Task<void> {
      co_await eng.sleep(d);
    }(eng, d));
  }
};

Buffer bytes_of(const CacheStore::Plaintext& p) {
  const ByteView b = p.bytes();
  return Buffer(b.begin(), b.begin() + p.valid);
}

nfs::LookupRes lookup_res(uint64_t fileid) {
  nfs::LookupRes res;
  res.fh = nfs::Fh(1, fileid);
  return res;
}

// --- sealed blocks never return what the disk lied about ---------------------

TEST(CacheStore, SealedBlockOpensToItsPlaintext) {
  Rig rig(/*sealed=*/true);
  const BlockKey key{5, 2};
  rig.fill(key);
  EXPECT_NE(rig.at_rest(key), Rig::pattern(key, 0));  // ciphertext at rest
  auto plain = rig.store.open(key);
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(bytes_of(*plain), Rig::pattern(key, 0));
  EXPECT_EQ(rig.verify_failures(), 0u);
  EXPECT_EQ(rig.counter("sgfs.cache.sealed_blocks"), 1u);
}

TEST(CacheStore, TamperedTruncatedSplicedOrRolledBackBlockIsNeverReturned) {
  const BlockKey victim{5, 2};
  const BlockKey donor{5, 3};
  struct Case {
    const char* name;
    std::function<void(Rig&)> tamper;
  };
  const std::vector<Case> cases = {
      {"flip",
       [&](Rig& rig) {
         rig.store.tamper_block(victim, [](Buffer& d) { d[17] ^= 0x04; });
       }},
      {"truncate",
       [&](Rig& rig) {
         rig.store.tamper_block(victim,
                                [](Buffer& d) { d.resize(d.size() / 2); });
       }},
      {"splice",
       [&](Rig& rig) {
         const Buffer other = rig.at_rest(donor);
         rig.store.tamper_block(victim, [&](Buffer& d) { d = other; });
       }},
      {"rollback",
       [&](Rig& rig) {
         // Yesterday's image of the same block: it verified once, under a
         // generation the store has since moved past.
         const Buffer old = rig.at_rest(victim);
         rig.fill(victim, /*round=*/1);
         rig.store.tamper_block(victim, [&](Buffer& d) { d = old; });
       }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    for (bool via_read_hit : {false, true}) {
      Rig rig(/*sealed=*/true);
      rig.fill(victim);
      rig.fill(donor);
      c.tamper(rig);
      auto got = via_read_hit ? rig.store.read_hit(victim)
                              : rig.store.open(victim);
      EXPECT_FALSE(got.has_value());
      EXPECT_EQ(rig.verify_failures(), 1u);
      EXPECT_EQ(rig.counter("sgfs.cache.poison_evictions"), 1u);
      EXPECT_EQ(rig.counter("sgfs.cache.refetches"), via_read_hit ? 1u : 0u);
      EXPECT_FALSE(rig.cache.contains(victim));
      EXPECT_TRUE(rig.store.open(donor).has_value());
      EXPECT_TRUE(rig.cache.consistent());
    }
  }
}

TEST(CacheStore, PoisonedDirtyBlockIsDroppedAndCountedAsLostBytes) {
  Rig rig(/*sealed=*/true);
  const BlockKey key{9, 0};
  rig.absorb(key);
  rig.store.tamper_block(key, [](Buffer& d) { d.back() ^= 1; });
  EXPECT_FALSE(rig.store.open(key).has_value());
  EXPECT_EQ(rig.verify_failures(), 1u);
  EXPECT_EQ(rig.store.dropped_dirty_bytes(), kBlock);
  EXPECT_FALSE(rig.cache.any_dirty());
}

TEST(CacheStore, OverlayOnAPoisonedBlockForfeitsItsOldBytes) {
  Rig rig(/*sealed=*/true);
  const BlockKey key{4, 1};
  rig.fill(key);
  rig.store.tamper_block(key, [](Buffer& d) { d[0] ^= 0x80; });
  // A short write lands over zeros, never over the lying blob's bytes.
  const Buffer head = {1, 2, 3, 4};
  EXPECT_TRUE(rig.store.overlay(key, 4, /*absorb=*/true, [&](MutByteView d) {
    std::copy(head.begin(), head.end(), d.begin());
  }));
  EXPECT_EQ(rig.verify_failures(), 1u);
  auto plain = rig.store.open(key);
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(plain->valid, 4u);
  EXPECT_EQ(bytes_of(*plain), head);
  EXPECT_TRUE(std::all_of(plain->bytes().begin() + 4, plain->bytes().end(),
                          [](uint8_t b) { return b == 0; }));
}

TEST(CacheStore, TamperedNameEntryIsNeverReturned) {
  Rig rig(/*sealed=*/true);
  rig.store.name_put(1, "victim", lookup_res(42));
  rig.store.name_put(1, "bystander", lookup_res(43));
  ASSERT_EQ(rig.store.tamperable_names().size(), 2u);
  auto hit = rig.store.name_get(1, "victim");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->fh.fileid, 42u);

  EXPECT_TRUE(rig.store.tamper_name({1, "victim"},
                                    [](Buffer& d) { d[3] ^= 0x10; }));
  EXPECT_FALSE(rig.store.name_get(1, "victim").has_value());
  EXPECT_EQ(rig.counter("sgfs.cache.name_verify_failures"), 1u);
  EXPECT_EQ(rig.verify_failures(), 1u);
  // The entry is gone (a server refetch re-learns it); its sibling is not.
  EXPECT_FALSE(rig.store.name_get(1, "victim").has_value());
  EXPECT_EQ(rig.verify_failures(), 1u);
  EXPECT_EQ(rig.store.name_get(1, "bystander")->fh.fileid, 43u);
}

// --- the poisoned-cache breaker ----------------------------------------------

TEST(CacheStore, BurstTripsBypassAndVerifiedProbeHitRearms) {
  Rig rig(/*sealed=*/true);
  const BlockKey dirty{8, 0};
  rig.absorb(dirty);
  for (uint64_t b = 0; b < 3; ++b) rig.fill({1, b});
  rig.fill({2, 0});
  for (uint64_t b = 0; b < 3; ++b) {
    EXPECT_FALSE(rig.store.bypassed());
    rig.store.tamper_block({1, b}, [](Buffer& d) { d[1] ^= 1; });
    EXPECT_FALSE(rig.store.read_hit({1, b}).has_value());
  }
  // The third failure inside the window trips the bypass: clean blocks are
  // purged, the dirty block (the only copy of its bytes) stays and serves.
  EXPECT_TRUE(rig.store.bypassed());
  EXPECT_EQ(rig.counter("sgfs.cache.bypass_entries"), 1u);
  EXPECT_FALSE(rig.cache.contains({2, 0}));
  EXPECT_TRUE(rig.store.read_hit(dirty).has_value());
  EXPECT_FALSE(rig.store.admit_fill());
  EXPECT_FALSE(rig.store.admit_write({3, 0}));
  EXPECT_TRUE(rig.store.admit_write(dirty));

  // Bypass over: half-open admits a trial fill.
  rig.advance(6 * sim::kSecond);
  EXPECT_TRUE(rig.store.admit_fill());
  EXPECT_EQ(rig.counter("sgfs.cache.probes"), 1u);
  EXPECT_FALSE(rig.store.bypassed());
  rig.fill({4, 0});
  // The trial blob comes back intact: full trust again, so one more failure
  // is a strike, not a re-trip.
  EXPECT_TRUE(rig.store.read_hit({4, 0}).has_value());
  rig.fill({4, 1});
  rig.store.tamper_block({4, 1}, [](Buffer& d) { d[1] ^= 1; });
  EXPECT_FALSE(rig.store.read_hit({4, 1}).has_value());
  EXPECT_FALSE(rig.store.bypassed());
  EXPECT_EQ(rig.counter("sgfs.cache.bypass_entries"), 1u);
}

TEST(CacheStore, FailedProbeReentersBypassAtOnce) {
  Rig rig(/*sealed=*/true);
  for (uint64_t b = 0; b < 3; ++b) {
    rig.fill({1, b});
    rig.store.tamper_block({1, b}, [](Buffer& d) { d[1] ^= 1; });
    rig.store.read_hit({1, b});
  }
  ASSERT_TRUE(rig.store.bypassed());
  rig.advance(6 * sim::kSecond);
  ASSERT_TRUE(rig.store.admit_fill());
  rig.fill({4, 0});
  rig.store.tamper_block({4, 0}, [](Buffer& d) { d[1] ^= 1; });
  EXPECT_FALSE(rig.store.read_hit({4, 0}).has_value());
  EXPECT_TRUE(rig.store.bypassed());
  EXPECT_EQ(rig.counter("sgfs.cache.bypass_entries"), 2u);
}

// --- re-key and mode switches keep dirty bytes -------------------------------

TEST(CacheStore, ModeSwitchKeepsDirtyBytesAndDropsCleanOnes) {
  Rig rig(/*sealed=*/false);
  const BlockKey dirty{3, 0};
  const BlockKey clean{3, 1};
  rig.absorb(dirty);
  rig.fill(clean);
  rig.store.name_put(1, "a", lookup_res(3));

  rig.config.cache.encryption = true;
  rig.store.reload();
  EXPECT_TRUE(rig.store.sealed());
  EXPECT_FALSE(rig.cache.contains(clean));
  EXPECT_FALSE(rig.store.name_get(1, "a").has_value());
  EXPECT_NE(rig.at_rest(dirty), Rig::pattern(dirty, 0));  // now sealed
  auto sealed = rig.store.open(dirty);
  ASSERT_TRUE(sealed.has_value());
  EXPECT_EQ(bytes_of(*sealed), Rig::pattern(dirty, 0));
  EXPECT_TRUE(rig.cache.is_dirty(dirty));

  rig.config.cache.encryption = false;
  rig.store.reload();
  EXPECT_FALSE(rig.store.sealed());
  EXPECT_EQ(rig.at_rest(dirty), Rig::pattern(dirty, 0));  // plaintext again
  EXPECT_EQ(bytes_of(*rig.store.open(dirty)), Rig::pattern(dirty, 0));
  EXPECT_EQ(rig.verify_failures(), 0u);
  EXPECT_EQ(rig.store.dropped_dirty_bytes(), 0u);
}

TEST(CacheStore, RekeyResealsDirtyBytesUnderTheNewMaster) {
  Rig rig(/*sealed=*/true);
  const BlockKey dirty{3, 0};
  const BlockKey clean{3, 1};
  rig.absorb(dirty);
  rig.fill(clean);
  rig.store.name_put(1, "a", lookup_res(3));
  const Buffer before = rig.at_rest(dirty);

  rig.store.rebind(Buffer(32, 0xab));
  EXPECT_FALSE(rig.cache.contains(clean));
  EXPECT_FALSE(rig.store.name_get(1, "a").has_value());
  EXPECT_NE(rig.at_rest(dirty), before);
  EXPECT_EQ(bytes_of(*rig.store.open(dirty)), Rig::pattern(dirty, 0));
  // The outgoing master's blob no longer verifies.
  rig.store.tamper_block(dirty, [&](Buffer& d) { d = before; });
  EXPECT_FALSE(rig.store.open(dirty).has_value());
}

// --- the plaintext mode is the paper's cache, at no extra cost ---------------

TEST(CacheStore, PlaintextModeChargesNoCpuAndDrawsNoRng) {
  Rig rig(/*sealed=*/false);
  const BlockKey key{6, 0};
  rig.fill(key);
  rig.absorb({6, 1});
  EXPECT_TRUE(rig.store.admit_fill());
  EXPECT_TRUE(rig.store.admit_write(key));
  EXPECT_FALSE(rig.store.bypassed());
  auto hit = rig.store.read_hit(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(bytes_of(*hit), Rig::pattern(key, 0));
  // A hit is a view of the resident bytes, not a copy.
  EXPECT_EQ(hit->bytes().data(), rig.cache.find(key)->data.data());
  EXPECT_EQ(rig.at_rest(key), Rig::pattern(key, 0));
  rig.store.name_put(1, "a", lookup_res(6));
  EXPECT_EQ(rig.store.name_get(1, "a")->fh.fileid, 6u);
  EXPECT_TRUE(rig.store.tamperable_names().empty());
  rig.store.reload();  // no mode change: nothing happens
  rig.store.rebind(Buffer(32, 0xcd));
  EXPECT_TRUE(rig.cache.contains(key));  // a plaintext cache is not purged

  EXPECT_EQ(rig.host.cpu().busy_total(), 0);
  Rng fresh(kRngSeed);
  EXPECT_EQ(rig.rng.next_u64(), fresh.next_u64());
  for (const auto& [name, counter] : rig.eng.metrics().counters()) {
    EXPECT_NE(name.rfind("sgfs.cache.", 0), 0u) << name << " registered";
  }

  // The negative control: sealing does both.
  Rig sealed(/*sealed=*/true);
  sealed.fill(key);
  EXPECT_GT(sealed.host.cpu().busy_total(), 0);
  Rng fresh2(kRngSeed);
  EXPECT_NE(sealed.rng.next_u64(), fresh2.next_u64());
}

TEST(CacheStore, FillNeverOverwritesADirtyBlock) {
  for (bool sealed : {false, true}) {
    Rig rig(sealed);
    const BlockKey key{2, 0};
    rig.absorb(key);
    const Buffer other = Rig::pattern(key, 9);
    EXPECT_FALSE(rig.store.overlay(key, kBlock, /*absorb=*/false,
                                   [&](MutByteView d) {
                                     std::copy(other.begin(), other.end(),
                                               d.begin());
                                   }));
    EXPECT_EQ(bytes_of(*rig.store.open(key)), Rig::pattern(key, 0));
  }
}

TEST(CacheStore, RevocationPurgeForgetsEveryBlockAndName) {
  Rig rig(/*sealed=*/true);
  rig.absorb({1, 0});
  rig.fill({1, 1});
  rig.store.name_put(1, "a", lookup_res(1));
  rig.store.purge();
  EXPECT_EQ(rig.cache.size(), 0u);
  EXPECT_EQ(rig.store.dropped_dirty_bytes(), kBlock);
  EXPECT_FALSE(rig.store.name_get(1, "a").has_value());
  EXPECT_EQ(rig.counter("sgfs.cache.revocation_purges"), 1u);
}

}  // namespace
}  // namespace sgfs::core

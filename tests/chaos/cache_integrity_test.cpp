// Storage-integrity chaos family: the client proxy's disk cache under a
// hostile scratch disk (DESIGN.md §15).
//
// Invariant: with cache_encryption on, no byte the proxy serves from its
// disk cache may differ from what the file server holds — flipped,
// truncated, spliced or stale-rolled at-rest blobs are detected on read
// (MAC + binding + generation), counted, evicted and transparently
// re-fetched.  The harness checks it four ways:
//
//   1. a seeded matrix of tamper kinds × seeds against a copy-through
//      workload, compared byte-for-byte against the preload generator and
//      tree-for-tree against a fault-free oracle run;
//   2. the paper-faithful negative control (cache_encryption = false, the
//      plaintext cache) MUST serve poisoned bytes under the same injector —
//      otherwise the matrix proves nothing;
//   3. a sustained burst of verify failures flips the proxy into
//      cache-bypass (read-through), and a clean half-open probe restores
//      caching — the PR 5 breaker idiom applied to storage;
//   4. revocation (RpcAuthError from the server proxy) purges every cached
//      plaintext byte on the client — fail closed AND forget;
//   5. a tampered sealed name binding is detected on the next LOOKUP hit
//      and re-fetched, never served as a redirected lookup.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "baselines/testbed.hpp"
#include "common/config.hpp"
#include "nfs/nfs3_client.hpp"
#include "nfs/wire_ops.hpp"

namespace sgfs {
namespace {

using baselines::SetupKind;
using baselines::Testbed;
using baselines::TestbedOptions;
using core::CacheFaultOptions;
using nfs::MountPoint;
using sim::Task;
using namespace sgfs::sim::literals;

constexpr uint64_t kBlock = 32 * 1024;

// The exact bytes Testbed::preload_file generated (same chunked Rng fill).
Buffer preload_oracle(uint64_t size, uint64_t content_seed) {
  Buffer out(size);
  Rng content(content_seed);
  constexpr size_t kFill = 1 << 20;
  Buffer chunk(kFill);
  for (uint64_t off = 0; off < size;) {
    const size_t n =
        static_cast<size_t>(std::min<uint64_t>(kFill, size - off));
    content.fill(MutByteView(chunk.data(), n));
    std::copy(chunk.begin(), chunk.begin() + n, out.begin() + off);
    off += n;
  }
  return out;
}

sim::Task<void> read_range(MountPoint& mp, int fd, uint64_t off, Buffer& out,
                           uint64_t want) {
  out.resize(want);
  uint64_t done = 0;
  while (done < want) {
    const size_t got = co_await mp.pread(
        fd, off + done,
        MutByteView(out.data() + done, static_cast<size_t>(want - done)));
    if (got == 0) break;
    done += got;
  }
  out.resize(done);
}

// --- seeded tamper matrix ----------------------------------------------------

struct TamperSpec {
  std::string name;
  uint64_t seed = 1;
  bool flips = false;
  bool truncates = false;
  bool splices = false;
  bool rollbacks = false;

  TamperSpec() = default;
  TamperSpec(std::string n, uint64_t s, bool f, bool t, bool sp, bool r)
      : name(std::move(n)),
        seed(s),
        flips(f),
        truncates(t),
        splices(sp),
        rollbacks(r) {}
};

std::ostream& operator<<(std::ostream& os, const TamperSpec& s) {
  return os << s.name;
}

struct IntegrityResult {
  Buffer read_back;           // the bytes pass 2 saw through the cache
  std::string dst_fingerprint;  // server-side dst.bin after the flush
  uint64_t verify_failures = 0;
  uint64_t refetches = 0;
  uint64_t poison_evictions = 0;
  uint64_t absorbed_reads = 0;
  uint64_t injected = 0;
  bool accounting_ok = false;

  IntegrityResult() = default;
};

uint64_t fnv1a(ByteView bytes) {
  uint64_t h = 1469598103934665603ull;
  for (uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

// Copy-through workload: pass 1 streams src.bin through the proxy cache
// (fills it), the injector gets a quiet window to poison resident blobs,
// pass 2 re-reads every block through the (possibly poisoned) cache and
// copies it into dst.bin.  A tiny kernel-client cache forces pass 2 back to
// the proxy instead of the client's own pages.
IntegrityResult run_integrity(const TamperSpec& spec, bool encryption,
                              double tamper_rate) {
  constexpr uint64_t kFileBytes = 1ull << 20;  // 32 blocks
  TestbedOptions opt;
  opt.kind = SetupKind::kSgfs;
  opt.cipher = crypto::Cipher::kNull;  // wall-clock economy; MAC stays on
  opt.proxy_disk_cache = true;
  opt.proxy_write_back = true;
  opt.cache_encryption = encryption;
  // Pin the breaker open: this matrix checks the verify-and-refetch
  // invariant in isolation; the bypass degradation has its own suite.
  opt.cache_poison_burst = 1000000;
  opt.wan_rtt = 10 * sim::kMillisecond;
  opt.client_mem_bytes = 6 * kBlock;  // kernel cache can't mask the proxy
  opt.seed = spec.seed;
  opt.cache_tamper.rate_per_s = tamper_rate;
  opt.cache_tamper.seed = spec.seed ^ 0xca5eull;
  opt.cache_tamper.flips = spec.flips;
  opt.cache_tamper.truncates = spec.truncates;
  opt.cache_tamper.splices = spec.splices;
  opt.cache_tamper.rollbacks = spec.rollbacks;
  Testbed tb(opt);
  tb.preload_file("src.bin", kFileBytes, /*warm=*/true,
                  /*content_seed=*/spec.seed + 100);

  IntegrityResult out;
  tb.engine().run_task([](Testbed& tb, IntegrityResult* out) -> Task<void> {
    auto mp = co_await tb.mount();
    int src = co_await mp->open("src.bin", nfs::kRdOnly);

    // Pass 1: sequential read populates the proxy disk cache.
    Buffer tmp;
    for (uint64_t off = 0; off < kFileBytes; off += kBlock) {
      co_await read_range(*mp, src, off, tmp, kBlock);
    }
    // Quiet window: the injector poisons resident blobs.
    co_await tb.engine().sleep(500_ms);

    // Pass 2: re-read through the cache, copy into dst.bin.
    int dst = co_await mp->open("dst.bin",
                                nfs::kWrOnly | nfs::kCreate | nfs::kTrunc);
    out->read_back.resize(kFileBytes);
    for (uint64_t off = 0; off < kFileBytes; off += kBlock) {
      co_await read_range(*mp, src, off, tmp, kBlock);
      std::copy(tmp.begin(), tmp.end(), out->read_back.begin() + off);
      co_await mp->pwrite(dst, off, tmp);
    }
    co_await mp->close(dst);
    co_await mp->close(src);
    co_await mp->flush_all();
    co_await tb.flush_session();
  }(tb, &out));
  EXPECT_TRUE(tb.engine().errors().empty())
      << (tb.engine().errors().empty() ? "" : tb.engine().errors()[0]);

  auto& m = tb.engine().metrics();
  out.verify_failures = m.counter_value("sgfs.cache.verify_failures");
  out.refetches = m.counter_value("sgfs.cache.refetches");
  out.poison_evictions = m.counter_value("sgfs.cache.poison_evictions");
  out.absorbed_reads = tb.client_proxy()->absorbed_reads();
  out.injected = tb.cache_injector() ? tb.cache_injector()->injected() : 0;
  out.accounting_ok = tb.client_proxy()->cache_accounting_consistent();
  auto dst = tb.server_fs().read_file(
      vfs::Cred(0, 0), std::string(Testbed::kDataPath) + "/dst.bin");
  EXPECT_TRUE(dst.ok());
  if (dst.ok()) {
    out.dst_fingerprint = std::to_string(dst.value.size()) + ":" +
                          std::to_string(fnv1a(ByteView(dst.value)));
  }
  return out;
}

class CacheIntegrityMatrix : public ::testing::TestWithParam<TamperSpec> {};

TEST_P(CacheIntegrityMatrix, SealedCacheNeverServesPoisonedBytes) {
  const TamperSpec& spec = GetParam();
  // ~60/s over the quiet window poisons a strict subset of the 32 resident
  // blobs: enough to trip verification (non-vacuous) while leaving clean
  // blobs for genuine absorbed hits (also non-vacuous).
  const IntegrityResult faulted =
      run_integrity(spec, /*encryption=*/true, /*tamper_rate=*/60.0);
  // Vacuousness guards: the injector actually fired, the cache actually
  // caught it, and the workload actually exercised the cache.
  EXPECT_GE(faulted.injected, 1u) << "injector never fired";
  EXPECT_GE(faulted.verify_failures, 1u)
      << "tampering never tripped verification — the matrix is vacuous";
  EXPECT_GE(faulted.absorbed_reads, 1u) << "cache never served a read";
  EXPECT_TRUE(faulted.accounting_ok);

  // The actual invariant: every byte served matched the file server, and
  // the copied tree converges to the fault-free oracle's.
  const Buffer oracle_bytes = preload_oracle(1ull << 20, spec.seed + 100);
  EXPECT_TRUE(faulted.read_back == oracle_bytes)
      << "sealed cache served corrupt bytes";
  const IntegrityResult oracle =
      run_integrity(spec, /*encryption=*/true, /*tamper_rate=*/0);
  EXPECT_EQ(oracle.verify_failures, 0u);
  EXPECT_EQ(faulted.dst_fingerprint, oracle.dst_fingerprint);
}

std::vector<TamperSpec> tamper_specs() {
  std::vector<TamperSpec> specs;
  for (uint64_t seed : {3ull, 8ull}) {
    const std::string tag = "_seed" + std::to_string(seed);
    specs.emplace_back("flip" + tag, seed, true, false, false, false);
    specs.emplace_back("truncate" + tag, seed, false, true, false, false);
    specs.emplace_back("splice" + tag, seed, false, false, true, false);
    // Rollback needs a re-seal cycle to have anything stale to install, so
    // it rides with flips (flip -> verify fail -> refetch -> new
    // generation -> the stashed old blob is now genuinely stale).
    specs.emplace_back("stale" + tag, seed, true, false, false, true);
    specs.emplace_back("mixed" + tag, seed, true, true, true, true);
  }
  return specs;
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, CacheIntegrityMatrix, ::testing::ValuesIn(tamper_specs()),
    [](const ::testing::TestParamInfo<TamperSpec>& info) {
      return info.param.name;
    });

// The paper's plaintext cache under the same injector MUST serve poisoned
// bytes: verification never fires (there is nothing to verify) and the
// copy-through diverges from the generator.  If this stops diverging, the
// sealed-cache matrix above proves nothing.
TEST(CacheIntegrityNegative, PlaintextCacheServesPoisonedBytes) {
  TamperSpec spec("neg_flip", 5, /*flips=*/true, /*truncates=*/false,
                  /*splices=*/false, /*rollbacks=*/false);
  const IntegrityResult r =
      run_integrity(spec, /*encryption=*/false, /*tamper_rate=*/1000.0);
  EXPECT_GE(r.injected, 1u);
  EXPECT_EQ(r.verify_failures, 0u)
      << "plaintext cache has no verification to fail";
  const Buffer oracle_bytes = preload_oracle(1ull << 20, spec.seed + 100);
  EXPECT_FALSE(r.read_back == oracle_bytes)
      << "the negative control served clean bytes — tampering is vacuous";
}

// --- poisoned-cache degradation: bypass + half-open probe --------------------

TEST(CacheBypassAndProbe, SustainedTamperingTripsBypassCleanProbeRestores) {
  constexpr uint64_t kFileBytes = 8 * kBlock;
  TestbedOptions opt;
  opt.kind = SetupKind::kSgfs;
  opt.cipher = crypto::Cipher::kNull;
  opt.proxy_disk_cache = true;
  opt.cache_encryption = true;
  opt.cache_poison_burst = 3;
  opt.cache_bypass = 300 * sim::kMillisecond;
  opt.wan_rtt = 10 * sim::kMillisecond;
  opt.client_mem_bytes = 2 * kBlock;
  Testbed tb(opt);
  tb.preload_file("probe.bin", kFileBytes, /*warm=*/true, /*content_seed=*/9);
  const Buffer oracle = preload_oracle(kFileBytes, 9);

  tb.engine().run_task([](Testbed& tb, const Buffer& oracle) -> Task<void> {
    auto* proxy = tb.client_proxy();
    auto& m = tb.engine().metrics();
    auto mp = co_await tb.mount();
    int fd = co_await mp->open("probe.bin", nfs::kRdOnly);

    Buffer tmp;
    auto check_block = [&](uint64_t block) -> Task<void> {
      co_await read_range(*mp, fd, block * kBlock, tmp, kBlock);
      EXPECT_TRUE(std::equal(tmp.begin(), tmp.end(),
                             oracle.begin() + block * kBlock))
          << "served bytes diverged at block " << block;
    };

    // Fill the cache, then prove it serves hits.
    for (uint64_t b = 0; b < kFileBytes / kBlock; ++b) co_await check_block(b);
    const uint64_t warm_absorbed = proxy->absorbed_reads();
    co_await check_block(0);
    EXPECT_GT(proxy->absorbed_reads(), warm_absorbed);

    // Three poisoned reads inside the window: strike out into bypass.
    Rng vandal(77);
    for (int strike = 0; strike < 3; ++strike) {
      auto keys = proxy->tamperable_blocks();
      EXPECT_FALSE(keys.empty());
      if (keys.empty()) co_return;
      const auto victim = keys[vandal.next_below(keys.size())];
      proxy->tamper_block(victim, [&](Buffer& data) {
        ASSERT_FALSE(data.empty());
        data[vandal.next_below(data.size())] ^= 0x40;
      });
      co_await check_block(victim.block);  // detected, refetched, correct
    }
    EXPECT_TRUE(proxy->cache_bypassed());
    EXPECT_EQ(m.counter_value("sgfs.cache.bypass_entries"), 1u);
    EXPECT_EQ(m.counter_value("sgfs.cache.verify_failures"), 3u);
    EXPECT_EQ(proxy->resident_blocks(), 0u)  // clean blobs purged at entry
        << "bypass entry left untrusted blobs resident";

    // During bypass: reads stay correct (read-through) and nothing refills.
    for (uint64_t b = 0; b < 4; ++b) co_await check_block(b);
    EXPECT_EQ(proxy->resident_blocks(), 0u);

    // Past the bypass window the next fill opens the half-open probe: the
    // trial blob is cached, and its next verified hit restores full trust.
    co_await tb.engine().sleep(400_ms);
    co_await check_block(5);  // probe fill
    EXPECT_GE(m.counter_value("sgfs.cache.probes"), 1u);
    EXPECT_FALSE(proxy->cache_bypassed());
    // Thrash the 2-block kernel cache so the next read of block 5 provably
    // reaches the proxy instead of the client's own pages.
    co_await check_block(6);
    co_await check_block(7);
    const uint64_t before = proxy->absorbed_reads();
    co_await check_block(5);  // trial blob verifies: a genuine cache hit
    EXPECT_GT(proxy->absorbed_reads(), before);
    EXPECT_FALSE(proxy->cache_bypassed());
    EXPECT_TRUE(proxy->cache_accounting_consistent());
    co_await mp->close(fd);
  }(tb, oracle));
  EXPECT_TRUE(tb.engine().errors().empty())
      << (tb.engine().errors().empty() ? "" : tb.engine().errors()[0]);
}

// A failed probe must re-enter bypass, not resume serving from a disk that
// is still hostile.
TEST(CacheBypassAndProbe, PoisonedProbeReentersBypass) {
  constexpr uint64_t kFileBytes = 4 * kBlock;
  TestbedOptions opt;
  opt.kind = SetupKind::kSgfs;
  opt.cipher = crypto::Cipher::kNull;
  opt.proxy_disk_cache = true;
  opt.cache_encryption = true;
  opt.cache_poison_burst = 2;
  opt.cache_bypass = 200 * sim::kMillisecond;
  opt.wan_rtt = 10 * sim::kMillisecond;
  opt.client_mem_bytes = 2 * kBlock;
  Testbed tb(opt);
  tb.preload_file("hostile.bin", kFileBytes, /*warm=*/true,
                  /*content_seed=*/11);
  const Buffer oracle = preload_oracle(kFileBytes, 11);

  tb.engine().run_task([](Testbed& tb, const Buffer& oracle) -> Task<void> {
    auto* proxy = tb.client_proxy();
    auto& m = tb.engine().metrics();
    auto mp = co_await tb.mount();
    int fd = co_await mp->open("hostile.bin", nfs::kRdOnly);

    Buffer tmp;
    auto poison_all = [&] {
      for (const auto& key : proxy->tamperable_blocks()) {
        proxy->tamper_block(key, [](Buffer& data) {
          if (!data.empty()) data[0] ^= 0x01;
        });
      }
    };

    for (uint64_t b = 0; b < kFileBytes / kBlock; ++b) {
      co_await read_range(*mp, fd, b * kBlock, tmp, kBlock);
    }
    // Strike until bypass trips (burst = 2).  Cycling all four blocks
    // guarantees proxy-reaching reads regardless of which two the tiny
    // kernel cache happens to hold; every poisoned blob the proxy touches
    // is a strike, and the bound keeps a broken breaker from looping.
    for (int i = 0; i < 16 && !proxy->cache_bypassed(); ++i) {
      poison_all();
      co_await read_range(*mp, fd, (i % 4) * kBlock, tmp, kBlock);
    }
    EXPECT_TRUE(proxy->cache_bypassed());
    EXPECT_EQ(m.counter_value("sgfs.cache.bypass_entries"), 1u);

    // The probe fill lands on a still-hostile disk: poison it the moment it
    // comes to rest, read it back — the trial hit fails verification and
    // bypass re-arms.  The two scrub reads evict block 1 from the kernel
    // cache so the trial read-back provably reaches the proxy.
    co_await tb.engine().sleep(250_ms);
    co_await read_range(*mp, fd, kBlock, tmp, kBlock);      // probe fill
    co_await read_range(*mp, fd, 2 * kBlock, tmp, kBlock);  // scrub
    co_await read_range(*mp, fd, 3 * kBlock, tmp, kBlock);  // scrub
    poison_all();
    co_await read_range(*mp, fd, kBlock, tmp, kBlock);  // trial read-back
    EXPECT_TRUE(std::equal(tmp.begin(), tmp.end(), oracle.begin() + kBlock));
    EXPECT_GE(m.counter_value("sgfs.cache.bypass_entries"), 2u)
        << "a poisoned probe must re-enter bypass";
    EXPECT_TRUE(proxy->cache_bypassed());
    co_await mp->close(fd);
  }(tb, oracle));
  EXPECT_TRUE(tb.engine().errors().empty())
      << (tb.engine().errors().empty() ? "" : tb.engine().errors()[0]);
}

// --- revocation purges cached plaintext --------------------------------------

// When the server proxy revokes this session's DN, the very next RPC fails
// closed (PR 8) — and, new here, the client proxy must also FORGET: every
// cached data block, attribute, name and access grant is dropped, so a
// revoked grid node retains no readable plaintext of the files it lost
// access to.
TEST(CacheRevocationPurge, RevokedSessionDropsEveryCachedByte) {
  TestbedOptions opt;
  opt.kind = SetupKind::kSgfs;
  opt.cipher = crypto::Cipher::kNull;
  opt.proxy_disk_cache = true;
  opt.cache_encryption = true;
  opt.key_regression = true;
  opt.wan_rtt = 10 * sim::kMillisecond;
  opt.client_mem_bytes = 2 * kBlock;
  Testbed tb(opt);
  tb.preload_file("secret.bin", 4 * kBlock, /*warm=*/true,
                  /*content_seed=*/13);

  tb.engine().run_task([](Testbed& tb) -> Task<void> {
    auto* proxy = tb.client_proxy();
    auto& m = tb.engine().metrics();
    // Provision the content-key epoch: the cache master is now bound to it.
    proxy->note_epoch_secret(tb.server_proxy()->session_epoch_secret(),
                             tb.server_proxy()->session_epoch());
    auto mp = co_await tb.mount();
    int fd = co_await mp->open("secret.bin", nfs::kRdOnly);
    Buffer tmp;
    for (int pass = 0; pass < 2; ++pass) {
      for (uint64_t b = 0; b < 4; ++b) {
        co_await read_range(*mp, fd, b * kBlock, tmp, kBlock);
      }
    }
    EXPECT_GE(proxy->absorbed_reads(), 1u);
    EXPECT_GE(proxy->resident_blocks(), 4u);

    tb.server_proxy()->revoke_dn(
        crypto::DistinguishedName("UFL", "griduser"));

    // Next op: the generation bump rejects the session — fail closed AND
    // forget everything it cached.
    bool denied = false;
    try {
      co_await mp->chmod("secret.bin", 0600);
    } catch (const std::exception&) {
      denied = true;
    }
    EXPECT_TRUE(denied);
    EXPECT_EQ(m.counter_value("sgfs.cache.revocation_purges"), 1u);
    EXPECT_EQ(proxy->resident_blocks(), 0u)
        << "revoked proxy still holds cached data blocks";
    EXPECT_EQ(proxy->cache_bytes_used(), 0u);
    EXPECT_TRUE(proxy->cache_accounting_consistent());
  }(tb));
}

// --- cache accounting invariant under mixed eviction pressure ---------------

// Poison evictions, LRU capacity evictions, unlink and truncate all
// manipulate the same cache bookkeeping; one seeded run drives all of them
// at once and the LRU order and dirty index must still agree with the
// resident blocks at the end.
TEST(CacheAccountingInvariant, HoldsAcrossPoisonLruUnlinkAndTruncate) {
  TestbedOptions opt;
  opt.kind = SetupKind::kSgfs;
  opt.cipher = crypto::Cipher::kNull;
  opt.proxy_disk_cache = true;
  opt.proxy_write_back = true;
  opt.cache_encryption = true;
  opt.cache_capacity_bytes = 8 * kBlock;  // tiny: constant LRU pressure
  opt.cache_poison_burst = 100000;        // keep caching active throughout
  opt.wan_rtt = 10 * sim::kMillisecond;
  opt.client_mem_bytes = 4 * kBlock;
  opt.seed = 21;
  opt.cache_tamper.rate_per_s = 300.0;
  opt.cache_tamper.seed = 2121;
  Testbed tb(opt);
  for (int i = 0; i < 3; ++i) {
    tb.preload_file("f" + std::to_string(i) + ".bin", 16 * kBlock,
                    /*warm=*/true, /*content_seed=*/30 + i);
  }

  tb.engine().run_task([](Testbed& tb) -> Task<void> {
    auto mp = co_await tb.mount();
    Rng rng(4242);
    Buffer tmp;
    std::vector<int> fds;
    for (int i = 0; i < 3; ++i) {
      fds.push_back(
          co_await mp->open("f" + std::to_string(i) + ".bin", nfs::kRdWr));
    }
    for (int round = 0; round < 60; ++round) {
      const int f = static_cast<int>(rng.next_below(fds.size()));
      const uint64_t block = rng.next_below(16);
      if (rng.next_below(4) == 0) {
        Buffer data = rng.bytes(kBlock);
        co_await mp->pwrite(fds[f], block * kBlock, data);
      } else {
        co_await read_range(*mp, fds[f], block * kBlock, tmp, kBlock);
      }
      if (round == 30) {
        co_await mp->fsync(fds[0]);
      }
    }
    for (int fd : fds) co_await mp->close(fd);
    // Truncate one file (SETATTR size drops its blocks) and unlink another.
    int fd = co_await mp->open("f1.bin",
                               nfs::kWrOnly | nfs::kTrunc);
    co_await mp->close(fd);
    co_await mp->unlink("f2.bin");
    co_await mp->flush_all();
    co_await tb.flush_session();
  }(tb));
  EXPECT_TRUE(tb.engine().errors().empty())
      << (tb.engine().errors().empty() ? "" : tb.engine().errors()[0]);

  auto& m = tb.engine().metrics();
  ASSERT_NE(tb.cache_injector(), nullptr);
  EXPECT_GE(tb.cache_injector()->injected(), 1u);
  EXPECT_GE(m.counter_value("sgfs.cache.verify_failures"), 1u);
  EXPECT_GE(m.counter_value("sgfs.cache.poison_evictions"), 1u);
  EXPECT_TRUE(tb.client_proxy()->cache_accounting_consistent())
      << "used=" << tb.client_proxy()->cache_bytes_used() << " resident="
      << tb.client_proxy()->resident_blocks();
}

// --- mid-session reconfiguration ---------------------------------------------

// Toggling cache_encryption and shrinking the capacity through reload()
// must never serve stale-keyed blobs or keep the cache over budget: flip-off
// purges every sealed clean blob and opens the dirty ones in place, flip-on
// purges plaintext and seals the dirty ones, shrink evicts clean LRU
// victims synchronously.
TEST(CacheReconfigure, EncryptionTogglesAndCapacityShrinkMidSession) {
  constexpr uint64_t kFileBytes = 8 * kBlock;
  TestbedOptions opt;
  opt.kind = SetupKind::kSgfs;
  opt.cipher = crypto::Cipher::kNull;
  opt.proxy_disk_cache = true;
  opt.proxy_write_back = true;
  opt.cache_encryption = true;
  opt.wan_rtt = 10 * sim::kMillisecond;
  opt.client_mem_bytes = 2 * kBlock;
  Testbed tb(opt);
  tb.preload_file("src.bin", kFileBytes, /*warm=*/true, /*content_seed=*/17);
  const Buffer oracle = preload_oracle(kFileBytes, 17);

  Rng content(555);
  const Buffer payload = content.bytes(2 * kBlock);

  tb.engine().run_task(
      [](Testbed& tb, const Buffer& oracle, const Buffer& payload)
          -> Task<void> {
        auto* proxy = tb.client_proxy();
        auto mp = co_await tb.mount();
        int src = co_await mp->open("src.bin", nfs::kRdOnly);
        Buffer tmp;
        for (uint64_t b = 0; b < kFileBytes / kBlock; ++b) {
          co_await read_range(*mp, src, b * kBlock, tmp, kBlock);
        }
        // Park two dirty blocks in the write-back cache.
        int dst = co_await mp->open("dst.bin", nfs::kWrOnly | nfs::kCreate);
        co_await mp->pwrite(dst, 0, payload);
        co_await mp->fsync(dst);  // absorbed COMMIT: blocks stay dirty here
        EXPECT_GE(proxy->dirty_bytes(), payload.size());
        const size_t resident_before = proxy->resident_blocks();

        // Flip encryption OFF: sealed clean blobs are untrusted-at-rest
        // history — purged; dirty blocks are opened in place and survive.
        auto cfg = proxy->config();
        cfg.cache.encryption = false;
        proxy->reload(cfg);
        EXPECT_TRUE(proxy->cache_accounting_consistent());
        EXPECT_LT(proxy->resident_blocks(), resident_before);
        EXPECT_GE(proxy->dirty_bytes(), payload.size())
            << "flip-off dropped dirty data";

        // Reads re-fetch and still match the server.
        co_await read_range(*mp, src, 0, tmp, kBlock);
        EXPECT_TRUE(std::equal(tmp.begin(), tmp.end(), oracle.begin()));

        // Flip encryption back ON: plaintext blobs purged, dirty re-sealed.
        cfg = proxy->config();
        cfg.cache.encryption = true;
        proxy->reload(cfg);
        EXPECT_TRUE(proxy->cache_accounting_consistent());
        EXPECT_GE(proxy->dirty_bytes(), payload.size())
            << "flip-on dropped dirty data";
        co_await read_range(*mp, src, kBlock, tmp, kBlock);
        EXPECT_TRUE(
            std::equal(tmp.begin(), tmp.end(), oracle.begin() + kBlock));

        // The twice-converted dirty blocks flush correct bytes.
        co_await mp->close(dst);
        co_await mp->close(src);
        co_await mp->flush_all();
        co_await tb.flush_session();
        auto got = tb.server_fs().read_file(
            vfs::Cred(0, 0), std::string(Testbed::kDataPath) + "/dst.bin");
        EXPECT_TRUE(got.ok());
        EXPECT_TRUE(got.ok() && got.value == payload)
            << "dirty data corrupted across encryption toggles";
      }(tb, oracle, payload));
  EXPECT_TRUE(tb.engine().errors().empty())
      << (tb.engine().errors().empty() ? "" : tb.engine().errors()[0]);
}

// Shrinking capacity through reload() evicts synchronously — no waiting for
// the next op's evict_if_needed.
TEST(CacheReconfigure, CapacityShrinkEvictsSynchronously) {
  constexpr uint64_t kFileBytes = 8 * kBlock;
  TestbedOptions opt;
  opt.kind = SetupKind::kSgfs;
  opt.cipher = crypto::Cipher::kNull;
  opt.proxy_disk_cache = true;
  opt.cache_encryption = true;
  opt.wan_rtt = 10 * sim::kMillisecond;
  opt.client_mem_bytes = 2 * kBlock;
  Testbed tb(opt);
  tb.preload_file("big.bin", kFileBytes, /*warm=*/true, /*content_seed=*/23);
  const Buffer oracle = preload_oracle(kFileBytes, 23);

  tb.engine().run_task([](Testbed& tb, const Buffer& oracle) -> Task<void> {
    auto* proxy = tb.client_proxy();
    auto mp = co_await tb.mount();
    int fd = co_await mp->open("big.bin", nfs::kRdOnly);
    Buffer tmp;
    for (uint64_t b = 0; b < kFileBytes / kBlock; ++b) {
      co_await read_range(*mp, fd, b * kBlock, tmp, kBlock);
    }
    EXPECT_EQ(proxy->resident_blocks(), kFileBytes / kBlock);

    auto cfg = proxy->config();
    cfg.cache.capacity_bytes = 2 * kBlock;
    proxy->reload(cfg);
    EXPECT_LE(proxy->cache_bytes_used(), 2 * kBlock);
    EXPECT_TRUE(proxy->cache_accounting_consistent());

    // Still correct after the shrink.
    co_await read_range(*mp, fd, 3 * kBlock, tmp, kBlock);
    EXPECT_TRUE(
        std::equal(tmp.begin(), tmp.end(), oracle.begin() + 3 * kBlock));
    co_await mp->close(fd);
  }(tb, oracle));
  EXPECT_TRUE(tb.engine().errors().empty())
      << (tb.engine().errors().empty() ? "" : tb.engine().errors()[0]);
}

// The [cache] configuration text round-trips the new knobs.
TEST(CacheReconfigure, ConfigTextRoundTripsEncryptionKnobs) {
  core::CacheConfig cache;
  cache.encryption = true;
  cache.poison_burst = 5;
  cache.poison_window = 7 * sim::kSecond;
  cache.bypass_duration = 9 * sim::kSecond;
  crypto::SecurityConfig security;

  const std::string text = core::to_config_text(cache, security);
  core::CacheConfig cache2;
  crypto::SecurityConfig security2;
  core::apply_config_text(Config::parse(text), cache2, security2);
  EXPECT_TRUE(cache2.encryption);
  EXPECT_EQ(cache2.poison_burst, 5);
  EXPECT_EQ(cache2.poison_window, 7 * sim::kSecond);
  EXPECT_EQ(cache2.bypass_duration, 9 * sim::kSecond);
}

// --- sealed name/fileid lookup table -----------------------------------------

// A tampered sealed name entry must fail closed on the next LOOKUP hit:
// detected (MAC), dropped, transparently re-fetched from the origin — the
// redirection attack surfaces as a counter, never as a wrong binding.
TEST(NameTableIntegrity, TamperedBindingIsDetectedAndRefetched) {
  TestbedOptions opt;
  opt.kind = SetupKind::kSgfs;
  opt.cipher = crypto::Cipher::kNull;
  opt.proxy_disk_cache = true;
  opt.cache_encryption = true;
  opt.wan_rtt = 10 * sim::kMillisecond;
  Testbed tb(opt);
  tb.preload_file("a.bin", kBlock, /*warm=*/true, /*content_seed=*/31);
  tb.preload_file("b.bin", kBlock, /*warm=*/true, /*content_seed=*/32);

  tb.engine().run_task([](Testbed& tb) -> Task<void> {
    auto* proxy = tb.client_proxy();
    auto& m = tb.engine().metrics();
    // Straight to the proxy's NFS port: the kernel client's dnlc would
    // otherwise absorb the second LOOKUP and mask the verification.
    auto ops = co_await nfs::V3WireOps::connect(
        tb.client_host(),
        net::Address(tb.client_host().name(), 2049),
        rpc::AuthSys(Testbed::kGridUid, Testbed::kGridUid, "client"));
    nfs::Fh root = co_await ops->mount(Testbed::kDataPath);

    nfs::LookupRes first = co_await ops->lookup(root, "a.bin");
    EXPECT_EQ(first.status, nfs::Status::kOk);
    co_await ops->lookup(root, "b.bin");

    // The sealed table now holds both bindings.
    auto keys = proxy->tamperable_names();
    EXPECT_EQ(keys.size(), 2u);

    // Clean repeat: served from the sealed table, same binding.
    nfs::LookupRes again = co_await ops->lookup(root, "a.bin");
    EXPECT_EQ(again.fh.fileid, first.fh.fileid);
    EXPECT_EQ(m.counter_value("sgfs.cache.name_verify_failures"), 0u);

    // Flip one bit in every sealed entry; the next lookups must detect,
    // refetch and still resolve to the true binding.
    for (const auto& key : keys) {
      EXPECT_TRUE(proxy->tamper_name(key, [](Buffer& data) {
        EXPECT_FALSE(data.empty());
        if (!data.empty()) data[data.size() / 2] ^= 0x10;
      }));
    }
    nfs::LookupRes after = co_await ops->lookup(root, "a.bin");
    EXPECT_EQ(after.status, nfs::Status::kOk);
    EXPECT_EQ(after.fh.fileid, first.fh.fileid)
        << "tampered name table redirected a lookup";
    EXPECT_GE(m.counter_value("sgfs.cache.name_verify_failures"), 1u)
        << "tampering never tripped the name-table MAC";
    ops->close();
  }(tb));
  EXPECT_TRUE(tb.engine().errors().empty())
      << (tb.engine().errors().empty() ? "" : tb.engine().errors()[0]);
}

// The storage-fault injector's name dial drives the same detection path
// end to end, seeded and rate-based (the chaos-matrix integration).
TEST(NameTableIntegrity, InjectorNameDialFiresAndNeverCorruptsResolution) {
  TestbedOptions opt;
  opt.kind = SetupKind::kSgfs;
  opt.cipher = crypto::Cipher::kNull;
  opt.proxy_disk_cache = true;
  opt.cache_encryption = true;
  opt.wan_rtt = 10 * sim::kMillisecond;
  opt.seed = 44;
  opt.cache_tamper.rate_per_s = 400.0;
  opt.cache_tamper.names = true;
  opt.cache_tamper.seed = 4444;
  Testbed tb(opt);
  for (int i = 0; i < 4; ++i) {
    tb.preload_file("f" + std::to_string(i) + ".bin", kBlock,
                    /*warm=*/true, /*content_seed=*/50 + i);
  }

  tb.engine().run_task([](Testbed& tb) -> Task<void> {
    auto ops = co_await nfs::V3WireOps::connect(
        tb.client_host(),
        net::Address(tb.client_host().name(), 2049),
        rpc::AuthSys(Testbed::kGridUid, Testbed::kGridUid, "client"));
    nfs::Fh root = co_await ops->mount(Testbed::kDataPath);
    std::vector<uint64_t> fileids(4, 0);
    for (int round = 0; round < 40; ++round) {
      const int f = round % 4;
      nfs::LookupRes r =
          co_await ops->lookup(root, "f" + std::to_string(f) + ".bin");
      EXPECT_EQ(r.status, nfs::Status::kOk);
      if (fileids[static_cast<size_t>(f)] == 0) {
        fileids[static_cast<size_t>(f)] = r.fh.fileid;
      } else {
        EXPECT_EQ(r.fh.fileid, fileids[static_cast<size_t>(f)])
            << "binding for f" << f << " drifted under tampering";
      }
      co_await tb.engine().sleep(25_ms);
    }
    ops->close();
  }(tb));
  EXPECT_TRUE(tb.engine().errors().empty())
      << (tb.engine().errors().empty() ? "" : tb.engine().errors()[0]);

  auto& m = tb.engine().metrics();
  EXPECT_GE(m.counter_value("sgfs.cachefault.name_tampers"), 1u)
      << "the name dial never fired — the integration is vacuous";
  EXPECT_GE(m.counter_value("sgfs.cache.name_verify_failures"), 1u)
      << "name tampering never tripped verification";
}

}  // namespace
}  // namespace sgfs

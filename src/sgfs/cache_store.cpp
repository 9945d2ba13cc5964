#include "sgfs/cache_store.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "crypto/key_regression.hpp"
#include "sgfs/shard_map.hpp"
#include "xdr/xdr.hpp"

namespace sgfs::core {

CacheStore::CacheStore(net::Host& host, nfs::BlockCache& cache,
                       const ClientProxyConfig& config, Rng& rng)
    : host_(host),
      cache_(cache),
      config_(config),
      rng_(rng),
      sealed_(config.cache.encryption),
      breaker_(breaker_policy()) {
  auto& m = host.engine().metrics();
  m_sealed_blocks_ = {m, "sgfs.cache.sealed_blocks"};
  m_verify_failures_ = {m, "sgfs.cache.verify_failures"};
  m_poison_evictions_ = {m, "sgfs.cache.poison_evictions"};
  m_refetches_ = {m, "sgfs.cache.refetches"};
  m_bypass_entries_ = {m, "sgfs.cache.bypass_entries"};
  m_probes_ = {m, "sgfs.cache.probes"};
  m_revocation_purges_ = {m, "sgfs.cache.revocation_purges"};
  m_name_verify_failures_ = {m, "sgfs.cache.name_verify_failures"};
  // Drawn only when sealing: plaintext runs keep their exact RNG stream.
  if (sealed_) master_ = rng_.bytes(crypto::KeyRegression::kSecretSize);
}

TrustBreaker::Policy CacheStore::breaker_policy() const {
  TrustBreaker::Policy p;
  p.burst = config_.cache.poison_burst;
  p.window = config_.cache.poison_window;
  p.open_duration = config_.cache.bypass_duration;
  return p;
}

// --- keys --------------------------------------------------------------------

const crypto::SealKeys& CacheStore::file_keys(uint64_t fileid) {
  auto [it, fresh] = file_keys_.try_emplace(fileid);
  if (fresh) it->second = crypto::derive_seal_keys(master_, fileid);
  return it->second;
}

// The name table has the data blocks' threat model: a scratch disk that can
// swap one name's binding for another redirects a victim's open() to an
// attacker-chosen file.  Entries are sealed under a dedicated sub-master
// with the directory fileid as the key-schedule file and the name's hash as
// the block index.
const crypto::SealKeys& CacheStore::name_keys(uint64_t dir) {
  if (name_master_.empty()) {
    name_master_ = crypto::derive(ByteView(master_), "sgfs name table",
                                  ByteView(), master_.size());
  }
  auto [it, fresh] = name_keys_.try_emplace(dir);
  if (fresh) it->second = crypto::derive_seal_keys(name_master_, dir);
  return it->second;
}

void CacheStore::forget_keys() {
  file_keys_.clear();
  name_keys_.clear();
  name_master_.clear();
}

sim::SimDur CacheStore::seal_cost(size_t bytes) const {
  // One cipher pass plus one MAC pass, at the session's crypto-cost rates
  // (the at-rest seal is always AES-256 + HMAC, even over a kNull wire).
  return config_.security.cost.record_cost(crypto::Cipher::kAes256Cbc,
                                           crypto::MacAlgo::kHmacSha1, bytes);
}

// --- data blocks -------------------------------------------------------------

std::optional<Buffer> CacheStore::unseal(const Block& b, const BlockKey& key) {
  if (b.generation == 0) return std::nullopt;  // never sealed
  host_.cpu().charge(seal_cost(b.data.size()), "crypto");
  return crypto::unseal_block(file_keys(key.fileid), key.fileid, key.block,
                              b.generation,
                              ByteView(b.data.data(), b.data.size()));
}

void CacheStore::store(Block& b, const BlockKey& key, Buffer plaintext) {
  if (!sealed_) {
    b.data = std::move(plaintext);
    b.generation = 0;
    return;
  }
  b.generation = ++seal_clock_;
  b.data = crypto::seal_block(file_keys(key.fileid), key.fileid, key.block,
                              b.generation, ByteView(plaintext));
  host_.cpu().charge(seal_cost(plaintext.size()), "crypto");
  m_sealed_blocks_.inc();
}

std::optional<CacheStore::Plaintext> CacheStore::open(const BlockKey& key) {
  const Block* b = cache_.find(key);
  if (!b) return std::nullopt;
  if (!sealed_) return Plaintext{b->valid, ByteView(b->data), std::nullopt};
  if (auto plain = unseal(*b, key)) {
    return Plaintext{b->valid, ByteView(), std::move(plain)};
  }
  note_verify_failure();
  poison_evict(key);
  return std::nullopt;
}

std::optional<CacheStore::Plaintext> CacheStore::read_hit(
    const BlockKey& key) {
  if (bypassed() && !cache_.is_dirty(key)) return std::nullopt;
  auto plain = open(key);
  if (!plain) {
    // The scratch disk lied: the caller re-fetches from the server.
    m_refetches_.inc();
  } else if (breaker_.state() == TrustBreaker::State::kProbe) {
    // A trial blob survived at rest and verified: the disk is behaving
    // again, re-arm full caching.
    breaker_.note_success();
    SGFS_INFO("sgfs-proxy", "cache probe clean: caching re-enabled");
  }
  return plain;
}

bool CacheStore::overlay(const BlockKey& key, uint32_t valid, bool absorb,
                         const std::function<void(MutByteView)>& copy_in) {
  if (!absorb && cache_.is_dirty(key)) return false;
  if (!sealed_) {
    Block& b = cache_.insert(key);
    copy_in(MutByteView(b.data.data(), b.data.size()));
    b.valid = std::max(b.valid, valid);
    return true;
  }
  // Stage the full plaintext block (old verified contents overlaid with the
  // new bytes), then seal it at a new generation.  A failed verification
  // forfeits the old contents: the server still holds them, so nothing
  // corrupt is ever served or written back.
  const size_t bs = config_.cache.block_size;
  Buffer stage(bs, 0);
  uint32_t old_valid = 0;
  if (cache_.contains(key)) {
    if (auto old = open(key)) {
      old_valid = old->valid;
      stage = std::move(*old->unsealed);
      stage.resize(bs, 0);
    } else if (!absorb && bypassed()) {
      return false;
    }
  }
  copy_in(MutByteView(stage.data(), stage.size()));
  Block& b = cache_.insert(key);
  b.valid = std::max(old_valid, valid);
  store(b, key, std::move(stage));
  return true;
}

// --- poisoned-cache breaker --------------------------------------------------

void CacheStore::note_verify_failure() {
  m_verify_failures_.inc();
  const bool was_active = breaker_.state() == TrustBreaker::State::kActive;
  if (!breaker_.note_failure(host_.engine().now())) return;
  m_bypass_entries_.inc();
  if (was_active) {
    // Sustained tampering: stop trusting the scratch disk.  Clean blocks
    // are dropped (they would keep failing anyway); dirty blocks are the
    // only copy of absorbed writes and stay until flush.  A failed
    // half-open probe goes straight back to bypass without a re-purge (the
    // probe fill is the only clean block to have landed since).
    cache_.erase_clean();
    SGFS_WARN("sgfs-proxy", "poisoned cache: entering bypass for ",
              config_.cache.bypass_duration / sim::kMillisecond, " ms");
  }
}

void CacheStore::poison_evict(const BlockKey& key) {
  if (!cache_.contains(key)) return;
  // A tampered dirty block is unrecoverable (the cache held the only copy):
  // surface nothing corrupt, account the loss like a cancelled write-back.
  dropped_dirty_bytes_ += cache_.erase(key);
  m_poison_evictions_.inc();
}

bool CacheStore::admit_fill() {
  const bool was_open = bypassed();
  const bool ok = breaker_.admitting(host_.engine().now());
  if (was_open && ok) {
    // Bypass window over: half-open.  Fills are admitted on trial; the
    // cache earns back full trust only when a trial blob verifies on its
    // next hit, i.e. after it has actually rested on the suspect disk.
    m_probes_.inc();
    SGFS_INFO("sgfs-proxy", "cache half-open: probing the scratch disk");
  }
  return ok;
}

bool CacheStore::admit_write(const BlockKey& key) {
  return admit_fill() || cache_.is_dirty(key);
}

// --- name table --------------------------------------------------------------

void CacheStore::name_put(uint64_t dir, const std::string& name,
                          const nfs::LookupRes& res) {
  NameEntry& e = names_[{dir, name}];
  if (!sealed_) {
    e.res = res;
    return;
  }
  xdr::Encoder enc;  // flat: the blob is sealed in place, never chained
  enc(res);
  Buffer plain = enc.take_flat();
  e.generation = ++seal_clock_;
  e.sealed = crypto::seal_block(name_keys(dir), dir, shard_hash(name),
                                e.generation, ByteView(plain));
  host_.cpu().charge(seal_cost(plain.size()), "crypto");
}

std::optional<nfs::LookupRes> CacheStore::name_get(uint64_t dir,
                                                   const std::string& name) {
  auto it = names_.find({dir, name});
  if (it == names_.end()) return std::nullopt;
  NameEntry& e = it->second;
  if (!sealed_) return e.res;
  host_.cpu().charge(seal_cost(e.sealed.size()), "crypto");
  auto plain = crypto::unseal_block(name_keys(dir), dir, shard_hash(name),
                                    e.generation, ByteView(e.sealed));
  if (plain) {
    try {
      xdr::Decoder dec{ByteView(*plain)};
      nfs::LookupRes res;
      dec(res);
      dec.expect_done();
      return res;
    } catch (const xdr::XdrError&) {
      // MAC passed but the payload is malformed: treat as tampering.
    }
  }
  m_name_verify_failures_.inc();
  names_.erase(it);
  SGFS_WARN("sgfs-proxy", "name table entry failed verification: dir ", dir,
            " name ", name);
  note_verify_failure();
  return std::nullopt;
}

// --- key and mode changes ----------------------------------------------------

int CacheStore::carry_dirty(const std::function<void()>& switch_keys) {
  std::map<BlockKey, Buffer> plain;
  int failed = 0;
  for (const BlockKey& key : cache_.keys()) {
    if (!cache_.is_dirty(key)) continue;
    const Block& b = *cache_.find(key);
    auto bytes = sealed_ ? unseal(b, key) : std::optional<Buffer>(b.data);
    if (bytes) {
      plain.emplace(key, std::move(*bytes));
    } else {
      ++failed;
    }
  }
  switch_keys();
  // Everything not carried over goes: clean blocks, which a re-fetch
  // replaces more cheaply than a re-seal pass and which stale keys must
  // never serve, and dirty blocks that failed verification.
  dropped_dirty_bytes_ += cache_.erase_if(
      [&](const BlockKey& key, const Block&) { return !plain.count(key); });
  for (auto& [key, bytes] : plain) {
    bytes.resize(config_.cache.block_size, 0);
    store(*cache_.find(key), key, std::move(bytes));
  }
  return failed;
}

void CacheStore::rebind(Buffer master) {
  if (master == master_) return;
  auto rekey = [&] {
    master_ = std::move(master);
    forget_keys();
  };
  if (!sealed_) return rekey();  // nothing rests sealed yet
  // Name entries are re-learned on the next LOOKUP, far cheaper than a
  // data re-fetch; dirty blocks are the only copy of absorbed writes.
  const int failed = carry_dirty([&] {
    rekey();
    names_.clear();
  });
  for (int i = 0; i < failed; ++i) note_verify_failure();
}

void CacheStore::reload() {
  if (config_.cache.encryption == sealed_) return;
  // Bytes stored under the old mode must never be served under the new
  // one: a plaintext block would fail (or worse, satisfy) the sealed read
  // path, and a sealed blob is garbage to the plaintext one.
  const int failed = carry_dirty([&] {
    sealed_ = config_.cache.encryption;
    if (sealed_ && master_.empty()) {
      master_ = rng_.bytes(crypto::KeyRegression::kSecretSize);
    }
    forget_keys();
    names_.clear();
  });
  // Counted, but no strike: the breaker starts afresh under the new mode.
  if (failed > 0) m_verify_failures_.inc(failed);
  breaker_ = TrustBreaker(breaker_policy());
}

void CacheStore::purge() {
  dropped_dirty_bytes_ += cache_.clear();
  names_.clear();
  forget_keys();
  m_revocation_purges_.inc();
}

// --- storage-fault injector seams --------------------------------------------

bool CacheStore::tamper_block(const BlockKey& key,
                              const std::function<void(Buffer&)>& fn) {
  Block* b = cache_.find(key);
  if (!b) return false;
  fn(b->data);
  return true;
}

std::vector<CacheStore::NameKey> CacheStore::tamperable_names() const {
  std::vector<NameKey> out;
  if (!sealed_) return out;
  for (const auto& [key, e] : names_) out.push_back(key);
  return out;
}

bool CacheStore::tamper_name(const NameKey& key,
                             const std::function<void(Buffer&)>& fn) {
  auto it = names_.find(key);
  if (!sealed_ || it == names_.end()) return false;
  fn(it->second.sealed);
  return true;
}

}  // namespace sgfs::core

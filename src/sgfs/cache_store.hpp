// The client proxy's at-rest cache store (DESIGN.md §15): the only code
// that knows whether the proxy's cached blocks (an nfs::BlockCache) and
// name/fileid lookups rest on the grid node's scratch disk as plaintext
// (the paper's cache) or sealed (crypto::seal_block, verified on every use).
//
// A verification failure is absorbed here: the store counts it, strikes the
// poisoned-cache breaker, evicts the block or name entry and answers
// "nothing"; the caller re-fetches from the server.  The breaker trips only
// on such a failure, so in the plaintext mode every admission question
// answers yes.  That mode draws no RNG, charges no CPU, registers no
// storage-integrity metric and opens a block as a view of its resident
// bytes.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "crypto/seal.hpp"
#include "nfs/block_cache.hpp"
#include "nfs/nfs3.hpp"
#include "sgfs/session.hpp"
#include "sgfs/trust_breaker.hpp"

namespace sgfs::core {

class CacheStore {
 public:
  using BlockKey = nfs::BlockKey;
  using NameKey = std::pair<uint64_t, std::string>;  // (dir fileid, name)

  /// A block's plaintext, valid until the cache next changes.
  struct Plaintext {
    uint32_t valid = 0;              // bytes valid from the start
    ByteView resident;               // plaintext mode: the at-rest bytes
    std::optional<Buffer> unsealed;  // sealed mode: the opened copy
    ByteView bytes() const {
      return unsealed ? ByteView(unsealed->data(), unsealed->size())
                      : resident;
    }
  };

  /// Borrows the proxy's host, block cache, configuration and RNG; the mode
  /// follows config.cache.encryption.
  CacheStore(net::Host& host, nfs::BlockCache& cache,
             const ClientProxyConfig& config, Rng& rng);

  bool sealed() const { return sealed_; }

  // --- data blocks --------------------------------------------------------
  /// The plaintext of a resident block; nullopt when absent or when its
  /// sealed blob fails verification (counted, block evicted).
  std::optional<Plaintext> open(const BlockKey& key);
  /// open() for a READ hit: nullopt also while the cache is bypassed and the
  /// block is clean (only dirty blocks, the sole copy of absorbed writes,
  /// are served then).  A failure counts a refetch; a verified hit while
  /// probing re-arms caching.
  std::optional<Plaintext> read_hit(const BlockKey& key);
  /// Lays the bytes `copy_in` writes over the block's current plaintext and
  /// stores the result, raising its valid prefix to `valid`.  A fill (not
  /// `absorb`) stores nothing over a dirty block, whose bytes are newer
  /// than the server's, nor when an old blob's failed verification trips
  /// the bypass; it then returns false.
  bool overlay(const BlockKey& key, uint32_t valid, bool absorb,
               const std::function<void(MutByteView)>& copy_in);

  // --- admission under the poisoned-cache breaker -------------------------
  /// May a fill from the server land?  Half-opens an elapsed bypass.
  bool admit_fill();
  /// May a WRITE be absorbed?  During bypass only into a block that is
  /// already dirty (its flush must not overwrite later write-throughs).
  bool admit_write(const BlockKey& key);
  /// True only while the cache is bypassed (half-open does not count):
  /// WRITEs went through to the server UNSTABLE, so a COMMIT must too.
  bool bypassed() const {
    return breaker_.state() == TrustBreaker::State::kOpen;
  }

  // --- name table ---------------------------------------------------------
  void name_put(uint64_t dir, const std::string& name,
                const nfs::LookupRes& res);
  /// nullopt when absent, or when the sealed entry fails verification
  /// (counted, entry erased).
  std::optional<nfs::LookupRes> name_get(uint64_t dir,
                                         const std::string& name);
  void name_erase(uint64_t dir, const std::string& name) {
    names_.erase({dir, name});
  }

  // --- key and mode changes -----------------------------------------------
  /// Rebinds the cache master (a key-regression epoch's content key).  When
  /// sealed, clean blocks and names are dropped and dirty blocks re-sealed.
  void rebind(Buffer master);
  /// Applies a changed config.cache.encryption: clean blocks and names are
  /// dropped, dirty blocks are opened under the old mode and stored under
  /// the new one, and the breaker starts afresh.
  void reload();
  /// Revocation: forgets every block, name and key memo.
  void purge();
  /// Valid bytes of dirty blocks the store dropped (poisoned, or purged).
  uint64_t dropped_dirty_bytes() const { return dropped_dirty_bytes_; }

  // --- storage-fault injector seams ---------------------------------------
  /// Mutates a resident block's at-rest bytes; false when not resident.
  bool tamper_block(const BlockKey& key,
                    const std::function<void(Buffer&)>& fn);
  /// Name entries whose at-rest blob can be mutated (sealed mode only).
  std::vector<NameKey> tamperable_names() const;
  /// Mutates a sealed name entry's blob; false when absent or unsealed.
  bool tamper_name(const NameKey& key, const std::function<void(Buffer&)>& fn);

 private:
  using Block = nfs::BlockCache::Block;
  /// Plaintext mode keeps the lookup result; sealed mode keeps only the
  /// blob, re-opened on every hit.  A generation (blocks carry theirs in
  /// BlockCache::Block) is trusted memory, an input to the MAC.
  struct NameEntry {
    nfs::LookupRes res;
    Buffer sealed;
    uint64_t generation = 0;
  };

  TrustBreaker::Policy breaker_policy() const;
  const crypto::SealKeys& file_keys(uint64_t fileid);
  const crypto::SealKeys& name_keys(uint64_t dir);
  void forget_keys();
  sim::SimDur seal_cost(size_t bytes) const;
  /// nullopt when the disk lied (tamper/truncate/splice/rollback).
  std::optional<Buffer> unseal(const Block& b, const BlockKey& key);
  /// Stores a full block of plaintext in the current mode.
  void store(Block& b, const BlockKey& key, Buffer plaintext);
  void note_verify_failure();
  void poison_evict(const BlockKey& key);
  /// Opens every dirty block under the current keys and mode, runs
  /// `switch_keys`, drops every other block and stores the opened ones
  /// again.
  /// Returns how many dirty blocks failed verification (dropped).
  int carry_dirty(const std::function<void()>& switch_keys);

  net::Host& host_;
  nfs::BlockCache& cache_;
  const ClientProxyConfig& config_;
  Rng& rng_;
  bool sealed_;
  // The master is random per session until a key-regression epoch secret
  // rebinds it.  Name blobs use a sub-master derived under their own label,
  // so they never share keys with data blocks.
  Buffer master_;
  std::map<uint64_t, crypto::SealKeys> file_keys_;
  Buffer name_master_;
  std::map<uint64_t, crypto::SealKeys> name_keys_;
  /// Seal-generation clock shared by blocks and names: monotonic across
  /// evict/refill, so a rolled-back blob from any earlier life fails.
  uint64_t seal_clock_ = 0;
  TrustBreaker breaker_;
  std::map<NameKey, NameEntry> names_;
  uint64_t dropped_dirty_bytes_ = 0;
  // Storage-integrity counters (lazy: plaintext runs never register them).
  obs::CounterHandle m_sealed_blocks_, m_verify_failures_;
  obs::CounterHandle m_poison_evictions_, m_refetches_;
  obs::CounterHandle m_bypass_entries_, m_probes_, m_revocation_purges_;
  obs::CounterHandle m_name_verify_failures_;
};

}  // namespace sgfs::core

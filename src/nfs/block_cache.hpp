// The block cache and the unstable-write ledger shared by both client-side
// caches: the kernel client's page cache (nfs::MountPoint) and the SGFS
// client proxy's write-back disk cache (core::ClientProxy).  Neither class
// seals, charges time or sends RPCs: every suspension happens inside a
// caller's callback.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/bufchain.hpp"
#include "common/bytes.hpp"
#include "obs/metrics.hpp"
#include "sim/task.hpp"

namespace sgfs::nfs {

struct BlockKey {
  uint64_t fileid = 0;
  uint64_t block = 0;
  BlockKey() = default;
  BlockKey(uint64_t f, uint64_t b) : fileid(f), block(b) {}
  auto operator<=>(const BlockKey&) const = default;
};

/// (fileid, block) -> block map with an LRU order and a dirty index, the
/// only record of which blocks hold unwritten data.  Byte use is derived:
/// resident blocks x block size.
class BlockCache {
 public:
  struct Block {
    Buffer data;         // at-rest bytes, at least block_size long on insert
    uint32_t valid = 0;  // bytes valid from the start
    /// Seal generation for callers that store sealed blobs (0 = plaintext).
    uint64_t generation = 0;
  };
  using WriteBack = std::function<sim::Task<void>(const BlockKey&)>;

  BlockCache(size_t block_size, uint64_t capacity)
      : block_size_(block_size), capacity_(capacity) {}

  void set_capacity(uint64_t capacity) { capacity_ = capacity; }
  size_t size() const { return blocks_.size(); }
  uint64_t bytes_used() const { return blocks_.size() * block_size_; }
  std::vector<BlockKey> keys() const;  // in key order

  Block* find(const BlockKey& key);
  bool contains(const BlockKey& key) const { return blocks_.count(key) != 0; }
  /// Marks a resident block most recently used; nullptr when absent.
  Block* touch(const BlockKey& key);
  /// touch(), creating a zero-filled block when absent.  A resident buffer
  /// shorter than a block (a hostile disk truncated it) is zero-extended.
  Block& insert(const BlockKey& key);

  bool is_dirty(const BlockKey& key) const;
  bool has_dirty(uint64_t fileid) const { return dirty_.count(fileid) != 0; }
  bool any_dirty() const { return !dirty_.empty(); }
  std::optional<uint64_t> first_dirty(uint64_t fileid) const;
  std::vector<uint64_t> dirty_blocks(uint64_t fileid) const;  // ascending
  std::vector<uint64_t> dirty_files() const;                  // ascending
  size_t dirty_count() const;
  /// Marks a resident block dirty; true when it was clean.
  bool mark_dirty(const BlockKey& key);
  /// True when the block was dirty.
  bool clear_dirty(const BlockKey& key);

  // Erasers drop the blocks' dirty entries too and return the valid bytes
  // of the dirty blocks they dropped (cancelled write-backs).
  uint64_t erase(const BlockKey& key);
  /// Erases the file's blocks numbered `from_block` and up.
  uint64_t erase_file(uint64_t fileid, uint64_t from_block = 0);
  uint64_t erase_if(
      const std::function<bool(const BlockKey&, const Block&)>& pred);
  uint64_t erase_clean() {
    return erase_if([this](const BlockKey& k, const Block&) {
      return !is_dirty(k);
    });
  }
  uint64_t clear() {
    return erase_if([](const BlockKey&, const Block&) { return true; });
  }

  /// Evicts clean blocks in LRU order until `incoming` more bytes fit;
  /// false when only dirty blocks are left in the way.
  bool make_room_clean(uint64_t incoming);
  /// Evicts in LRU order until `incoming` more bytes fit.  A dirty victim
  /// goes to `write_back` first and is evicted only if it is still resident
  /// and clean afterwards: while the callback was suspended a concurrent
  /// coroutine may have erased, re-dirtied or touched it, so the victim is
  /// named by key and looked up again (no iterator lives across co_await).
  sim::Task<void> evict(uint64_t incoming, WriteBack write_back);

  /// Invariant check for tests: one LRU position per resident block, and
  /// every dirty index entry names a resident block.
  bool consistent() const;

 private:
  // Each resident block's slot holds its place in `lru_`, which runs oldest
  // to newest: a touch splices it to the back, eviction takes the front.
  using Recency = std::list<BlockKey>;
  struct Slot {
    Block block;
    Recency::iterator lru;
  };
  using Slots = std::map<BlockKey, Slot>;
  void bump(Slot& slot) { lru_.splice(lru_.end(), lru_, slot.lru); }
  Slots::iterator drop(Slots::iterator it, uint64_t& dirty_bytes);

  size_t block_size_;
  uint64_t capacity_;
  Slots blocks_;
  Recency lru_;
  std::map<uint64_t, std::set<uint64_t>> dirty_;  // fileid -> blocks
};

/// RFC 1813 §3.3.21 recovery state of a writer that sends UNSTABLE WRITEs:
/// a refcounted shadow of every block acknowledged UNSTABLE and not yet
/// committed, plus the last write verifier seen.
class UnstableLedger {
 public:
  /// Sends one shadow as an UNSTABLE WRITE and returns the reply's verifier,
  /// or nullopt when the WRITE failed and the shadow is skipped this pass.
  using Send = std::function<sim::Task<std::optional<uint64_t>>(
      const BlockKey&, BufChain)>;

  /// Metrics are `<prefix>.verf_mismatches`, `.replays`, `.replayed_bytes`
  /// and, with `track_bytes`, the `<prefix>.uncommitted_bytes` gauge.
  UnstableLedger(obs::MetricsRegistry& metrics, const std::string& prefix,
                 bool track_bytes);

  void put(const BlockKey& key, BufChain data);
  const BufChain* find(const BlockKey& key) const;
  bool contains(const BlockKey& key) const { return shadows_.count(key); }
  size_t size() const { return shadows_.size(); }
  std::set<uint64_t> files() const;
  /// Drops the file's shadows for blocks numbered `from_block` and up.
  void drop_file(uint64_t fileid, uint64_t from_block = 0);
  /// Cuts the key's shadow to its first `len` bytes (a truncate).
  void trim(const BlockKey& key, size_t len);
  void clear();

  std::optional<uint64_t> verf() const { return verf_; }
  /// Compares a WRITE/COMMIT reply's verifier with the last one seen and
  /// returns true when it rolled (the server restarted and may have lost
  /// the shadowed bytes).  The new verifier is adopted first; then, with
  /// `replay`, every shadow is resent through `send`, restarting until one
  /// full pass completes under a single verifier.
  sim::Task<bool> note_verf(uint64_t verf, bool replay, Send send);

 private:
  const bool track_bytes_;
  obs::GaugeHandle m_bytes_;
  obs::CounterHandle m_mismatches_, m_replays_, m_replayed_bytes_;
  std::map<BlockKey, BufChain> shadows_;
  std::optional<uint64_t> verf_;
};

}  // namespace sgfs::nfs

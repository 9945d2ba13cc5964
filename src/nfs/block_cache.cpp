#include "nfs/block_cache.hpp"

namespace sgfs::nfs {

std::vector<BlockKey> BlockCache::keys() const {
  std::vector<BlockKey> out;
  for (const auto& [key, slot] : blocks_) out.push_back(key);
  return out;
}

BlockCache::Block* BlockCache::find(const BlockKey& key) {
  auto it = blocks_.find(key);
  return it == blocks_.end() ? nullptr : &it->second.block;
}

BlockCache::Block* BlockCache::touch(const BlockKey& key) {
  auto it = blocks_.find(key);
  if (it == blocks_.end()) return nullptr;
  bump(it->second);
  return &it->second.block;
}

BlockCache::Block& BlockCache::insert(const BlockKey& key) {
  auto [it, fresh] = blocks_.try_emplace(key);
  if (fresh) {
    it->second.lru = lru_.insert(lru_.end(), key);
  } else {
    bump(it->second);
  }
  Buffer& data = it->second.block.data;
  if (data.size() < block_size_) data.resize(block_size_, 0);
  return it->second.block;
}

bool BlockCache::is_dirty(const BlockKey& key) const {
  auto ds = dirty_.find(key.fileid);
  return ds != dirty_.end() && ds->second.count(key.block) != 0;
}

std::optional<uint64_t> BlockCache::first_dirty(uint64_t fileid) const {
  auto ds = dirty_.find(fileid);
  if (ds == dirty_.end()) return std::nullopt;
  return *ds->second.begin();
}

std::vector<uint64_t> BlockCache::dirty_blocks(uint64_t fileid) const {
  auto ds = dirty_.find(fileid);
  if (ds == dirty_.end()) return {};
  return std::vector<uint64_t>(ds->second.begin(), ds->second.end());
}

std::vector<uint64_t> BlockCache::dirty_files() const {
  std::vector<uint64_t> out;
  for (const auto& [fileid, set] : dirty_) out.push_back(fileid);
  return out;
}

size_t BlockCache::dirty_count() const {
  size_t n = 0;
  for (const auto& [fileid, set] : dirty_) n += set.size();
  return n;
}

bool BlockCache::mark_dirty(const BlockKey& key) {
  return dirty_[key.fileid].insert(key.block).second;
}

bool BlockCache::clear_dirty(const BlockKey& key) {
  auto ds = dirty_.find(key.fileid);
  if (ds == dirty_.end() || ds->second.erase(key.block) == 0) return false;
  if (ds->second.empty()) dirty_.erase(ds);
  return true;
}

BlockCache::Slots::iterator BlockCache::drop(Slots::iterator it,
                                             uint64_t& dirty_bytes) {
  if (clear_dirty(it->first)) dirty_bytes += it->second.block.valid;
  lru_.erase(it->second.lru);
  return blocks_.erase(it);
}

uint64_t BlockCache::erase(const BlockKey& key) {
  uint64_t dirty_bytes = 0;
  auto it = blocks_.find(key);
  if (it != blocks_.end()) drop(it, dirty_bytes);
  return dirty_bytes;
}

uint64_t BlockCache::erase_file(uint64_t fileid, uint64_t from_block) {
  uint64_t dirty_bytes = 0;
  auto it = blocks_.lower_bound(BlockKey{fileid, from_block});
  while (it != blocks_.end() && it->first.fileid == fileid) {
    it = drop(it, dirty_bytes);
  }
  return dirty_bytes;
}

uint64_t BlockCache::erase_if(
    const std::function<bool(const BlockKey&, const Block&)>& pred) {
  uint64_t dirty_bytes = 0;
  for (auto it = blocks_.begin(); it != blocks_.end();) {
    it = pred(it->first, it->second.block) ? drop(it, dirty_bytes)
                                           : std::next(it);
  }
  return dirty_bytes;
}

bool BlockCache::make_room_clean(uint64_t incoming) {
  // `it` moves past a block before it is erased; erasing another list node
  // leaves it valid.
  for (auto it = lru_.begin();
       bytes_used() + incoming > capacity_ && it != lru_.end();) {
    const BlockKey key = *it++;
    if (!is_dirty(key)) erase(key);
  }
  return bytes_used() + incoming <= capacity_;
}

sim::Task<void> BlockCache::evict(uint64_t incoming, WriteBack write_back) {
  while (bytes_used() + incoming > capacity_ && !lru_.empty()) {
    const BlockKey victim = lru_.front();
    if (is_dirty(victim)) {
      co_await write_back(victim);
      if (!contains(victim) || is_dirty(victim)) continue;
    }
    erase(victim);
  }
}

bool BlockCache::consistent() const {
  // Equal sizes, and each slot's position names its own key: the list holds
  // every resident block exactly once.
  if (lru_.size() != blocks_.size()) return false;
  for (const auto& [key, slot] : blocks_) {
    if (*slot.lru != key) return false;
  }
  for (const auto& [fileid, set] : dirty_) {
    for (uint64_t block : set) {
      if (!contains(BlockKey{fileid, block})) return false;
    }
  }
  return true;
}

UnstableLedger::UnstableLedger(obs::MetricsRegistry& metrics,
                               const std::string& prefix, bool track_bytes)
    : track_bytes_(track_bytes),
      m_bytes_(metrics, prefix + ".uncommitted_bytes"),
      m_mismatches_(metrics, prefix + ".verf_mismatches"),
      m_replays_(metrics, prefix + ".replays"),
      m_replayed_bytes_(metrics, prefix + ".replayed_bytes") {}

void UnstableLedger::put(const BlockKey& key, BufChain data) {
  auto [it, fresh] = shadows_.try_emplace(key);
  if (track_bytes_) {
    if (!fresh) m_bytes_.add(-static_cast<int64_t>(it->second.size()));
    m_bytes_.add(static_cast<int64_t>(data.size()));
  }
  it->second = std::move(data);
}

const BufChain* UnstableLedger::find(const BlockKey& key) const {
  auto it = shadows_.find(key);
  return it == shadows_.end() ? nullptr : &it->second;
}

std::set<uint64_t> UnstableLedger::files() const {
  std::set<uint64_t> out;
  for (const auto& [key, chain] : shadows_) out.insert(key.fileid);
  return out;
}

void UnstableLedger::drop_file(uint64_t fileid, uint64_t from_block) {
  int64_t dropped = 0;
  auto it = shadows_.lower_bound(BlockKey{fileid, from_block});
  while (it != shadows_.end() && it->first.fileid == fileid) {
    dropped += static_cast<int64_t>(it->second.size());
    it = shadows_.erase(it);
  }
  if (track_bytes_) m_bytes_.add(-dropped);
}

void UnstableLedger::trim(const BlockKey& key, size_t len) {
  auto it = shadows_.find(key);
  if (it == shadows_.end() || it->second.size() <= len) return;
  if (track_bytes_) {
    m_bytes_.add(-static_cast<int64_t>(it->second.size() - len));
  }
  it->second = it->second.slice(0, len);
}

void UnstableLedger::clear() {
  int64_t dropped = 0;
  for (const auto& [key, chain] : shadows_) {
    dropped += static_cast<int64_t>(chain.size());
  }
  if (track_bytes_) m_bytes_.add(-dropped);
  shadows_.clear();
}

sim::Task<bool> UnstableLedger::note_verf(uint64_t verf, bool replay,
                                          Send send) {
  const bool first = !verf_;
  if (verf_ == verf) co_return false;
  verf_ = verf;
  if (first) co_return false;
  m_mismatches_.inc();
  if (!replay || shadows_.empty()) co_return true;
  m_replays_.inc();
  for (bool complete = false; !complete;) {
    complete = true;
    const uint64_t cookie = *verf_;
    std::vector<BlockKey> keys;
    for (const auto& [key, chain] : shadows_) keys.push_back(key);
    for (const BlockKey& key : keys) {
      auto it = shadows_.find(key);
      if (it == shadows_.end()) continue;  // dropped while we slept
      const size_t nbytes = it->second.size();
      const std::optional<uint64_t> got = co_await send(key, it->second);
      if (!got) continue;
      m_replayed_bytes_.inc(nbytes);
      if (*got != cookie) {
        // Crashed again mid-replay; adopt the newest cookie and start over.
        verf_ = *got;
        m_mismatches_.inc();
        complete = false;
        break;
      }
    }
  }
  co_return true;
}

}  // namespace sgfs::nfs

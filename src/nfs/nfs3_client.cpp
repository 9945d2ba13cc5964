#include "nfs/nfs3_client.hpp"

#include "common/bufchain.hpp"

#include <algorithm>
#include <cstring>

#include "common/log.hpp"

namespace sgfs::nfs {

namespace {
std::vector<std::string> path_components(const std::string& path) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start < path.size()) {
    while (start < path.size() && path[start] == '/') ++start;
    if (start >= path.size()) break;
    size_t end = path.find('/', start);
    if (end == std::string::npos) end = path.size();
    out.push_back(path.substr(start, end - start));
    start = end;
  }
  return out;
}

void throw_if_error(Status status) {
  if (status != Status::kOk) throw FsError(status);
}
}  // namespace

MountPoint::MountPoint(net::Host& host, Nfs3ClientConfig config)
    : host_(host),
      config_(config),
      cache_(config.block_size, config.cache_bytes),
      ledger_(host.engine().metrics(), "nfs.client.recovery",
              /*track_bytes=*/true) {
  auto& m = host_.engine().metrics();
  m_rpc_calls_ = {m, "nfs.client.rpc.calls"};
  m_ac_hits_ = {m, "nfs.client.attr_cache.hits"};
  m_ac_misses_ = {m, "nfs.client.attr_cache.misses"};
  m_pc_hits_ = {m, "nfs.client.page_cache.hits"};
  m_pc_misses_ = {m, "nfs.client.page_cache.misses"};
  m_readahead_ = {m, "nfs.client.readahead"};
  m_cto_revalidations_ = {m, "nfs.client.cto.revalidations"};
  m_cto_flushes_ = {m, "nfs.client.cto.flushes"};
  m_dirty_blocks_ = {m, "nfs.client.writeback.dirty_blocks"};
}

obs::Counter& MountPoint::proc_counter(Proc3 proc) {
  obs::Counter*& slot = m_rpc_proc_[static_cast<size_t>(proc)];
  if (!slot) {
    slot = &host_.engine().metrics().counter(
        std::string("nfs.client.rpc.") + proc3_name(proc));
  }
  return *slot;
}

MountPoint::~MountPoint() {
  *alive_ = false;
  if (ops_) ops_->close();
}

sim::Task<std::shared_ptr<MountPoint>> MountPoint::mount(
    net::Host& host, const net::Address& server,
    const std::string& remote_path, rpc::AuthSys auth,
    Nfs3ClientConfig config) {
  auto ops = co_await V3WireOps::connect(host, server, auth, config.retry,
                                         config.jukebox);
  co_return co_await mount_with(host, std::move(ops), remote_path, config);
}

sim::Task<std::shared_ptr<MountPoint>> MountPoint::mount_with(
    net::Host& host, std::unique_ptr<WireOps> ops,
    const std::string& remote_path, Nfs3ClientConfig config) {
  auto mp = std::shared_ptr<MountPoint>(new MountPoint(host, config));
  mp->ops_ = std::move(ops);
  mp->root_ = co_await mp->ops_->mount(remote_path);
  co_return mp;
}

sim::Task<void> MountPoint::charge(Proc3 proc) {
  ++rpc_by_proc_[proc];
  m_rpc_calls_.inc();
  proc_counter(proc).inc();
  co_await host_.cpu().use(config_.per_call_cpu, "knfsc");
}

uint64_t MountPoint::rpc_calls_for(Proc3 p) const {
  auto it = rpc_by_proc_.find(p);
  return it == rpc_by_proc_.end() ? 0 : it->second;
}

// --- attribute & name caches ---------------------------------------------------

void MountPoint::remember_attrs(const Fh& fh, const vfs::Attributes& attrs) {
  AttrEntry entry;
  entry.attrs = attrs;
  entry.fetched = host_.engine().now();
  const sim::SimDur age = entry.fetched - attrs.mtime * sim::kSecond;
  entry.ttl = std::clamp(age, config_.ac_min, config_.ac_max);
  attr_cache_[fh.fileid] = entry;
}

void MountPoint::maybe_remember(const Fh& fh,
                                const std::optional<vfs::Attributes>& attrs) {
  if (attrs) remember_attrs(fh, *attrs);
}

std::optional<vfs::Attributes> MountPoint::cached_attrs(const Fh& fh) {
  auto it = attr_cache_.find(fh.fileid);
  if (it == attr_cache_.end()) return std::nullopt;
  if (host_.engine().now() - it->second.fetched > it->second.ttl) {
    return std::nullopt;  // stale (entry kept for mtime comparison)
  }
  return it->second.attrs;
}

sim::Task<vfs::Attributes> MountPoint::getattr(const Fh& fh, bool force) {
  if (!force) {
    if (auto a = cached_attrs(fh)) {
      m_ac_hits_.inc();
      co_return *a;
    }
    m_ac_misses_.inc();
  }
  // Remember the previous view for change detection.
  std::optional<vfs::Attributes> before;
  auto it = attr_cache_.find(fh.fileid);
  if (it != attr_cache_.end()) before = it->second.attrs;

  co_await charge(Proc3::kGetattr);
  GetattrRes res = co_await ops_->getattr(fh);
  throw_if_error(res.status);
  remember_attrs(fh, res.attrs);

  // Close-to-open: if the file changed under us and we hold no dirty data,
  // drop its cached blocks.
  if (before && !cache_.has_dirty(fh.fileid) &&
      (before->mtime != res.attrs.mtime || before->size != res.attrs.size)) {
    invalidate_file(fh.fileid);
  }
  co_return res.attrs;
}

void MountPoint::invalidate_file(uint64_t fileid) {
  const size_t dirty = cache_.dirty_blocks(fileid).size();
  cache_.erase_file(fileid);
  if (dirty) m_dirty_blocks_.add(-static_cast<int64_t>(dirty));
}

// --- path walking ----------------------------------------------------------------

sim::Task<Fh> MountPoint::lookup(const Fh& dir, const std::string& name) {
  auto key = std::make_pair(dir.fileid, name);
  auto hit = dnlc_.find(key);
  if (hit != dnlc_.end()) {
    // Valid while the directory attributes are fresh; on expiry revalidate
    // the directory and keep the entry if its mtime did not move.
    if (cached_attrs(dir)) co_return hit->second;
    auto it = attr_cache_.find(dir.fileid);
    std::optional<int64_t> old_mtime;
    if (it != attr_cache_.end()) old_mtime = it->second.attrs.mtime;
    auto fresh = co_await getattr(dir, /*force=*/true);
    if (old_mtime && fresh.mtime == *old_mtime) co_return hit->second;
    // Directory changed: drop its name entries.
    auto dn = dnlc_.lower_bound({dir.fileid, ""});
    while (dn != dnlc_.end() && dn->first.first == dir.fileid) {
      dn = dnlc_.erase(dn);
    }
  }
  co_await charge(Proc3::kLookup);
  LookupRes res = co_await ops_->lookup(dir, name);
  maybe_remember(dir, res.dir_attrs);
  throw_if_error(res.status);
  maybe_remember(res.fh, res.attrs);
  dnlc_[{dir.fileid, name}] = res.fh;
  co_return res.fh;
}

sim::Task<Fh> MountPoint::walk(const std::string& path) {
  Fh cur = root_;
  for (const auto& comp : path_components(path)) {
    cur = co_await lookup(cur, comp);
  }
  co_return cur;
}

sim::Task<std::pair<Fh, std::string>> MountPoint::walk_parent(
    const std::string& path) {
  auto comps = path_components(path);
  if (comps.empty()) throw FsError(Status::kInval);
  Fh cur = root_;
  for (size_t i = 0; i + 1 < comps.size(); ++i) {
    cur = co_await lookup(cur, comps[i]);
  }
  co_return std::make_pair(cur, comps.back());
}

// --- page cache -------------------------------------------------------------------

sim::Task<void> MountPoint::writeback_block(uint64_t fileid, uint64_t block) {
  BlockKey key{fileid, block};
  const CachedBlock* cb = cache_.find(key);
  if (!cb || !cache_.is_dirty(key)) co_return;
  const Fh fh(root_.fsid, fileid);
  // Snapshot the dirty bytes: the application may keep writing into this
  // block while the WRITE RPC is outstanding.  This is one of the two
  // copies the client page cache fundamentally needs (the other is the
  // fill in fetch_block).
  BufChain data = BufChain::copy_of(ByteView(cb->data.data(), cb->valid));
  // Refcounted alias of the snapshot, shadowed until COMMIT so a server
  // restart can be answered by resending exactly these bytes.
  BufChain shadow = data;
  co_await charge(Proc3::kWrite);
  WriteRes res = co_await ops_->write(
      fh, block * config_.block_size,
      config_.write_behind ? StableHow::kUnstable : StableHow::kFileSync,
      std::move(data));
  throw_if_error(res.status);
  maybe_remember(fh, res.post_attrs);
  // The block may have been evicted while the RPC was outstanding.
  if (cache_.clear_dirty(key)) m_dirty_blocks_.add(-1);
  if (config_.write_behind) {
    ledger_.put(key, shadow);
    needs_commit_.insert(fileid);
  }
  co_await note_verf(res.verf);
}

// --- write-verifier recovery (RFC 1813 §3.3.21) --------------------------------

sim::Task<bool> MountPoint::note_verf(uint64_t verf) {
  co_return co_await ledger_.note_verf(
      verf, config_.verifier_replay,
      [this](BlockKey key,
             BufChain data) -> sim::Task<std::optional<uint64_t>> {
        const Fh fh(root_.fsid, key.fileid);
        co_await charge(Proc3::kWrite);
        WriteRes res = co_await ops_->write(
            fh, key.block * config_.block_size, StableHow::kUnstable,
            std::move(data));
        throw_if_error(res.status);
        maybe_remember(fh, res.post_attrs);
        needs_commit_.insert(key.fileid);
        co_return res.verf;
      });
}

sim::Task<void> MountPoint::ensure_space(size_t incoming) {
  co_await cache_.evict(incoming, [this](const BlockKey& key) {
    return writeback_block(key.fileid, key.block);
  });
}

sim::Task<void> MountPoint::fetch_block(const Fh& fh, uint64_t block) {
  BlockKey key{fh.fileid, block};
  auto ev = std::make_shared<sim::SimEvent>(host_.engine());
  inflight_[key] = ev;
  co_await charge(Proc3::kRead);
  ReadRes res;
  try {
    res = co_await ops_->read(fh, block * config_.block_size,
                              static_cast<uint32_t>(config_.block_size));
  } catch (...) {
    inflight_.erase(key);
    ev->set();
    throw;
  }
  inflight_.erase(key);
  ev->set();
  throw_if_error(res.status);
  maybe_remember(fh, res.post_attrs);
  co_await ensure_space(config_.block_size);
  fill_block(key, res);
}

// Fetched bytes may predate data the server acknowledged UNSTABLE and then
// lost in a crash: the verifier roll that reveals the loss only shows up on
// the next WRITE/COMMIT reply, but a read-miss for the same range (e.g. a
// read-modify-write of a partial block) can land first and would silently
// merge new data into the reverted content.  A real kernel client pins
// unstable pages until COMMIT and never rereads the range; here the retained
// shadow chain plays that role — it is authoritative for the uncommitted
// prefix of the block, so it is laid back over the fetch.  Fault-free
// fetches return bytes identical to the shadow, so the compare below keeps
// copy accounting (and therefore timing) unchanged unless a crash actually
// reverted the data.
void MountPoint::fill_block(const BlockKey& key, const ReadRes& res) {
  CachedBlock& cb = cache_.insert(key);
  res.data.copy_to(MutByteView(cb.data.data(), cb.data.size()));
  cb.valid = std::max(cb.valid, res.count);
  const BufChain* found = ledger_.find(key);
  if (!found) return;
  const BufChain& shadow = *found;
  const size_t n = std::min(shadow.size(), cb.data.size());
  size_t pos = 0;
  bool same = true;
  for (const auto& seg : shadow.segments()) {
    if (pos >= n) break;
    const size_t len = std::min(seg.len, n - pos);
    if (std::memcmp(cb.data.data() + pos, seg.store->data() + seg.offset,
                    len) != 0) {
      same = false;
      break;
    }
    pos += len;
  }
  if (!same) shadow.slice(0, n).copy_to(MutByteView(cb.data.data(), n));
  cb.valid = std::max(cb.valid, static_cast<uint32_t>(n));
}

void MountPoint::start_readahead(const Fh& fh, uint64_t from_block) {
  auto attrs = attr_cache_.find(fh.fileid);
  if (attrs == attr_cache_.end()) return;
  const uint64_t max_block =
      attrs->second.attrs.size == 0
          ? 0
          : (attrs->second.attrs.size - 1) / config_.block_size;
  for (size_t i = 1; i <= config_.readahead_blocks; ++i) {
    const uint64_t b = from_block + i;
    if (b > max_block) break;
    BlockKey key{fh.fileid, b};
    if (cache_.contains(key) || inflight_.count(key)) continue;
    auto ev = std::make_shared<sim::SimEvent>(host_.engine());
    inflight_[key] = ev;
    ++rpc_by_proc_[Proc3::kRead];
    m_rpc_calls_.inc();
    proc_counter(Proc3::kRead).inc();
    m_readahead_.inc();
    // Detached prefetch: after each suspension it re-checks `alive`, so a
    // destroyed MountPoint only costs a dropped prefetch.
    auto task = [](MountPoint* mp, std::shared_ptr<bool> alive,
                   WireOps* ops, net::Host* host, sim::SimDur cpu_cost,
                   Fh fh, uint64_t block, size_t block_size,
                   std::shared_ptr<sim::SimEvent> ev) -> sim::Task<void> {
      ReadRes res;
      bool ok = true;
      try {
        co_await host->cpu().use(cpu_cost, "knfsc");
        if (!*alive) co_return;  // MountPoint (and its WireOps) are gone
        res = co_await ops->read(fh, block * block_size,
                                 static_cast<uint32_t>(block_size));
      } catch (...) {
        ok = false;
      }
      if (!*alive) co_return;
      mp->inflight_.erase(BlockKey{fh.fileid, block});
      ev->set();
      if (!ok || res.status != Status::kOk) co_return;
      mp->maybe_remember(fh, res.post_attrs);
      // Make room by evicting *clean* LRU blocks (no write-back from a
      // prefetch path); only drop the data if everything is dirty.
      if (!mp->cache_.make_room_clean(block_size)) co_return;
      mp->fill_block(BlockKey{fh.fileid, block}, res);
    };
    host_.engine().spawn(task(this, alive_, ops_.get(), &host_,
                              config_.per_call_cpu, fh, b,
                              config_.block_size, ev));
  }
}

sim::Task<MountPoint::CachedBlock*> MountPoint::get_block_for_read(
    const Fh& fh, uint64_t block, bool readahead) {
  BlockKey key{fh.fileid, block};
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (CachedBlock* cb = cache_.touch(key)) {
      ++cache_hits_;
      m_pc_hits_.inc();
      if (readahead) start_readahead(fh, block);
      co_return cb;
    }
    auto inflight = inflight_.find(key);
    if (inflight != inflight_.end()) {
      auto ev = inflight->second;
      co_await ev->wait();
      continue;  // re-check the cache
    }
    break;
  }
  m_pc_misses_.inc();
  co_await fetch_block(fh, block);
  if (readahead) start_readahead(fh, block);
  CachedBlock* cb = cache_.find(key);
  if (!cb) throw FsError(Status::kStale);
  co_return cb;
}

sim::Task<void> MountPoint::flush_file(const Fh& fh, bool commit) {
  // Drain the LIVE dirty set (not a snapshot): if writeback_block throws
  // mid-flush, a retry of flush_file sends exactly the blocks that are
  // still dirty — no block is skipped and none is sent twice.
  for (;;) {
    const std::optional<uint64_t> block = cache_.first_dirty(fh.fileid);
    if (!block) break;
    co_await writeback_block(fh.fileid, *block);
    // If the cached block vanished while the RPC was outstanding the
    // writeback was a no-op and did not clear the dirty entry; erase it
    // here or this loop would spin forever.
    if (cache_.clear_dirty(BlockKey{fh.fileid, *block})) {
      m_dirty_blocks_.add(-1);
    }
  }
  if (commit && needs_commit_.count(fh.fileid)) {
    // A COMMIT whose verifier does not match means the server restarted and
    // the UNSTABLE data may be gone: replay the shadows, then COMMIT again
    // until the reply matches the instance that holds the data.
    for (;;) {
      co_await charge(Proc3::kCommit);
      CommitRes res = co_await ops_->commit(fh);
      throw_if_error(res.status);
      const bool rolled = co_await note_verf(res.verf);
      if (!rolled) break;
    }
    needs_commit_.erase(fh.fileid);
    ledger_.drop_file(fh.fileid);
  }
}

// --- POSIX API -------------------------------------------------------------------

sim::Task<int> MountPoint::open(const std::string& path, uint32_t flags,
                                uint32_t mode) {
  Fh fh;
  bool fresh_create = false;
  if (flags & kCreate) {
    auto [dir, name] = co_await walk_parent(path);
    co_await charge(Proc3::kCreate);
    CreateRes res = co_await ops_->create(dir, name, mode,
                                          (flags & kExcl) != 0);
    maybe_remember(dir, res.dir_attrs);
    throw_if_error(res.status);
    fh = res.fh;
    maybe_remember(fh, res.attrs);
    dnlc_[{dir.fileid, name}] = fh;
    fresh_create = res.attrs && res.attrs->size == 0;
  } else {
    fh = co_await walk(path);
  }

  // Close-to-open consistency: revalidate at open; permission check via
  // ACCESS when the cached access rights went stale with the attributes
  // (kernel clients cache ACCESS results alongside attributes).
  vfs::Attributes attrs;
  bool was_fresh = cached_attrs(fh).has_value();
  if (fresh_create) {
    attrs = attr_cache_[fh.fileid].attrs;
    was_fresh = true;
  } else {
    m_cto_revalidations_.inc();
    attrs = co_await getattr(fh, /*force=*/true);
  }
  if (attrs.type == vfs::FileType::kDirectory) throw FsError(Status::kIsDir);
  if (!was_fresh) {
    const uint32_t want =
        (flags & (kWrOnly | kRdWr | kAppend | kTrunc))
            ? (vfs::kAccessModify | vfs::kAccessExtend)
            : vfs::kAccessRead;
    co_await charge(Proc3::kAccess);
    AccessRes ares = co_await ops_->access(fh, want);
    throw_if_error(ares.status);
    maybe_remember(fh, ares.post_attrs);
    if ((ares.access & want) != want) throw FsError(Status::kAcces);
  }

  if (flags & kTrunc) {
    co_await charge(Proc3::kSetattr);
    vfs::SetAttrs trunc;
    trunc.size = 0;
    WccRes res = co_await ops_->setattr(fh, trunc);
    throw_if_error(res.status);
    invalidate_file(fh.fileid);
    ledger_.drop_file(fh.fileid);
    maybe_remember(fh, res.post_attrs);
    attrs.size = 0;
  }

  OpenFile of;
  of.fh = fh;
  of.flags = flags;
  of.pos = (flags & kAppend) ? attrs.size : 0;
  const int fd = next_fd_++;
  open_files_[fd] = of;
  co_return fd;
}

sim::Task<void> MountPoint::close(int fd) {
  auto it = open_files_.find(fd);
  if (it == open_files_.end()) throw FsError(Status::kInval);
  Fh fh = it->second.fh;
  open_files_.erase(it);
  if (cache_.has_dirty(fh.fileid)) m_cto_flushes_.inc();
  co_await flush_file(fh, /*commit=*/true);
}

sim::Task<void> MountPoint::fsync(int fd) {
  auto it = open_files_.find(fd);
  if (it == open_files_.end()) throw FsError(Status::kInval);
  co_await flush_file(it->second.fh, /*commit=*/true);
}

sim::Task<size_t> MountPoint::pread(int fd, uint64_t offset,
                                    MutByteView out) {
  auto it = open_files_.find(fd);
  if (it == open_files_.end()) throw FsError(Status::kInval);
  OpenFile& of = it->second;
  const Fh fh = of.fh;

  vfs::Attributes attrs = co_await getattr(fh, /*force=*/false);
  if (offset >= attrs.size) co_return 0;
  const size_t want = std::min<uint64_t>(out.size(), attrs.size - offset);

  size_t done = 0;
  while (done < want) {
    const uint64_t pos = offset + done;
    const uint64_t block = pos / config_.block_size;
    const size_t in_block = pos % config_.block_size;
    auto open_it = open_files_.find(fd);
    const bool sequential =
        open_it == open_files_.end() ||
        open_it->second.last_read_block == UINT64_MAX ||
        block == open_it->second.last_read_block ||
        block == open_it->second.last_read_block + 1;
    CachedBlock* cb = co_await get_block_for_read(fh, block, sequential);
    const size_t take = std::min(want - done, config_.block_size - in_block);
    std::copy_n(cb->data.begin() + in_block, take, out.begin() + done);
    done += take;
    open_it = open_files_.find(fd);
    if (open_it != open_files_.end()) {
      open_it->second.last_read_block = block;
    }
  }
  co_return done;
}

sim::Task<size_t> MountPoint::read(int fd, MutByteView out) {
  auto it = open_files_.find(fd);
  if (it == open_files_.end()) throw FsError(Status::kInval);
  const uint64_t offset = it->second.pos;
  size_t n = co_await pread(fd, offset, out);
  auto again = open_files_.find(fd);
  if (again != open_files_.end()) again->second.pos = offset + n;
  co_return n;
}

sim::Task<size_t> MountPoint::pwrite(int fd, uint64_t offset, ByteView data) {
  auto it = open_files_.find(fd);
  if (it == open_files_.end()) throw FsError(Status::kInval);
  const Fh fh = it->second.fh;

  // Current size (for read-modify-write decisions).
  uint64_t size = 0;
  if (auto a = cached_attrs(fh)) {
    size = a->size;
  } else {
    size = (co_await getattr(fh, false)).size;
  }

  size_t done = 0;
  while (done < data.size()) {
    const uint64_t pos = offset + done;
    const uint64_t block = pos / config_.block_size;
    const size_t in_block = pos % config_.block_size;
    const size_t take =
        std::min(data.size() - done, config_.block_size - in_block);

    BlockKey key{fh.fileid, block};
    CachedBlock* cb = cache_.touch(key);
    if (!cb) {
      // Partial write into a block that has existing server data: fetch it
      // first (read-modify-write), unless the write covers the whole block
      // or lies entirely beyond EOF.
      const bool covers_block =
          in_block == 0 &&
          (take == config_.block_size || pos + take >= size);
      const bool beyond_eof = block * config_.block_size >= size;
      if (!covers_block && !beyond_eof) {
        co_await get_block_for_read(fh, block, false);
      } else {
        co_await ensure_space(config_.block_size);
        cache_.insert(key);
      }
      cb = cache_.find(key);
      if (!cb) throw FsError(Status::kStale);
    }
    std::copy_n(data.begin() + done, take, cb->data.begin() + in_block);
    cb->valid =
        std::max<uint32_t>(cb->valid, static_cast<uint32_t>(in_block + take));
    if (cache_.mark_dirty(key)) m_dirty_blocks_.add(1);
    done += take;

    if (!config_.write_behind) {
      co_await writeback_block(fh.fileid, block);
    }
  }

  // Keep the cached size fresh so subsequent reads see the extension.
  auto ac = attr_cache_.find(fh.fileid);
  if (ac != attr_cache_.end()) {
    ac->second.attrs.size =
        std::max<uint64_t>(ac->second.attrs.size, offset + data.size());
  }
  co_return data.size();
}

sim::Task<size_t> MountPoint::write(int fd, ByteView data) {
  auto it = open_files_.find(fd);
  if (it == open_files_.end()) throw FsError(Status::kInval);
  uint64_t offset = it->second.pos;
  if (it->second.flags & kAppend) {
    if (auto a = cached_attrs(it->second.fh)) offset = a->size;
  }
  size_t n = co_await pwrite(fd, offset, data);
  auto again = open_files_.find(fd);
  if (again != open_files_.end()) again->second.pos = offset + n;
  co_return n;
}

sim::Task<vfs::Attributes> MountPoint::fstat(int fd) {
  auto it = open_files_.find(fd);
  if (it == open_files_.end()) throw FsError(Status::kInval);
  co_return co_await getattr(it->second.fh, false);
}

sim::Task<vfs::Attributes> MountPoint::stat(const std::string& path) {
  Fh fh = co_await walk(path);
  co_return co_await getattr(fh, false);
}

sim::Task<uint32_t> MountPoint::access(const std::string& path,
                                       uint32_t want) {
  Fh fh = co_await walk(path);
  co_await charge(Proc3::kAccess);
  AccessRes res = co_await ops_->access(fh, want);
  maybe_remember(fh, res.post_attrs);
  throw_if_error(res.status);
  co_return res.access;
}

sim::Task<void> MountPoint::truncate(const std::string& path,
                                     uint64_t size) {
  Fh fh = co_await walk(path);
  // Like a kernel client, write dirty blocks back before the size changes:
  // dropping them would lose the bytes below the new size.
  co_await flush_file(fh, /*commit=*/false);
  co_await charge(Proc3::kSetattr);
  vfs::SetAttrs sattr;
  sattr.size = size;
  WccRes res = co_await ops_->setattr(fh, sattr);
  throw_if_error(res.status);
  invalidate_file(fh.fileid);
  // Shadows past the new end must never be replayed; the one holding the
  // end keeps only the bytes before it.
  const uint64_t bs = config_.block_size;
  ledger_.drop_file(fh.fileid, (size + bs - 1) / bs);
  ledger_.trim(BlockKey{fh.fileid, size / bs}, size % bs);
  maybe_remember(fh, res.post_attrs);
}

sim::Task<void> MountPoint::chmod(const std::string& path, uint32_t mode) {
  Fh fh = co_await walk(path);
  co_await charge(Proc3::kSetattr);
  vfs::SetAttrs sattr;
  sattr.mode = mode;
  WccRes res = co_await ops_->setattr(fh, sattr);
  throw_if_error(res.status);
  maybe_remember(fh, res.post_attrs);
}

sim::Task<void> MountPoint::utimens(const std::string& path, int64_t mtime) {
  Fh fh = co_await walk(path);
  co_await charge(Proc3::kSetattr);
  vfs::SetAttrs sattr;
  sattr.mtime = mtime;
  WccRes res = co_await ops_->setattr(fh, sattr);
  throw_if_error(res.status);
  maybe_remember(fh, res.post_attrs);
}

sim::Task<void> MountPoint::mkdir(const std::string& path, uint32_t mode) {
  auto [dir, name] = co_await walk_parent(path);
  co_await charge(Proc3::kMkdir);
  CreateRes res = co_await ops_->mkdir(dir, name, mode);
  maybe_remember(dir, res.dir_attrs);
  throw_if_error(res.status);
  maybe_remember(res.fh, res.attrs);
  dnlc_[{dir.fileid, name}] = res.fh;
}

sim::Task<void> MountPoint::rmdir(const std::string& path) {
  auto [dir, name] = co_await walk_parent(path);
  co_await charge(Proc3::kRmdir);
  WccRes res = co_await ops_->rmdir(dir, name);
  maybe_remember(dir, res.post_attrs);
  throw_if_error(res.status);
  dnlc_.erase({dir.fileid, name});
}

sim::Task<void> MountPoint::unlink(const std::string& path) {
  auto [dir, name] = co_await walk_parent(path);
  // Identify the victim so we can drop its cached state.
  std::optional<Fh> victim;
  auto hit = dnlc_.find({dir.fileid, name});
  if (hit != dnlc_.end()) victim = hit->second;
  co_await charge(Proc3::kRemove);
  WccRes res = co_await ops_->remove(dir, name);
  maybe_remember(dir, res.post_attrs);
  throw_if_error(res.status);
  dnlc_.erase({dir.fileid, name});
  if (victim) {
    invalidate_file(victim->fileid);
    attr_cache_.erase(victim->fileid);
    needs_commit_.erase(victim->fileid);
    ledger_.drop_file(victim->fileid);
  }
}

sim::Task<void> MountPoint::rename(const std::string& from,
                                   const std::string& to) {
  auto [fdir, fname] = co_await walk_parent(from);
  auto [tdir, tname] = co_await walk_parent(to);
  co_await charge(Proc3::kRename);
  WccRes res = co_await ops_->rename(fdir, fname, tdir, tname);
  maybe_remember(tdir, res.post_attrs);
  throw_if_error(res.status);
  auto hit = dnlc_.find({fdir.fileid, fname});
  if (hit != dnlc_.end()) {
    Fh moved = hit->second;
    dnlc_.erase(hit);
    dnlc_[{tdir.fileid, tname}] = moved;
  } else {
    dnlc_.erase({tdir.fileid, tname});
  }
}

sim::Task<void> MountPoint::symlink(const std::string& target,
                                    const std::string& path) {
  auto [dir, name] = co_await walk_parent(path);
  co_await charge(Proc3::kSymlink);
  CreateRes res = co_await ops_->symlink(dir, name, target);
  throw_if_error(res.status);
  dnlc_[{dir.fileid, name}] = res.fh;
}

sim::Task<std::string> MountPoint::readlink(const std::string& path) {
  Fh fh = co_await walk(path);
  co_await charge(Proc3::kReadlink);
  ReadlinkRes res = co_await ops_->readlink(fh);
  throw_if_error(res.status);
  co_return res.target;
}

sim::Task<void> MountPoint::link(const std::string& existing,
                                 const std::string& path) {
  Fh file = co_await walk(existing);
  auto [dir, name] = co_await walk_parent(path);
  co_await charge(Proc3::kLink);
  WccRes res = co_await ops_->link(file, dir, name);
  throw_if_error(res.status);
  dnlc_[{dir.fileid, name}] = file;
}

sim::Task<std::vector<MountPoint::Dirent>> MountPoint::readdir(
    const std::string& path) {
  Fh dir = co_await walk(path);
  std::vector<Dirent> out;
  uint64_t cookie = 0;
  const bool plus = config_.use_readdirplus;
  for (;;) {
    co_await charge(plus ? Proc3::kReaddirplus : Proc3::kReaddir);
    ReaddirRes res = co_await ops_->readdir(dir, cookie, 256, plus);
    throw_if_error(res.status);
    for (auto& entry : res.entries) {
      if (entry.fh) {
        if (entry.attrs) remember_attrs(*entry.fh, *entry.attrs);
        if (entry.name != "." && entry.name != "..") {
          dnlc_[{dir.fileid, entry.name}] = *entry.fh;
        }
      }
      Dirent de;
      de.name = entry.name;
      de.fileid = entry.fileid;
      if (entry.attrs) de.type = entry.attrs->type;
      cookie = entry.cookie;
      if (de.name != "." && de.name != "..") out.push_back(std::move(de));
    }
    if (res.eof || res.entries.empty()) break;
  }
  co_return out;
}

sim::Task<void> MountPoint::flush_all() {
  for (uint64_t fileid : cache_.dirty_files()) {
    co_await flush_file(Fh(root_.fsid, fileid), /*commit=*/true);
  }
  // Commit any files with unstable data but no remaining dirty blocks.
  std::vector<uint64_t> commits(needs_commit_.begin(), needs_commit_.end());
  for (uint64_t fileid : commits) {
    co_await flush_file(Fh(root_.fsid, fileid), /*commit=*/true);
  }
}

void MountPoint::drop_caches() {
  m_dirty_blocks_.add(-static_cast<int64_t>(cache_.dirty_count()));
  cache_.clear();
  attr_cache_.clear();
  dnlc_.clear();
  needs_commit_.clear();
  // The ledger's verifier survives: it identifies the server instance, not
  // a cache.
  ledger_.clear();
}

}  // namespace sgfs::nfs

#include "sgfs/client_proxy.hpp"

#include <algorithm>

#include "common/bufchain.hpp"
#include "common/log.hpp"
#include "crypto/key_regression.hpp"
#include "sgfs/replica.hpp"
#include "xdr/xdr.hpp"

namespace sgfs::core {

using nfs::Fh;
using nfs::Proc3;
using nfs::Status;

ClientProxy::~ClientProxy() = default;

ClientProxy::ClientProxy(net::Host& host, ClientProxyConfig config, Rng rng)
    : host_(host),
      config_(std::move(config)),
      rng_(rng),
      session_mgr_(host, config_, rng_),
      forward_mutex_(host.engine()),
      cache_(config_.cache.block_size, config_.cache.capacity_bytes),
      store_(host, cache_, config_, rng_),
      ledger_(host.engine().metrics(), "sgfs.recovery",
              /*track_bytes=*/false) {
  auto& m = host.engine().metrics();
  m_sessions_ = {m, "sgfs.client_proxy.sessions"};
  m_forwarded_ = {m, "sgfs.client_proxy.forwarded"};
  m_jukebox_retries_ = {m, "sgfs.client_proxy.jukebox_retries"};
  m_reconnects_ = {m, "sgfs.client_proxy.reconnects"};
  m_flushed_bytes_ = {m, "sgfs.client_proxy.flushed_bytes"};
  m_absorbed_getattrs_ = {m, "sgfs.client_proxy.absorbed.getattrs"};
  m_absorbed_lookups_ = {m, "sgfs.client_proxy.absorbed.lookups"};
  m_absorbed_reads_ = {m, "sgfs.client_proxy.absorbed.reads"};
  m_absorbed_writes_ = {m, "sgfs.client_proxy.absorbed.writes"};
  m_replica_reads_ = {m, "sgfs.client_proxy.replica_reads"};
  m_replica_fallbacks_ = {m, "sgfs.client_proxy.replica_fallbacks"};
  if (config_.replica.enabled) {
    replica_ = std::make_unique<ReplicaSet>(host_, config_.replica,
                                            config_.security.trusted,
                                            &config_.security.cost);
  }
  if (config_.pool.streams > 1) {
    pool_ = std::make_unique<StreamPool>(host_, config_, session_mgr_, rng_);
  }
}

void ClientProxy::start(uint16_t port) {
  rpc_server_ = std::make_unique<rpc::RpcServer>(host_, port);
  auto self = shared_from_this();
  rpc_server_->register_program(nfs::kNfsProgram, nfs::kNfsVersion3, self);
  rpc_server_->register_program(nfs::kMountProgram, nfs::kMountVersion3,
                                self);
  rpc_server_->start();
  if (config_.security.renegotiate_interval > 0) {
    host_.engine().spawn(renegotiate_loop(alive_));
  }
}

void ClientProxy::stop() {
  stopped_ = true;
  *alive_ = false;
  if (rpc_server_) rpc_server_->stop();
  if (pool_) pool_->reset();
  if (upstream_nfs_) upstream_nfs_->close();
  if (upstream_mount_) upstream_mount_->close();
}

uint64_t ClientProxy::dirty_bytes() const {
  return cache_.dirty_count() * config_.cache.block_size;
}

uint32_t ClientProxy::key_generation() const { return handshakes_; }

uint64_t ClientProxy::upstream_retransmits() const {
  uint64_t total = retransmits_accumulated_;
  if (upstream_nfs_) total += upstream_nfs_->retransmits();
  if (upstream_mount_) total += upstream_mount_->retransmits();
  return total;
}

void ClientProxy::drop_upstream() {
  // Pool streams are channels of the primary's session: they die with it
  // (the next striped transfer re-resumes off the fresh handshake).
  if (pool_) pool_->reset();
  if (upstream_nfs_) {
    retransmits_accumulated_ += upstream_nfs_->retransmits();
    upstream_nfs_->close();
    upstream_nfs_.reset();
  }
  if (upstream_mount_) {
    retransmits_accumulated_ += upstream_mount_->retransmits();
    upstream_mount_->close();
    upstream_mount_.reset();
  }
}

sim::Task<void> ClientProxy::ensure_upstream() {
  // Establishment flavour (plain, ticket resumption, full handshake) is the
  // SessionManager's call; with resumption enabled the MOUNT connection
  // rides the ticket the NFS full handshake just armed, so a reconnect pays
  // one RSA exchange, not two.
  if (!upstream_nfs_) {
    upstream_nfs_ =
        co_await session_mgr_.establish(nfs::kNfsProgram, nfs::kNfsVersion3);
    upstream_nfs_->set_retry(config_.retry);
    ++handshakes_;
    m_sessions_.inc();
  }
  if (!upstream_mount_) {
    upstream_mount_ = co_await session_mgr_.establish(nfs::kMountProgram,
                                                      nfs::kMountVersion3);
    upstream_mount_->set_retry(config_.retry);
  }
}

std::optional<Buffer> ClientProxy::epoch_key(uint32_t epoch) const {
  if (!epoch_secret_ || epoch > epoch_secret_epoch_) return std::nullopt;
  Buffer secret = crypto::KeyRegression::regress(*epoch_secret_,
                                                 epoch_secret_epoch_, epoch);
  return crypto::KeyRegression::content_key(secret, epoch);
}

void ClientProxy::note_epoch_secret(Buffer secret, uint32_t epoch) {
  epoch_secret_ = std::move(secret);
  epoch_secret_epoch_ = epoch;
  store_.rebind(crypto::KeyRegression::content_key(*epoch_secret_, epoch));
}

void ClientProxy::purge_cached_plaintext() {
  store_.purge();
  ledger_.clear();
  attrs_.clear();
  access_cache_.clear();
  dir_cache_.clear();
}

// --- replica read path (DESIGN.md §16) --------------------------------------

sim::Task<std::optional<BufChain>> ClientProxy::replica_read(
    const nfs::ReadArgs& a) {
  const uint32_t bs = config_.cache.block_size;
  auto info = co_await replica_->file_info(a.fh.fileid);
  // The publication's block geometry must match the cache's — the Merkle
  // leaves are cache blocks, anything else would verify the wrong bytes.
  if (!info || info->block_size != bs) co_return std::nullopt;
  nfs::ReadRes res;
  auto at = attrs_.find(a.fh.fileid);
  if (at != attrs_.end()) res.post_attrs = at->second.attrs;
  if (a.offset >= info->size) {
    // Reading past the published EOF needs no replica round trip.
    res.count = 0;
    res.eof = true;
    m_replica_reads_.inc();
    co_return xdr::encode(res);
  }
  const uint64_t index = a.offset / bs;
  auto plain = co_await replica_->fetch_block(a.fh.fileid, index);
  if (!plain) {
    // Degraded: all candidates blacklisted or failing.  The caller falls
    // back to the origin's secure channel — availability over locality.
    m_replica_fallbacks_.inc();
    co_return std::nullopt;
  }
  const uint64_t size = info->size;
  const size_t have = static_cast<size_t>(std::min<uint64_t>(
      std::min<uint64_t>(a.count, plain->size()), size - a.offset));
  res.count = static_cast<uint32_t>(have);
  res.eof = a.offset + have >= size;
  res.data = BufChain::copy_of(ByteView(plain->data(), have));
  ++absorbed_reads_;
  m_replica_reads_.inc();
  // Fill the local cache so repeat reads stay local (same admission rules
  // as an origin fill; never overwrite resident blocks or replay shadows).
  const BlockKey rkey{a.fh.fileid, index};
  const bool fillable = config_.cache.cache_data && !cache_.contains(rkey) &&
                        !ledger_.contains(rkey);
  if (fillable && store_.admit_fill()) {
    const size_t n = std::min<size_t>(plain->size(), bs);
    store_.overlay(rkey, static_cast<uint32_t>(n), /*absorb=*/false,
                   [&](MutByteView dst) {
                     std::copy_n(plain->begin(), n, dst.begin());
                   });
    spawn_cache_store(a.fh.fileid, index, n);
    co_await evict_if_needed();
  }
  co_await host_.cpu().use(config_.cost.msg_cost(have), "proxy");
  co_return xdr::encode(res);
}


sim::Task<BufChain> ClientProxy::forward(const rpc::CallContext& ctx,
                                         BufChain args) {
  auto guard = co_await forward_mutex_.scoped();
  ++forwarded_;
  m_forwarded_.inc();
  // Session re-establishment (paper §4.2: the FSS-managed session survives
  // transient failures).  A broken stream, a failed-closed secure channel
  // or a retransmission give-up tears the upstream session down; the proxy
  // re-handshakes and resends the call under its ORIGINAL xid so the
  // server's duplicate-request cache suppresses re-execution of
  // non-idempotent ops across the new connection.
  BufChain reply;
  std::optional<uint32_t> xid;
  int busy_retries = 0;
  for (int attempt = 0;; ++attempt) {
    std::exception_ptr failure;
    try {
      co_await ensure_upstream();
      rpc::RpcClient& client =
          ctx.prog == nfs::kMountProgram ? *upstream_mount_ : *upstream_nfs_;
      // Pass the job account's AUTH_SYS credentials through; the
      // server-side proxy performs the identity mapping.
      if (ctx.auth_sys) {
        client.set_auth(*ctx.auth_sys);
      } else {
        client.clear_auth();
      }
      if (!xid) xid = client.reserve_xid();
      reply = co_await client.call_with_xid(*xid, ctx.proc, args);
      if (config_.jukebox.enabled() && ctx.prog == nfs::kNfsProgram &&
          busy_retries < config_.jukebox.max_retries &&
          nfs::reply_is_jukebox(reply)) {
        // The overloaded server proxy shed this call without executing it:
        // wait out the overload and re-issue under a FRESH xid (the old one
        // could replay a DRC-cached jukebox result).  The successful round
        // trip proved the session healthy, so the reconnect counter resets.
        m_jukebox_retries_.inc();
        co_await host_.engine().sleep(config_.jukebox.delay(busy_retries));
        ++busy_retries;
        xid.reset();
        attempt = -1;
        continue;
      }
      break;
    } catch (const rpc::RpcAuthError&) {
      // The server-side proxy rejected this session's credentials — the DN
      // was revoked (gridmap removal + epoch bump).  Fail closed AND
      // forget: every cached byte, attribute, name and access verdict this
      // DN could still read through the proxy is purged before the denial
      // surfaces (satellite: revocation must not leave readable plaintext).
      purge_cached_plaintext();
      throw;
    } catch (const rpc::RpcTimeout&) {
      failure = std::current_exception();
    } catch (const crypto::SecurityError&) {
      failure = std::current_exception();
    } catch (const net::StreamClosed&) {
      failure = std::current_exception();
    }
    if (stopped_ || attempt >= config_.max_reconnects) {
      std::rethrow_exception(failure);
    }
    ++reconnects_;
    m_reconnects_.inc();
    SGFS_INFO("sgfs-proxy", "upstream session failed; re-establishing ",
              "(attempt ", attempt + 1, ")");
    drop_upstream();
    co_await host_.engine().sleep(config_.reconnect_backoff * (attempt + 1));
  }
  // Reply processing: inside the blocking proxy's single thread this
  // serializes with everything else.
  co_await config_.cost.charge_message(host_.cpu(), reply.size());
  co_return reply;
}

sim::Task<void> ClientProxy::renegotiate_loop(std::shared_ptr<bool> alive) {
  const sim::SimDur interval = config_.security.renegotiate_interval;
  auto& eng = host_.engine();
  for (;;) {
    co_await eng.sleep(interval);
    if (!*alive) co_return;
    try {
      co_await renegotiate();
    } catch (const std::exception& e) {
      if (*alive) SGFS_WARN("sgfs-proxy", "renegotiation failed: ", e.what());
      co_return;
    }
    if (!*alive) co_return;
  }
}

sim::Task<void> ClientProxy::renegotiate() {
  // Re-keys the session by running a fresh handshake: the proxy's upstream
  // RPC connection has a concurrent reader, so in-band renegotiation (which
  // SecureChannel supports for single-stream users) is replaced by an
  // equivalent reconnect — new session keys, re-read and re-validated
  // certificates (paper §4.2).
  auto guard = co_await forward_mutex_.scoped();
  if (!upstream_nfs_) co_return;
  drop_upstream();
  // Renegotiation wants genuinely fresh keys and re-validated certificates:
  // redeeming the old ticket would defeat both.
  session_mgr_.invalidate_ticket();
  co_await ensure_upstream();
}

void ClientProxy::reload(const ClientProxyConfig& config) {
  const bool security_changed =
      config.security.cipher != config_.security.cipher ||
      config.security.mac != config_.security.mac;
  config_ = config;
  store_.reload();  // switches the at-rest mode if cache.encryption moved
  // A shrunk capacity must not leave over-capacity blocks resident: drop
  // clean victims in LRU order now (reload is synchronous, so dirty blocks
  // wait for the next cache operation's writeback-eviction).
  cache_.set_capacity(config_.cache.capacity_bytes);
  cache_.make_room_clean(0);
  if (security_changed) {
    // Tear down the secured connections; the next request re-handshakes
    // under the new configuration (certificates are re-read then too).  The
    // retained ticket resumes the OLD cipher suite, so it dies here as well.
    drop_upstream();
    session_mgr_.invalidate_ticket();
  }
}

std::vector<ClientProxy::BlockKey> ClientProxy::tamperable_blocks() const {
  std::vector<BlockKey> keys;
  for (const BlockKey& key : cache_.keys()) {
    if (!cache_.is_dirty(key) && !ledger_.contains(key)) keys.push_back(key);
  }
  return keys;
}

// --- cache plumbing -----------------------------------------------------------

sim::Task<void> ClientProxy::cache_disk_io(uint64_t fileid, uint64_t block,
                                           size_t bytes, bool write) {
  const bool sequential = last_disk_block_.fileid == fileid &&
                          (block == last_disk_block_.block + 1 ||
                           block == last_disk_block_.block);
  last_disk_block_ = BlockKey{fileid, block};
  if (write) {
    co_await host_.disk().write(bytes, sequential, "proxy.cache");
  } else {
    co_await host_.disk().read(bytes, sequential, "proxy.cache");
  }
}

void ClientProxy::spawn_cache_store(uint64_t fileid, uint64_t block,
                                    size_t bytes) {
  // Writing a fetched block to the cache disk happens off the reply path.
  auto task = [](ClientProxy* proxy, std::shared_ptr<bool> alive,
                 uint64_t fileid, uint64_t block,
                 size_t bytes) -> sim::Task<void> {
    if (!*alive) co_return;
    co_await proxy->cache_disk_io(fileid, block, bytes, /*write=*/true);
  };
  host_.engine().spawn(task(this, alive_, fileid, block, bytes));
}

bool ClientProxy::attrs_fresh(const AttrEntry& entry) const {
  if (config_.cache.consistency == Consistency::kSessionExclusive) {
    return true;
  }
  return host_.engine().now() - entry.fetched <= config_.cache.attr_ttl;
}

void ClientProxy::remember(const Fh& fh,
                           const std::optional<vfs::Attributes>& attrs,
                           bool server_size) {
  if (!attrs || !config_.cache.cache_attrs) return;
  AttrEntry entry{*attrs, host_.engine().now()};
  if (!server_size) overlay_dirty(entry.attrs);
  attrs_[fh.fileid] = entry;
}

bool ClientProxy::overlay_dirty(vfs::Attributes& attrs) const {
  auto at = attrs_.find(attrs.fileid);
  if (at == attrs_.end() || !cache_.has_dirty(attrs.fileid)) return false;
  const vfs::Attributes& mine = at->second.attrs;
  if (mine.size <= attrs.size && mine.mtime <= attrs.mtime) return false;
  attrs.size = std::max(attrs.size, mine.size);
  attrs.mtime = std::max(attrs.mtime, mine.mtime);
  return true;
}

bool ClientProxy::overlay_dirty(std::optional<vfs::Attributes>& attrs) const {
  return attrs && overlay_dirty(*attrs);
}

bool ClientProxy::overlay_dirty(std::vector<nfs::DirEntry3>& entries) const {
  bool changed = false;
  for (auto& entry : entries) changed |= overlay_dirty(entry.attrs);
  return changed;
}

BufChain ClientProxy::with_local_attrs(Proc3 proc, BufChain reply) const {
  if (!cache_.any_dirty()) return reply;
  nfs::visit_proc3(proc, [&](auto p) {
    using P = decltype(p);
    if constexpr (!std::is_null_pointer_v<decltype(P::kAttrs)>) {
      auto res = xdr::decode<typename P::Res>(reply);
      if (overlay_dirty(res.*P::kAttrs)) reply = xdr::encode(res);
    }
  });
  return reply;
}

void ClientProxy::drop_file(uint64_t fileid) {
  cancelled_writeback_bytes_ += cache_.erase_file(fileid);
  attrs_.erase(fileid);
  access_cache_.erase(fileid);
  dir_cache_.erase(fileid);
  // Removed files need no verifier replay ("only the final results are
  // written back", §6.3.2 — and the server unlinked the data anyway).
  ledger_.drop_file(fileid);
}

template <Proc3 P>
sim::Task<typename nfs::ProcTraits<P>::Res> ClientProxy::forward_own(
    typename nfs::ProcTraits<P>::Args args) {
  rpc::CallContext ctx;
  ctx.prog = nfs::kNfsProgram;
  ctx.vers = nfs::kNfsVersion3;
  ctx.proc = static_cast<uint32_t>(P);
  ctx.auth_sys = last_client_auth_;
  BufChain reply = co_await forward(ctx, xdr::encode(args));
  co_return xdr::decode<typename nfs::ProcTraits<P>::Res>(reply);
}

sim::Task<nfs::WriteRes> ClientProxy::upstream_write(BlockKey key,
                                                     BufChain data,
                                                     nfs::StableHow stable) {
  return forward_own<Proc3::kWrite>(
      nfs::WriteArgs(Fh(seen_fsid_, key.fileid),
                     key.block * config_.cache.block_size, stable,
                     std::move(data)));
}

sim::Task<std::optional<BufChain>> ClientProxy::dirty_snapshot(BlockKey key) {
  const auto* b = cache_.find(key);
  if (!b || !cache_.is_dirty(key)) co_return std::nullopt;
  co_await cache_disk_io(key.fileid, key.block, b->valid, /*write=*/false);
  // The disk read suspended: a concurrent op (poison eviction, truncate,
  // another flush) may have erased the block meanwhile.
  if (!cache_.is_dirty(key)) co_return std::nullopt;
  auto plain = store_.open(key);
  if (!plain) {
    // A dirty block failed verification: the scratch disk destroyed the
    // only copy.  Never push (or serve) the corrupt bytes.
    SGFS_WARN("sgfs-proxy",
              "dirty cache block failed verification; dropping write-back");
    co_return std::nullopt;
  }
  // Snapshot the block: the kernel client may keep writing into the cached
  // block while the WRITE is in flight, so the upstream payload cannot
  // alias it.  This is the one copy a write-back cache fundamentally needs.
  co_return BufChain::copy_of(ByteView(plain->bytes().data(), plain->valid));
}

sim::Task<void> ClientProxy::writeback_block(uint64_t fileid, uint64_t block,
                                             bool file_sync) {
  const BlockKey key{fileid, block};
  std::optional<BufChain> snap = co_await dirty_snapshot(key);
  if (!snap) co_return;
  const size_t snap_len = snap->size();
  // Refcounted alias of the snapshot: if this goes out UNSTABLE and the
  // file server restarts before COMMIT, exactly these bytes are resent.
  BufChain shadow = *snap;
  nfs::WriteRes res = co_await upstream_write(
      key, std::move(*snap),
      file_sync ? nfs::StableHow::kFileSync : nfs::StableHow::kUnstable);
  if (res.status != Status::kOk) {
    SGFS_WARN("sgfs-proxy", "write-back failed: ",
              vfs::to_string(res.status));
  }
  flushed_bytes_ += snap_len;
  m_flushed_bytes_.inc(snap_len);
  cache_.clear_dirty(key);
  if (res.status == Status::kOk) {
    if (!file_sync) ledger_.put(key, std::move(shadow));
    co_await note_upstream_verf(res.verf);
  }
}

sim::Task<bool> ClientProxy::note_upstream_verf(uint64_t verf) {
  // The proxy is "the client" on this hop (RFC 1813 §3.3.21).
  co_return co_await ledger_.note_verf(
      verf, config_.verifier_replay,
      [this](BlockKey key,
             BufChain data) -> sim::Task<std::optional<uint64_t>> {
        nfs::WriteRes res = co_await upstream_write(
            key, std::move(data), nfs::StableHow::kUnstable);
        if (res.status == Status::kOk) co_return res.verf;
        SGFS_WARN("sgfs-proxy", "replay failed: ", vfs::to_string(res.status));
        co_return std::nullopt;
      });
}

sim::Task<void> ClientProxy::striped_fill(const nfs::ReadArgs& a) {
  const size_t bs = config_.cache.block_size;
  // Hold the forwarding mutex for the whole striped transfer: the primary
  // stream serves stripe chunks too and must not interleave with other
  // forwarded calls.
  auto guard = co_await forward_mutex_.scoped();
  // Re-check under the mutex: a concurrent miss may have filled the block
  // while this coroutine waited.
  if (cache_.contains(BlockKey{a.fh.fileid, a.offset / bs})) co_return;
  try {
    co_await ensure_upstream();
    co_await pool_->ensure_streams(*upstream_nfs_);
    const size_t want = config_.pool.effective_prefetch();
    StreamPool::StripedRead res = co_await pool_->read_striped(
        *upstream_nfs_, a.fh, a.offset, want, last_client_auth_);
    remember(a.fh, res.post_attrs);
    const size_t got = res.data.size();
    for (size_t off = 0; off < got; off += bs) {
      const uint64_t block = (a.offset + off) / bs;
      const BlockKey key{a.fh.fileid, block};
      const size_t len = std::min(bs, got - off);
      // Local state wins over server bytes: never overwrite a cached block
      // (it may be dirty) or one with an uncommitted replay shadow.
      if (cache_.contains(key) || ledger_.contains(key)) continue;
      const BufChain chunk = res.data.slice(off, len);
      store_.overlay(key, static_cast<uint32_t>(len), /*absorb=*/false,
                     [&](MutByteView dst) { chunk.copy_to(dst); });
      spawn_cache_store(a.fh.fileid, block, len);
    }
    co_await evict_if_needed();
  } catch (const std::exception& e) {
    // Non-fatal: the caller falls back to the single-stream forward path.
    SGFS_WARN("sgfs-proxy", "striped readahead failed: ", e.what());
  }
}

sim::Task<void> ClientProxy::flush_file_striped(uint64_t fileid) {
  const size_t bs = config_.cache.block_size;
  const std::vector<uint64_t> pending = cache_.dirty_blocks(fileid);
  if (pending.empty()) co_return;

  // Per-block snapshots kept for verifier replay (same shadow discipline
  // as writeback_block, just batched).
  struct Batch {
    StreamPool::WriteBatch wire;
    std::vector<std::pair<uint64_t, BufChain>> shadows;  // block, snapshot
    Batch() = default;
  };
  std::vector<Batch> batches;
  uint64_t prev_block = 0;
  bool prev_full = false;
  for (uint64_t block : pending) {
    // Read back and snapshot exactly like the single-stream write-back.
    const BlockKey key{fileid, block};
    std::optional<BufChain> snap = co_await dirty_snapshot(key);
    if (!snap) continue;
    const size_t len = snap->size();
    // Coalesce adjacent full blocks into one compound UNSTABLE WRITE; a
    // short (partially-valid) block may only end a run.
    const bool extend =
        !batches.empty() && prev_full && block == prev_block + 1 &&
        batches.back().wire.data.size() + len <= config_.pool.coalesce_bytes;
    if (!extend) {
      Batch b;
      b.wire.fh = Fh(seen_fsid_, fileid);
      b.wire.offset = block * bs;
      batches.push_back(std::move(b));
    }
    batches.back().wire.data.append(*snap);
    batches.back().shadows.emplace_back(block, std::move(*snap));
    prev_block = block;
    prev_full = len == bs;
  }
  if (batches.empty()) co_return;

  std::vector<StreamPool::BatchResult> results;
  try {
    co_await ensure_upstream();
    co_await pool_->ensure_streams(*upstream_nfs_);
    std::vector<StreamPool::WriteBatch> wire;
    wire.reserve(batches.size());
    for (const Batch& b : batches) wire.push_back(b.wire);
    auto guard = co_await forward_mutex_.scoped();
    results = co_await pool_->write_batches(*upstream_nfs_, wire,
                                            last_client_auth_);
  } catch (const std::exception& e) {
    // Everything is still dirty; the serial fallback below delivers it.
    SGFS_WARN("sgfs-proxy", "pipelined write-back failed: ", e.what());
    results.clear();
  }

  // Bookkeeping strictly in batch (= offset) order.  Verifier reactions
  // are deferred until every batch is accounted for: a replay triggered by
  // a mid-stripe server restart must see the complete shadow set.
  std::vector<uint64_t> verfs;
  for (size_t i = 0; i < results.size(); ++i) {
    if (!results[i].ok) continue;  // stays dirty; re-sent serially below
    const nfs::WriteRes& res = *results[i].res;
    if (res.status != Status::kOk) {
      SGFS_WARN("sgfs-proxy", "striped write-back failed: ",
                vfs::to_string(res.status));
    }
    for (const auto& [block, snap] : batches[i].shadows) {
      const BlockKey key{fileid, block};
      cache_.clear_dirty(key);
      flushed_bytes_ += snap.size();
      m_flushed_bytes_.inc(snap.size());
      if (res.status == Status::kOk) ledger_.put(key, snap);
    }
    if (res.status == Status::kOk) verfs.push_back(res.verf);
  }
  for (uint64_t verf : verfs) co_await note_upstream_verf(verf);

  // Undelivered batches (pool exhausted mid-flush) are still dirty: push
  // them through the reconnecting single-stream path so the flush epoch
  // always completes.
  for (uint64_t block : cache_.dirty_blocks(fileid)) {
    co_await writeback_block(fileid, block, /*file_sync=*/false);
  }
}

sim::Task<void> ClientProxy::evict_if_needed() {
  co_await cache_.evict(0, [this](const BlockKey& key) {
    return writeback_block(key.fileid, key.block, /*file_sync=*/true);
  });
}

sim::Task<void> ClientProxy::flush() {
  // Push dirty blocks per file, then COMMIT each file.  Files whose blocks
  // already went upstream UNSTABLE (eviction pressure) but were never
  // committed need the COMMIT too, even with nothing left dirty.
  std::set<uint64_t> files = ledger_.files();
  for (uint64_t fileid : cache_.dirty_files()) files.insert(fileid);
  for (uint64_t fileid : files) {
    const std::vector<uint64_t> pending = cache_.dirty_blocks(fileid);
    if (pool_ && !pending.empty()) {
      // Pipelined write-back over the stream pool; the COMMIT barrier
      // below is unchanged — one barrier per flush epoch.
      co_await flush_file_striped(fileid);
    } else {
      for (uint64_t block : pending) {
        co_await writeback_block(fileid, block, /*file_sync=*/false);
      }
    }
    // COMMIT until the reply's verifier matches the server instance that
    // holds the data; a mismatch means a mid-flush restart, which
    // note_upstream_verf answers by replaying the uncommitted shadows.
    for (;;) {
      const nfs::CommitRes res = co_await forward_own<Proc3::kCommit>(
          nfs::CommitArgs(Fh(seen_fsid_, fileid), 0, 0));
      if (res.status != Status::kOk) {
        SGFS_WARN("sgfs-proxy", "flush COMMIT failed: ",
                  vfs::to_string(res.status));
        break;
      }
      const bool rolled = co_await note_upstream_verf(res.verf);
      if (!rolled) break;
    }
    ledger_.drop_file(fileid);
  }
}

// --- request handling -----------------------------------------------------------

sim::Task<BufChain> ClientProxy::handle(const rpc::CallContext& ctx,
                                        BufChain args) {
  BufChain reply = co_await serve(ctx, std::move(args));
  if (ctx.prog != nfs::kNfsProgram) co_return reply;
  co_return with_local_attrs(static_cast<Proc3>(ctx.proc), std::move(reply));
}

sim::Task<BufChain> ClientProxy::serve(const rpc::CallContext& ctx,
                                       BufChain args) {
  co_await config_.cost.charge_message(host_.cpu(), args.size());
  if (ctx.auth_sys) last_client_auth_ = ctx.auth_sys;

  if (ctx.prog == nfs::kMountProgram || !config_.cache.enabled) {
    co_return co_await forward(ctx, args);
  }

  const auto proc = static_cast<Proc3>(ctx.proc);
  const size_t bs = config_.cache.block_size;

  switch (proc) {
    case Proc3::kGetattr: {
      auto a = xdr::decode<nfs::GetattrArgs>(args);
      auto hit = attrs_.find(a.fh.fileid);
      if (config_.cache.cache_attrs && hit != attrs_.end() &&
          attrs_fresh(hit->second)) {
        ++absorbed_getattrs_;
        m_absorbed_getattrs_.inc();
        nfs::GetattrRes res;
        res.attrs = hit->second.attrs;
        co_return xdr::encode(res);
      }
      BufChain reply = co_await forward(ctx, args);
      auto res = xdr::decode<nfs::GetattrRes>(reply);
      if (res.status == Status::kOk) {
        remember(a.fh, res.attrs);
      }
      co_return reply;
    }

    case Proc3::kLookup: {
      auto a = xdr::decode<nfs::DiropArgs>(args);
      if (config_.cache.cache_names) {
        auto cached = store_.name_get(a.dir.fileid, a.name);
        if (cached) {
          ++absorbed_lookups_;
          m_absorbed_lookups_.inc();
          nfs::LookupRes res = *cached;
          // Refresh attrs from the attribute cache (local writes move them).
          auto at = attrs_.find(res.fh.fileid);
          if (at != attrs_.end()) res.attrs = at->second.attrs;
          co_return xdr::encode(res);
        }
      }
      BufChain reply = co_await forward(ctx, args);
      auto res = xdr::decode<nfs::LookupRes>(reply);
      if (res.status == Status::kOk && config_.cache.cache_names) {
        store_.name_put(a.dir.fileid, a.name, res);
        remember(res.fh, res.attrs);
        remember(a.dir, res.dir_attrs);
      }
      co_return reply;
    }

    case Proc3::kAccess: {
      auto a = xdr::decode<nfs::AccessArgs>(args);
      auto hit = access_cache_.find(a.fh.fileid);
      if (hit != access_cache_.end() &&
          (a.access & ~hit->second.first) == 0) {
        nfs::AccessRes res;
        res.access = hit->second.second & a.access;
        auto at = attrs_.find(a.fh.fileid);
        if (at != attrs_.end()) res.post_attrs = at->second.attrs;
        co_return xdr::encode(res);
      }
      BufChain reply = co_await forward(ctx, args);
      auto res = xdr::decode<nfs::AccessRes>(reply);
      if (res.status == Status::kOk) {
        access_cache_[a.fh.fileid] = {a.access, res.access};
        remember(a.fh, res.post_attrs);
      }
      co_return reply;
    }

    case Proc3::kRead: {
      auto a = xdr::decode<nfs::ReadArgs>(args);
      seen_fsid_ = a.fh.fsid;
      // Block alignment is what the replica path needs; cachability
      // additionally requires the data cache to be on.
      const bool block_aligned = a.offset % bs == 0 && a.count <= bs;
      const bool aligned = config_.cache.cache_data && block_aligned;
      // Two passes at most: a miss with a stream pool runs a striped
      // readahead, then re-checks the cache (the pool populated whole
      // blocks).  Without a pool the loop body executes exactly once —
      // the K=1 path is unchanged.
      const BlockKey rkey{a.fh.fileid, a.offset / bs};
      for (int pass = 0;; ++pass) {
        if (aligned) {
          auto at = attrs_.find(a.fh.fileid);
          // A dirty block is the newest copy whatever the attributes say.
          // The store verifies a sealed block before it is served.
          std::optional<CacheStore::Plaintext> plain;
          if (cache_.contains(rkey) && at != attrs_.end() &&
              (cache_.is_dirty(rkey) || attrs_fresh(at->second))) {
            plain = store_.read_hit(rkey);
          }
          if (plain) {
            ++absorbed_reads_;
            m_absorbed_reads_.inc();
            const uint64_t size = at->second.attrs.size;
            size_t have = a.offset >= size
                              ? 0
                              : std::min<uint64_t>(
                                    std::min<uint64_t>(a.count, plain->valid),
                                    size - a.offset);
            // The at-rest bytes bound the copy (a tampered plaintext cache
            // may hold a truncated buffer — the negative control serves
            // wrong bytes, never out-of-bounds ones).
            const ByteView bytes = plain->bytes();
            have = std::min(have, bytes.size());
            // Snapshot the reply before the disk-io suspension: a
            // concurrent op may evict the block (or drop the attrs) while
            // this coroutine sleeps on the cache disk.
            nfs::ReadRes res;
            res.count = static_cast<uint32_t>(have);
            res.eof = a.offset + have >= size;
            res.data = BufChain::copy_of(bytes.first(have));
            res.post_attrs = at->second.attrs;
            co_await cache_disk_io(a.fh.fileid, a.offset / bs,
                                   have ? have : 1, /*write=*/false);
            co_return xdr::encode(res);
          }
        }
        if (pass == 0 && pool_ && aligned && store_.admit_fill()) {
          co_await striped_fill(a);
          continue;  // re-check: the readahead usually made this a hit
        }
        break;
      }
      // Replica fast path (DESIGN.md §16): a clean miss on a published
      // read-only file is served from the verified replica set instead of
      // the origin's secure channel.  Files with local dirty state keep the
      // origin path (session-exclusive semantics trump the published copy).
      if (replica_ && block_aligned && !cache_.has_dirty(a.fh.fileid)) {
        auto served = co_await replica_read(a);
        if (served) co_return std::move(*served);
      }
      BufChain reply = co_await forward(ctx, args);
      auto res = xdr::decode<nfs::ReadRes>(reply);
      if (res.status == Status::kOk && aligned) {
        remember(a.fh, res.post_attrs);
        if (store_.admit_fill() &&
            store_.overlay(rkey, res.count, /*absorb=*/false,
                           [&](MutByteView dst) { res.data.copy_to(dst); })) {
          spawn_cache_store(a.fh.fileid, a.offset / bs, res.count);
          co_await evict_if_needed();
        }
      }
      co_return reply;
    }

    case Proc3::kWrite: {
      auto a = xdr::decode<nfs::WriteArgs>(args);
      seen_fsid_ = a.fh.fsid;
      const bool aligned =
          config_.cache.cache_data && a.offset % bs == 0 &&
          a.data.size() <= bs;
      const BlockKey wkey{a.fh.fileid, a.offset / bs};
      if (config_.cache.write_back && aligned && store_.admit_write(wkey)) {
        ++absorbed_writes_;
        m_absorbed_writes_.inc();
        store_.overlay(wkey, static_cast<uint32_t>(a.data.size()),
                       /*absorb=*/true,
                       [&](MutByteView dst) { a.data.copy_to(dst); });
        cache_.mark_dirty(wkey);
        spawn_cache_store(a.fh.fileid, a.offset / bs, a.data.size());
        // Update the locally-known attributes.
        auto at = attrs_.find(a.fh.fileid);
        if (at != attrs_.end()) {
          at->second.attrs.size = std::max<uint64_t>(
              at->second.attrs.size, a.offset + a.data.size());
          at->second.attrs.mtime =
              static_cast<int64_t>(host_.engine().now() / sim::kSecond);
          at->second.fetched = host_.engine().now();
        }
        nfs::WriteRes res;
        res.count = static_cast<uint32_t>(a.data.size());
        res.committed = nfs::StableHow::kFileSync;  // durable in disk cache
        res.verf = 0x53474653;
        if (at != attrs_.end()) res.post_attrs = at->second.attrs;
        BufChain reply = xdr::encode(res);
        co_await evict_if_needed();
        co_return reply;
      }
      BufChain reply = co_await forward(ctx, args);
      auto res = xdr::decode<nfs::WriteRes>(reply);
      if (res.status == Status::kOk) remember(a.fh, res.post_attrs);
      co_return reply;
    }

    case Proc3::kCommit: {
      if (config_.cache.write_back && config_.cache.cache_data &&
          !store_.bypassed()) {
        // Data is durable in the proxy's disk cache; the real write-back
        // happens at flush() (end of session) or under eviction pressure.
        nfs::CommitRes res;
        res.verf = 0x53474653;
        co_return xdr::encode(res);
      }
      co_return co_await forward(ctx, args);
    }

    case Proc3::kCreate:
    case Proc3::kMkdir:
    case Proc3::kSymlink: {
      const nfs::DiropArgs where =
          proc == Proc3::kCreate  ? xdr::decode<nfs::CreateArgs>(args).where
          : proc == Proc3::kMkdir ? xdr::decode<nfs::MkdirArgs>(args).where
                                  : xdr::decode<nfs::SymlinkArgs>(args).where;
      BufChain reply = co_await forward(ctx, args);
      auto res = xdr::decode<nfs::CreateRes>(reply);
      // A create invalidates the cached listing but not sibling names.
      dir_cache_.erase(where.dir.fileid);
      if (res.status == Status::kOk) {
        remember(res.fh, res.attrs);
        remember(where.dir, res.dir_attrs);
        if (config_.cache.cache_names) {
          nfs::LookupRes lr;
          lr.fh = res.fh;
          lr.attrs = res.attrs;
          store_.name_put(where.dir.fileid, where.name, lr);
        }
      }
      co_return reply;
    }

    case Proc3::kRemove:
    case Proc3::kRmdir: {
      auto a = xdr::decode<nfs::DiropArgs>(args);
      // Identify the victim before forwarding so pending write-backs can be
      // cancelled (paper §6.3.2).
      // (A sealed entry that fails its MAC leaves the victim unknown: the
      // pending write-backs then flush normally — safe, just not optimal.)
      std::optional<uint64_t> victim;
      if (auto hit = store_.name_get(a.dir.fileid, a.name)) {
        victim = hit->fh.fileid;
      }
      BufChain reply = co_await forward(ctx, args);
      auto res = xdr::decode<nfs::WccRes>(reply);
      if (res.status == Status::kOk) {
        dir_cache_.erase(a.dir.fileid);
        store_.name_erase(a.dir.fileid, a.name);
        remember(a.dir, res.post_attrs);
        if (victim) drop_file(*victim);
      }
      co_return reply;
    }

    case Proc3::kRename: {
      auto a = xdr::decode<nfs::RenameArgs>(args);
      BufChain reply = co_await forward(ctx, args);
      auto res = xdr::decode<nfs::WccRes>(reply);
      if (res.status == Status::kOk) {
        dir_cache_.erase(a.from_dir.fileid);
        dir_cache_.erase(a.to_dir.fileid);
        if (auto moved = store_.name_get(a.from_dir.fileid, a.from_name)) {
          store_.name_erase(a.from_dir.fileid, a.from_name);
          store_.name_put(a.to_dir.fileid, a.to_name, *moved);
        } else {
          store_.name_erase(a.to_dir.fileid, a.to_name);
        }
      }
      co_return reply;
    }

    case Proc3::kSetattr: {
      auto a = xdr::decode<nfs::SetattrArgs>(args);
      BufChain reply = co_await forward(ctx, args);
      auto res = xdr::decode<nfs::WccRes>(reply);
      if (res.status == Status::kOk) {
        if (a.sattr.size) {
          // Truncate: drop cached blocks beyond the new size, and cut the
          // block holding the new end back to it, so neither its write-back
          // nor a verifier replay of its shadow regrows the file.
          const uint64_t size = *a.sattr.size;
          const uint64_t keep_blocks = (size + bs - 1) / bs;
          cancelled_writeback_bytes_ +=
              cache_.erase_file(a.fh.fileid, keep_blocks);
          ledger_.drop_file(a.fh.fileid, keep_blocks);
          const BlockKey end{a.fh.fileid, size / bs};
          const auto end_len = static_cast<uint32_t>(size % bs);
          if (auto* b = cache_.find(end); b && b->valid > end_len) {
            if (cache_.is_dirty(end)) {
              cancelled_writeback_bytes_ += b->valid - end_len;
            }
            b->valid = end_len;
          }
          ledger_.trim(end, end_len);
        }
        remember(a.fh, res.post_attrs, /*server_size=*/a.sattr.size.has_value());
      }
      co_return reply;
    }

    case Proc3::kReaddir:
    case Proc3::kReaddirplus: {
      auto a = xdr::decode<nfs::ReaddirArgs>(args);
      if (config_.cache.cache_dirs && a.cookie == 0) {
        auto hit = dir_cache_.find(a.dir.fileid);
        if (hit != dir_cache_.end()) co_return xdr::encode(hit->second);
      }
      BufChain reply = co_await forward(ctx, args);
      if (config_.cache.cache_dirs && a.cookie == 0) {
        auto res = xdr::decode<nfs::ReaddirRes>(reply);
        if (res.status == Status::kOk && res.eof) {
          for (const auto& entry : res.entries) {
            if (entry.fh && entry.attrs) {
              remember(*entry.fh, entry.attrs);
              if (config_.cache.cache_names && entry.name != "." &&
                  entry.name != "..") {
                nfs::LookupRes lr;
                lr.fh = *entry.fh;
                lr.attrs = entry.attrs;
                store_.name_put(a.dir.fileid, entry.name, lr);
              }
            }
          }
          dir_cache_[a.dir.fileid] = std::move(res);
        }
      }
      co_return reply;
    }

    default:
      co_return co_await forward(ctx, args);
  }
}

}  // namespace sgfs::core

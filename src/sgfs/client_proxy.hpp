// SGFS client-side proxy (paper §4.2, §6).
//
// Sits on the compute host's loopback between the unmodified kernel NFS
// client and the wide-area link: forwards RPCs to the server-side proxy over
// the SSL-secured channel and hides WAN latency with a disk cache:
//
//   - data blocks and attributes are cached on the proxy's local disk with
//     session-exclusive consistency (the paper's sessions are dedicated to
//     one user/job, §6.1) or TTL-revalidation;
//   - write-back: WRITE and COMMIT are absorbed locally (durable in the
//     disk cache) and propagated on flush() — end-of-session write-back is
//     what Figures 9/10 report separately;
//   - REMOVE cancels pending write-backs of the victim ("only the final
//     results are written back, not the temporary data", §6.3.2);
//   - the session's security configuration can be reloaded and the SSL
//     session key renegotiated in-band, manually or on a timer (§4.2).
//
// Forwarding uses blocking RPC (one outstanding upstream call) like the
// paper's prototype.
#pragma once

#include <functional>
#include <set>
#include <vector>

#include "nfs/block_cache.hpp"
#include "nfs/nfs3.hpp"
#include "rpc/rpc_client.hpp"
#include "rpc/rpc_server.hpp"
#include "sgfs/cache_store.hpp"
#include "sgfs/session.hpp"
#include "sgfs/session_manager.hpp"
#include "sgfs/stream_pool.hpp"
#include "sim/mutex.hpp"

namespace sgfs::core {

class ClientProxy : public rpc::RpcProgram,
                    public std::enable_shared_from_this<ClientProxy> {
 public:
  ClientProxy(net::Host& host, ClientProxyConfig config, Rng rng);

  /// Starts the plain RPC service on the loopback `port`.
  void start(uint16_t port);
  void stop();

  /// Forwarded calls and replies travel as shared segment chains; cache
  /// hits and fills are the only places the proxy touches payload bytes.
  sim::Task<BufChain> handle(const rpc::CallContext& ctx,
                             BufChain args) override;

  /// The loopback RPC server keeps replies of non-idempotent ops in its
  /// duplicate-request cache (only relevant if the kernel client ever
  /// retransmits; the loopback is fault-free in the standard testbeds).
  bool cache_reply(const rpc::CallContext& ctx) const override {
    return ctx.prog == nfs::kNfsProgram &&
           !nfs::proc3_is_idempotent(static_cast<nfs::Proc3>(ctx.proc));
  }

  /// Loopback admission control (if configured) sheds NFS calls with a
  /// genuine NFS3ERR_JUKEBOX reply the kernel client understands.
  std::optional<BufChain> busy_reply(
      const rpc::CallContext& ctx) const override {
    if (ctx.prog != nfs::kNfsProgram) return std::nullopt;
    BufChain body = nfs::busy_status_reply(static_cast<nfs::Proc3>(ctx.proc));
    if (body.empty()) return std::nullopt;
    return body;
  }

  /// Writes all dirty cached data back to the server (session teardown —
  /// the separately-reported write-back time in Figures 9/10).
  sim::Task<void> flush();

  /// Applies a new cache/security configuration (paper §4.2 reload).  A
  /// changed cipher suite tears down the secure connection; the next call
  /// reconnects and re-handshakes with the new configuration.
  void reload(const ClientProxyConfig& config);

  /// Re-keys the secure session (paper §4.2: refresh the session key of a
  /// long-lived session): runs a fresh mutual handshake.
  sim::Task<void> renegotiate();

  // Stats (used by benchmarks and tests).
  uint64_t forwarded() const { return forwarded_; }
  uint64_t absorbed_reads() const { return absorbed_reads_; }
  uint64_t absorbed_writes() const { return absorbed_writes_; }
  uint64_t absorbed_getattrs() const { return absorbed_getattrs_; }
  uint64_t absorbed_lookups() const { return absorbed_lookups_; }
  uint64_t cancelled_writeback_bytes() const {
    return cancelled_writeback_bytes_ + store_.dropped_dirty_bytes();
  }
  uint64_t flushed_bytes() const { return flushed_bytes_; }
  uint64_t dirty_bytes() const;
  uint32_t key_generation() const;
  /// Upstream RPC retransmissions (current + torn-down connections).
  uint64_t upstream_retransmits() const;
  /// Upstream sessions re-established after a failure.
  uint64_t reconnects() const { return reconnects_; }
  /// Shadow copies held for write-verifier replay (blocks pushed UNSTABLE
  /// to the file server and not yet COMMIT-acknowledged).
  size_t uncommitted_blocks() const { return ledger_.size(); }
  /// The WAN stream pool, or nullptr when config.pool.streams <= 1 (the
  /// pool is then never constructed — K=1 stays bit-identical).  Exposed
  /// for the chaos tests' fault-injection seams.
  StreamPool* stream_pool() { return pool_.get(); }

  // --- key-regression reader side (lazy revocation, paper §5) ------------
  /// Records the epoch secret the server provisioned at establishment and
  /// rebinds the cache master to that epoch's content key.  With key
  /// regression, content keys for any epoch <= `epoch` are derivable
  /// locally; a later epoch requires a fresh server grant — which a
  /// revoked DN never gets.
  void note_epoch_secret(Buffer secret, uint32_t epoch);
  /// Content key for epoch `epoch`, derived by regressing the provisioned
  /// secret backwards.  nullopt when no secret was provisioned or the
  /// requested epoch is newer than the grant (fail closed).
  std::optional<Buffer> epoch_key(uint32_t epoch) const;

  // --- encrypted-at-rest cache (hostile storage, DESIGN.md §15) ----------
  using BlockKey = nfs::BlockKey;
  /// Resident blocks eligible for tamper injection: clean (the injector
  /// models hostile scratch storage, not lost writes — dirty blocks are
  /// the only copy) and without an uncommitted replay shadow.
  std::vector<BlockKey> tamperable_blocks() const;
  /// The storage-fault injector's seams (same pattern as stream_pool()):
  /// mutate the at-rest bytes of a resident block or a sealed name entry.
  /// Each returns false when there is nothing to mutate.
  bool tamper_block(const BlockKey& key,
                    const std::function<void(Buffer&)>& fn) {
    return store_.tamper_block(key, fn);
  }
  std::vector<CacheStore::NameKey> tamperable_names() const {
    return store_.tamperable_names();
  }
  bool tamper_name(const CacheStore::NameKey& key,
                   const std::function<void(Buffer&)>& fn) {
    return store_.tamper_name(key, fn);
  }
  size_t resident_blocks() const { return cache_.size(); }
  uint64_t cache_bytes_used() const { return cache_.bytes_used(); }
  /// Cache bookkeeping invariant (LRU order and dirty index agree with the
  /// resident blocks) — poison-evictions must not leak capacity.
  bool cache_accounting_consistent() const { return cache_.consistent(); }
  /// True only while reads actually bypass the cache: half-open (kProbe)
  /// admits fills and serves verified hits, so it does not count.
  bool cache_bypassed() const { return store_.bypassed(); }
  const ClientProxyConfig& config() const { return config_; }

 private:
  struct AttrEntry {
    vfs::Attributes attrs;
    sim::SimTime fetched = 0;
  };

  sim::Task<void> ensure_upstream();
  /// Tears down both upstream connections, folding their retransmission
  /// counters into the proxy totals first.
  void drop_upstream();
  sim::Task<BufChain> forward(const rpc::CallContext& ctx, BufChain args);
  /// Forwards a call the proxy makes on its own behalf (write-back, replay,
  /// COMMIT) under the job account's credentials.
  template <nfs::Proc3 P>
  sim::Task<typename nfs::ProcTraits<P>::Res> forward_own(
      typename nfs::ProcTraits<P>::Args args);
  /// One write-back WRITE of `data` at block `key`; the caller keeps its
  /// own alias of `data` as the replay shadow.
  sim::Task<nfs::WriteRes> upstream_write(BlockKey key, BufChain data,
                                          nfs::StableHow stable);
  sim::Task<void> cache_disk_io(uint64_t fileid, uint64_t block,
                                size_t bytes, bool write);
  void spawn_cache_store(uint64_t fileid, uint64_t block, size_t bytes);
  /// After the server applied `written` bytes of a forwarded WRITE: drops
  /// the clean resident copies of those blocks and lays the bytes over the
  /// dirty ones, so neither a READ hit nor a later write-back serves the
  /// old bytes.
  void refresh_written(const nfs::WriteArgs& a, uint32_t written);
  bool attrs_fresh(const AttrEntry& entry) const;
  /// Records server attributes, keeping the local size and mtime of a file
  /// with dirty blocks unless `server_size`: a SETATTR that sets the size
  /// is the server's call.
  void remember(const nfs::Fh& fh,
                const std::optional<vfs::Attributes>& attrs,
                bool server_size = false);
  /// A file with dirty blocks is newer here than on the file server: merges
  /// its locally known size and mtime into `attrs` (the larger of each
  /// wins).  Returns true when `attrs` changed.
  bool overlay_dirty(vfs::Attributes& attrs) const;
  bool overlay_dirty(std::optional<vfs::Attributes>& attrs) const;
  bool overlay_dirty(std::vector<nfs::DirEntry3>& entries) const;
  /// Applies overlay_dirty to the file attributes an NFS reply carries (the
  /// table's kAttrs member) and re-encodes the reply if any changed, so the
  /// kernel client never takes the server's stale size for a file whose
  /// newest bytes are only here.
  BufChain with_local_attrs(nfs::Proc3 proc, BufChain reply) const;
  /// The request handler behind handle(): cache hits, absorbs, forwards.
  sim::Task<BufChain> serve(const rpc::CallContext& ctx, BufChain args);
  void drop_file(uint64_t fileid);
  sim::Task<void> evict_if_needed();
  /// Reads a dirty block back from the cache disk and snapshots (opens)
  /// its valid bytes for a write-back.  nullopt when the block went away
  /// or stopped being dirty during the disk read, or failed verification.
  sim::Task<std::optional<BufChain>> dirty_snapshot(BlockKey key);
  sim::Task<void> writeback_block(uint64_t fileid, uint64_t block,
                                  bool file_sync);
  /// Striped readahead on an aligned READ miss: fetches
  /// config.pool.effective_prefetch() bytes over the pool and populates
  /// whole cache blocks (never overwriting dirty blocks or blocks with
  /// uncommitted shadows).  Failure is non-fatal — the caller falls back
  /// to the single-stream forward path.
  sim::Task<void> striped_fill(const nfs::ReadArgs& a);
  /// Pipelined write-back for one file: coalesces adjacent dirty blocks
  /// into compound UNSTABLE batches and fans them over the pool; blocks
  /// that could not be delivered remain dirty and are pushed through the
  /// single-stream path afterwards.  The caller still issues the single
  /// COMMIT barrier per flush epoch.
  sim::Task<void> flush_file_striped(uint64_t fileid);
  sim::Task<void> renegotiate_loop(std::shared_ptr<bool> alive);

  // Write-verifier recovery (RFC 1813 §3.3.21, applied to the proxy's own
  // UNSTABLE write-backs).  Returns true if the verifier rolled (the file
  // server restarted mid-flush) — the caller must retry its COMMIT.
  sim::Task<bool> note_upstream_verf(uint64_t verf);

  /// Revocation hygiene: forgets every cached byte, attribute, name and
  /// access verdict this session could still read after its DN was revoked
  /// upstream.
  void purge_cached_plaintext();

  net::Host& host_;
  ClientProxyConfig config_;
  Rng rng_;
  // Declared after config_/rng_ (it borrows both) and before pool_ (the
  // pool borrows it in turn).
  SessionManager session_mgr_;
  std::unique_ptr<rpc::RpcServer> rpc_server_;
  std::unique_ptr<rpc::RpcClient> upstream_nfs_;
  std::unique_ptr<rpc::RpcClient> upstream_mount_;
  std::unique_ptr<StreamPool> pool_;  // null unless config.pool.streams > 1
  sim::SimMutex forward_mutex_;

  // Hot-path metric handles (lazy first-use resolution; see
  // obs::CounterHandle).
  obs::CounterHandle m_sessions_, m_forwarded_, m_jukebox_retries_;
  obs::CounterHandle m_reconnects_, m_flushed_bytes_;
  obs::CounterHandle m_absorbed_getattrs_, m_absorbed_lookups_;
  obs::CounterHandle m_absorbed_reads_, m_absorbed_writes_;
  bool stopped_ = false;

  // Disk cache state.  The store is the only code that knows how blocks
  // and names rest on the scratch disk (plaintext or sealed).
  nfs::BlockCache cache_;
  CacheStore store_;
  std::map<uint64_t, AttrEntry> attrs_;
  std::map<uint64_t, std::pair<uint32_t, uint32_t>> access_cache_;
  std::map<uint64_t, nfs::ReaddirRes> dir_cache_;
  // Shadow copies of blocks pushed upstream UNSTABLE, kept until the COMMIT
  // that makes them durable on the file server (refcounted aliases of the
  // write-back snapshots — no extra copies, no cache-behaviour change).
  nfs::UnstableLedger ledger_;
  // Sequential-pattern tracking for disk cost (seek vs streaming).
  BlockKey last_disk_block_{UINT64_MAX, UINT64_MAX};
  // Session bookkeeping: the job account's credentials (re-used for flush)
  // and the exported filesystem id (single export per session).
  std::optional<rpc::AuthSys> last_client_auth_;
  uint64_t seen_fsid_ = 1;
  // Key-regression grant (lazy revocation): the newest epoch secret the
  // server handed this session, from which all earlier ones derive.
  std::optional<Buffer> epoch_secret_;
  uint32_t epoch_secret_epoch_ = 0;

  uint64_t forwarded_ = 0;
  uint64_t absorbed_reads_ = 0;
  uint64_t absorbed_writes_ = 0;
  uint64_t absorbed_getattrs_ = 0;
  uint64_t absorbed_lookups_ = 0;
  uint64_t cancelled_writeback_bytes_ = 0;
  uint64_t flushed_bytes_ = 0;
  uint32_t handshakes_ = 0;
  uint64_t retransmits_accumulated_ = 0;
  uint64_t reconnects_ = 0;

  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace sgfs::core

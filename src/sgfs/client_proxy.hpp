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

#include "crypto/seal.hpp"
#include "nfs/block_cache.hpp"
#include "nfs/nfs3.hpp"
#include "rpc/rpc_client.hpp"
#include "rpc/rpc_server.hpp"
#include "sgfs/session.hpp"
#include "sgfs/session_manager.hpp"
#include "sgfs/stream_pool.hpp"
#include "sgfs/trust_breaker.hpp"
#include "sim/mutex.hpp"

namespace sgfs::core {

class ReplicaSet;  // sgfs/replica.hpp

class ClientProxy : public rpc::RpcProgram,
                    public std::enable_shared_from_this<ClientProxy> {
 public:
  ClientProxy(net::Host& host, ClientProxyConfig config, Rng rng);
  ~ClientProxy();  // = default in the .cpp, where ReplicaSet is complete

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
    return cancelled_writeback_bytes_;
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
  /// Last write verifier observed from the file server (unset before the
  /// first forwarded WRITE/COMMIT reply).
  std::optional<uint64_t> upstream_verf() const { return ledger_.verf(); }
  /// The WAN stream pool, or nullptr when config.pool.streams <= 1 (the
  /// pool is then never constructed — K=1 stays bit-identical).  Exposed
  /// for the chaos tests' fault-injection seams.
  StreamPool* stream_pool() { return pool_.get(); }
  /// The session lifecycle layer (full handshakes, ticket resumption,
  /// pool sibling streams).  Exposed for the reconnect/revocation tests.
  SessionManager& session_manager() { return session_mgr_; }

  // --- key-regression reader side (lazy revocation, paper §5) ------------
  /// Records the session-generation secret the server provisioned at
  /// establishment (generation `epoch`).  With key regression, content
  /// keys for any generation <= `epoch` are derivable locally; generation
  /// > `epoch` requires a fresh server grant — which a revoked DN never
  /// gets.
  void note_epoch_secret(Buffer secret, uint32_t epoch);
  /// Content key for generation `epoch`, derived by regressing the
  /// provisioned secret backwards.  nullopt when no secret was provisioned
  /// or the requested generation is newer than the grant (fail closed).
  std::optional<Buffer> epoch_key(uint32_t epoch) const;
  uint32_t provisioned_epoch() const { return epoch_secret_epoch_; }

  // --- encrypted-at-rest cache (hostile storage, DESIGN.md §15) ----------
  using BlockKey = nfs::BlockKey;
  /// Resident blocks eligible for tamper injection: clean (the injector
  /// models hostile scratch storage, not lost writes — dirty blocks are
  /// the only copy) and without an uncommitted replay shadow.
  std::vector<BlockKey> tamperable_blocks() const;
  /// Mutates the at-rest bytes of a cached block — the storage-fault
  /// injector's seam (same pattern as stream_pool()).  Returns false when
  /// the block is not resident.
  bool tamper_block(const BlockKey& key,
                    const std::function<void(Buffer&)>& fn);
  size_t resident_blocks() const { return cache_.size(); }
  uint64_t cache_bytes_used() const { return cache_.bytes_used(); }
  /// Cache bookkeeping invariant (LRU order and dirty index agree with the
  /// resident blocks) — poison-evictions must not leak capacity.
  bool cache_accounting_consistent() const { return cache_.consistent(); }
  /// True only while reads actually bypass the cache: half-open (kProbe)
  /// admits fills and serves verified hits, so it does not count.
  bool cache_bypassed() const {
    return cache_breaker_.state() == TrustBreaker::State::kOpen;
  }
  /// Sealed name-table entries eligible for tamper injection (encryption
  /// on): (dir fileid, name) keys whose at-rest blob can be mutated.
  std::vector<std::pair<uint64_t, std::string>> tamperable_names() const;
  /// Mutates the at-rest bytes of a sealed name entry — the storage-fault
  /// injector's seam.  Returns false when absent or unsealed (legacy).
  bool tamper_name(const std::pair<uint64_t, std::string>& key,
                   const std::function<void(Buffer&)>& fn);
  /// Content-addressed replica reader (null unless config.replica.enabled).
  ReplicaSet* replica_set() { return replica_.get(); }
  const ClientProxyConfig& config() const { return config_; }

 private:
  /// At-rest bytes are plaintext in the legacy cache and the sealed blob
  /// (ciphertext + binding MAC) with cache.encryption on.  The generation
  /// is trusted memory, an input to the MAC that is never stored on disk:
  /// 0 = never sealed, otherwise drawn from a proxy-wide clock so a stale
  /// blob from ANY earlier life of the block fails verification.
  using Block = nfs::BlockCache::Block;
  struct AttrEntry {
    vfs::Attributes attrs;
    sim::SimTime fetched = 0;
  };
  /// Name/fileid lookup-table entry.  With cache.encryption the at-rest
  /// form is the sealed blob (generation > 0) and every hit re-opens it —
  /// a tampered entry fails its MAC at use, not at write.  Legacy caches
  /// store the plaintext result with generation == 0 and an empty blob.
  struct NameEntry {
    nfs::LookupRes res;
    Buffer sealed;
    uint64_t generation = 0;
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
  void invalidate_dir(uint64_t dir_fileid);
  /// Lays the bytes `copy_in` writes over the block's current plaintext
  /// and stores the result (sealed at a fresh generation with encryption
  /// on), raising its valid prefix to `valid`.  A fill (not `absorb`)
  /// stores nothing (nullptr) over a dirty block, whose bytes are newer
  /// than the server's.  A sealed block that fails verification is
  /// poison-evicted first; if that trips the bypass, a fill stores nothing
  /// while an absorbed write still lands, being the only copy of its bytes.
  Block* overlay_block(const BlockKey& key, uint32_t valid, bool absorb,
                       const std::function<void(MutByteView)>& copy_in);
  sim::Task<void> evict_if_needed();
  /// Reads a dirty block back from the cache disk and snapshots (unseals)
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

  // --- sealed-cache helpers (encryption on; DESIGN.md §15) ---------------
  /// Per-file sealing keys under the current cache master (memoized).
  const crypto::SealKeys& seal_keys(uint64_t fileid);
  /// Opens a block's at-rest blob against its trusted generation; nullopt
  /// means the scratch disk lied (tamper/truncate/splice/rollback).
  std::optional<Buffer> unseal(const Block& b, const BlockKey& key);
  /// Seals `plaintext` (a full block_size staging buffer) into the block at
  /// a fresh generation.
  void seal_into(Block& b, const BlockKey& key, ByteView plaintext);
  /// CPU charge for one seal/unseal pass (AES + HMAC over `bytes`).
  sim::SimDur seal_cost(size_t bytes) const;
  /// Records a verify failure in the degradation window; may trip the
  /// breaker into bypass.
  void note_verify_failure();
  /// Erases a block that failed verification, cancelling its write-back.
  void poison_evict(const BlockKey& key);
  /// Revocation hygiene (satellite): forgets every cached byte, attribute,
  /// name and access verdict this session could still read after its DN
  /// was revoked upstream.
  void purge_cached_plaintext();
  /// Rebinds the cache master secret to the provisioned epoch's content
  /// key: clean blocks are purged, dirty ones re-sealed under the new key.
  void rekey_cache();
  /// Gatekeeper for the data-cache paths under the poisoned-cache breaker;
  /// takes the open -> half-open-probe edge when the bypass has elapsed.
  bool data_cache_admitting();
  TrustBreaker::Policy cache_breaker_policy() const;

  // --- sealed name-table helpers (encryption on; satellite of §16) -------
  /// Seal keys for the name table, derived from the cache master under a
  /// dedicated label and keyed by directory fileid (memoized).
  const crypto::SealKeys& name_keys(uint64_t dir);
  /// Stores a lookup result (sealing it when encryption is on).
  void name_put(uint64_t dir, const std::string& name,
                const nfs::LookupRes& res);
  /// Loads and verifies a stored lookup result.  nullopt = absent, or the
  /// sealed entry failed its MAC (entry erased, verify-failure recorded —
  /// the caller refetches from the server).
  std::optional<nfs::LookupRes> name_get(uint64_t dir,
                                         const std::string& name);
  /// Replica read path: serve an aligned clean READ from the verified
  /// replica set.  nullopt = not servable (no catalog, unaligned, dirty,
  /// all replicas failed) — fall through to the origin forward.
  sim::Task<std::optional<BufChain>> replica_read(const nfs::ReadArgs& a);

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
  std::unique_ptr<ReplicaSet> replica_;  // null unless replica.enabled
  sim::SimMutex forward_mutex_;

  // Hot-path metric handles (lazy first-use resolution; see
  // obs::CounterHandle).
  obs::CounterHandle m_sessions_, m_forwarded_, m_jukebox_retries_;
  obs::CounterHandle m_reconnects_, m_flushed_bytes_;
  obs::CounterHandle m_absorbed_getattrs_, m_absorbed_lookups_;
  obs::CounterHandle m_absorbed_reads_, m_absorbed_writes_;
  // Storage-integrity counters (lazy: encryption-off runs never register
  // them, keeping legacy metric snapshots identical).
  obs::CounterHandle m_sealed_blocks_, m_verify_failures_;
  obs::CounterHandle m_poison_evictions_, m_refetches_;
  obs::CounterHandle m_bypass_entries_, m_probes_, m_revocation_purges_;
  obs::CounterHandle m_name_verify_failures_;
  obs::CounterHandle m_replica_reads_, m_replica_fallbacks_;
  bool stopped_ = false;

  // Disk cache state.
  nfs::BlockCache cache_;
  std::map<uint64_t, AttrEntry> attrs_;
  std::map<std::pair<uint64_t, std::string>, NameEntry> names_;
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
  // Key-regression grant (lazy revocation): the newest generation secret
  // the server handed this session, from which all earlier ones derive.
  std::optional<Buffer> epoch_secret_;
  uint32_t epoch_secret_epoch_ = 0;
  // Encrypted-at-rest cache state (only populated with cache.encryption).
  // The master secret is random per session until a key-regression epoch
  // secret is provisioned; then it rebinds to the epoch's content key.
  Buffer cache_master_;
  std::map<uint64_t, crypto::SealKeys> file_keys_;
  // Name-table sealing: a sub-master derived from cache_master_ under its
  // own label (so name blobs never share keys with data blocks), memoized
  // per directory.  Both are cleared whenever the cache master moves.
  Buffer name_master_;
  std::map<uint64_t, crypto::SealKeys> name_keys_;
  /// Proxy-wide seal-generation clock (monotonic across evict/refill, so a
  /// rolled-back blob from any earlier life fails the binding MAC).
  uint64_t seal_clock_ = 0;
  // Poisoned-cache degradation breaker (shared TrustBreaker; the old
  // CacheHealth/strike fields configured as burst-window + half-open probe).
  TrustBreaker cache_breaker_;

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

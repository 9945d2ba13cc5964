// Content-addressed read-only replication (SFS-RO style; DESIGN.md §16).
//
// The file owner publishes, per read-only file, a SHA-256 Merkle root over
// the file's cache blocks, packaged with the replica endpoints into a
// catalog and signed with the owner's grid credential.  Any number of
// *untrusted* replica servers can then serve blocks over a plain transport:
// the client verifies every block against the signed root before a byte of
// it is used, so integrity is end-to-end and the replicas need no identity,
// no gridmap entry and no secure channel.  A Byzantine replica can at worst
// waste a fetch — never corrupt a read.
//
// The client side (ReplicaSet) layers the robustness loop on top of the
// verification primitive:
//   - per-replica TrustBreaker: verification failures, timeouts and
//     transport errors strike the replica; a burst blacklists it for
//     `blacklist_duration`, after which a half-open probe re-admits it on
//     the first clean block;
//   - rendezvous ranking spreads distinct blocks across replicas while
//     keeping every client's order deterministic;
//   - hedged fetch: the first attempt is cut short after `hedge_delay` and
//     a second replica is raced in (tail-latency insurance against
//     slow-drip replicas);
//   - graceful degradation: when every replica is blacklisted or exhausted,
//     fetch_block() returns nullopt and the caller falls back to the origin
//     file server over the normal secure channel.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "crypto/cert.hpp"
#include "crypto/merkle.hpp"
#include "crypto/secure_channel.hpp"
#include "net/host.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "rpc/rpc_client.hpp"
#include "sgfs/session.hpp"
#include "sgfs/trust_breaker.hpp"
#include "sim/task.hpp"

namespace sgfs::core {

// Replica block service (dumb, plain-transport; served by
// fleet::ReplicaServer).
inline constexpr uint32_t kReplicaProgram = 400003;
inline constexpr uint32_t kReplicaVersion = 1;
enum class ReplicaProc : uint32_t {
  kNull = 0,
  kGetBlock = 1,    // args: u64 fileid, u64 index
                    //   -> u32 status, opaque block, u32 n, n x 32-byte sibs
  kGetCatalog = 2,  // args: none -> string (SignedReplicaCatalog, hex)
};

// Catalog distribution rides on the FSS (services/services.hpp).  The
// numbers live here so sgfs_core does not depend on sgfs_services; a
// static_assert in services.cpp pins them to the ServiceProc enum.
inline constexpr uint32_t kCatalogServiceProgram = 400001;
inline constexpr uint32_t kCatalogServiceVersion = 1;
inline constexpr uint32_t kPutReplicaCatalogProc = 13;
inline constexpr uint32_t kGetReplicaCatalogProc = 14;

struct ReplicaEndpoint {
  std::string name;
  net::Address addr;

  ReplicaEndpoint() = default;
  ReplicaEndpoint(std::string n, net::Address a)
      : name(std::move(n)), addr(std::move(a)) {}
};

/// One published read-only file: its identity on the replicas (fileid), its
/// shape, and the signed-for Merkle root every block must verify against.
struct ReplicaFileInfo {
  std::string path;
  uint64_t fileid = 0;
  uint64_t size = 0;
  uint32_t block_size = 0;
  uint64_t leaf_count = 0;
  crypto::MerkleTree::Digest root{};

  ReplicaFileInfo() = default;
};

/// The owner-published catalog: which replicas exist and which files they
/// carry.  Text form ('|'-separated segments) so it travels inside signed
/// envelopes and FSS replies like the shard map does.
struct ReplicaCatalog {
  uint64_t epoch = 0;
  std::vector<ReplicaEndpoint> replicas;
  std::vector<ReplicaFileInfo> files;

  ReplicaCatalog() = default;

  const ReplicaFileInfo* find(uint64_t fileid) const;

  std::string to_string() const;
  static ReplicaCatalog parse(const std::string& text);
};

/// Catalog + owner signature over (catalog text, signing time).  The chain
/// must validate against the client's trusted roots; rollback protection is
/// the client's epoch monotonicity, not a freshness window (a read-only
/// publication has no natural expiry).
struct SignedReplicaCatalog {
  std::string catalog_text;
  int64_t signed_at = 0;
  std::vector<crypto::Certificate> chain;
  Buffer signature;

  SignedReplicaCatalog() = default;

  Buffer canonical_bytes() const;
  Buffer serialize() const;
  static SignedReplicaCatalog deserialize(ByteView data);
};

SignedReplicaCatalog sign_replica_catalog(const ReplicaCatalog& catalog,
                                          const crypto::Credential& owner,
                                          int64_t now_s);

struct CatalogVerify {
  bool ok = false;
  std::string error;
  ReplicaCatalog catalog;
};

CatalogVerify verify_replica_catalog(const SignedReplicaCatalog& signed_cat,
                                     const std::vector<crypto::Certificate>&
                                         trusted,
                                     int64_t now_s);

/// Thrown by the fetch path when a replica's bytes fail Merkle
/// verification (or the reply is malformed) — the Byzantine signal, kept
/// distinct from timeouts so the scorer can tell lying from slow.
struct ReplicaVerifyError : std::runtime_error {
  explicit ReplicaVerifyError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Client-side replica reader: verified fetch with per-replica scoring,
/// blacklist + half-open re-probe, hedging and origin degradation.
class ReplicaSet {
 public:
  ReplicaSet(net::Host& host, const ReplicaPolicy& policy,
             std::vector<crypto::Certificate> trusted,
             const crypto::CryptoCostModel* cost);

  /// Installs a serialized+signed catalog directly (tests, static
  /// deployments).  Returns false when the signature fails or the epoch
  /// regresses.
  bool adopt_catalog(const std::string& signed_text);

  /// Published info for `fileid`, refreshing the catalog if stale.  BY
  /// VALUE: the catalog can be replaced while the caller is suspended in a
  /// later fetch, so a pointer would dangle.
  sim::Task<std::optional<ReplicaFileInfo>> file_info(uint64_t fileid);

  /// One verified block.  nullopt = degrade to origin (all replicas
  /// blacklisted, exhausted or failing).  The returned bytes have passed
  /// Merkle verification against the signed root — never unverified.
  sim::Task<std::optional<Buffer>> fetch_block(uint64_t fileid,
                                               uint64_t index);

  uint64_t epoch() const { return catalog_ ? catalog_->epoch : 0; }

  // Robustness observability (non-vacuity gates in tests and benches).
  uint64_t fetches() const { return fetches_; }
  uint64_t verified_blocks() const { return verified_blocks_; }
  uint64_t verified_bytes() const { return verified_bytes_; }
  uint64_t verify_failures() const { return verify_failures_; }
  uint64_t timeouts() const { return timeouts_; }
  uint64_t fetch_errors() const { return fetch_errors_; }
  uint64_t stale_catalogs() const { return stale_catalogs_; }
  uint64_t blacklists() const { return blacklists_; }
  uint64_t probes() const { return probes_; }
  uint64_t hedged_fetches() const { return hedged_; }
  uint64_t hedge_wins() const { return hedge_wins_; }
  uint64_t degraded_to_origin() const { return degraded_; }
  uint64_t catalog_fetches() const { return catalog_fetches_; }

 private:
  struct Replica {
    ReplicaEndpoint ep;
    TrustBreaker breaker;
    // Shared: concurrent fetches (kernel readahead) each hold the handle
    // they called on, so a timeout handler closing the replica's connection
    // can't destroy a client another coroutine is still awaiting.
    std::shared_ptr<rpc::RpcClient> client;

    Replica() = default;
  };

  sim::Task<void> maybe_refresh();
  sim::Task<bool> refresh_from_fss();
  /// Candidate replicas for (fileid, index): admitted ones in rendezvous
  /// order, so distinct blocks fan out across replicas but every client
  /// ranks a given block identically (cache-friendly, deterministic).
  std::vector<Replica*> ranked(uint64_t fileid, uint64_t index);
  /// One fetch+verify against one replica.  Throws ReplicaVerifyError /
  /// rpc::RpcTimeout / other on failure.
  sim::Task<Buffer> fetch_from(Replica& r, const ReplicaFileInfo& fi,
                               uint64_t index, sim::SimDur timeout);
  void strike(Replica& r);
  bool install(ReplicaCatalog fresh);

  net::Host& host_;
  ReplicaPolicy policy_;
  std::vector<crypto::Certificate> trusted_;
  const crypto::CryptoCostModel* cost_;

  std::optional<ReplicaCatalog> catalog_;
  std::vector<std::unique_ptr<Replica>> replicas_;
  sim::SimTime catalog_fetched_at_ = -1;
  bool refreshing_ = false;
  size_t gossip_rr_ = 0;

  obs::CounterHandle m_fetches_, m_verified_blocks_, m_verified_bytes_;
  obs::CounterHandle m_verify_failures_, m_timeouts_, m_blacklists_;
  obs::CounterHandle m_probes_, m_hedged_, m_hedge_wins_, m_degraded_;
  obs::CounterHandle m_stale_catalogs_;

  uint64_t fetches_ = 0;
  uint64_t verified_blocks_ = 0;
  uint64_t verified_bytes_ = 0;
  uint64_t verify_failures_ = 0;
  uint64_t timeouts_ = 0;
  uint64_t fetch_errors_ = 0;
  uint64_t stale_catalogs_ = 0;
  uint64_t blacklists_ = 0;
  uint64_t probes_ = 0;
  uint64_t hedged_ = 0;
  uint64_t hedge_wins_ = 0;
  uint64_t degraded_ = 0;
  uint64_t catalog_fetches_ = 0;
};

}  // namespace sgfs::core

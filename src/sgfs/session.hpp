// SGFS session configuration (paper §3, §4.2).
//
// A session is one user's (or application's) secure grid file system: a
// client-side proxy on the compute host and a server-side proxy on the file
// server, mutually authenticated with grid certificates, customized per
// session: cipher/MAC selection, gridmap + ACL policy, disk-cache
// parameters, consistency model and key-renegotiation period.
//
// SessionConfig parses/produces the proxy configuration-file format
// (INI sections [security], [cache], [gridmap]); the services (src/services)
// generate these when they create sessions on a user's behalf.
#pragma once

#include "common/config.hpp"
#include "crypto/secure_channel.hpp"
#include "net/network.hpp"
#include "rpc/retry.hpp"
#include "rpc/rpc_server.hpp"  // AdmissionControl
#include "sgfs/acl.hpp"

namespace sgfs::core {

enum class UnmappedPolicy { kDeny, kAnonymous };

enum class Consistency {
  kSessionExclusive,  // paper §6.1: file system dedicated to one user/job
  kRevalidate,        // attribute TTL + revalidation (shared sessions)
};

/// User-level processing cost of a proxy (one hop of the paper's measured
/// "user-level virtualization overhead").
struct ProxyCostModel {
  sim::SimDur per_msg_cpu = 150 * sim::kMicrosecond;  // parse+dispatch+fwd
  double copy_bytes_per_sec = 600.0e6;                // user-space copies
  /// CPU the daemon burns *overlapped* with I/O waits (async daemons doing
  /// crypto/processing off the critical path — accounted for utilization,
  /// Figures 5/6, without extending the request path).
  double overlapped_bytes_per_sec = 0;

  ProxyCostModel() = default;

  sim::SimDur msg_cost(size_t bytes) const {
    return per_msg_cpu +
           sim::from_seconds(static_cast<double>(bytes) /
                             copy_bytes_per_sec);
  }

  /// Charges one message of `bytes` to a proxy's CPU: occupies it for
  /// msg_cost(), then accounts the overlapped per-byte work.
  sim::Task<void> charge_message(sim::Resource& cpu, size_t bytes) const;
};

/// Client-proxy disk cache parameters (paper §4.2 configuration file).
struct CacheConfig {
  bool enabled = true;
  /// Cache data blocks (sgfs disk cache).  SFS caches only attributes,
  /// names and access rights in memory.
  bool cache_data = true;
  size_t block_size = 32 * 1024;
  uint64_t capacity_bytes = 4ull << 30;  // disk-sized
  bool write_back = true;
  bool cache_attrs = true;
  bool cache_names = true;
  bool cache_dirs = true;
  Consistency consistency = Consistency::kSessionExclusive;
  sim::SimDur attr_ttl = 30 * sim::kSecond;  // kRevalidate mode only
  /// Encrypt-and-MAC every cached data block at rest (DESIGN.md §15): the
  /// proxy's scratch disk is untrusted infrastructure.  Off (the paper's
  /// plaintext cache) is the negative control that demonstrably serves
  /// poisoned bytes — and keeps every legacy run bit-identical.
  bool encryption = false;
  /// Poisoned-cache degradation (encryption only): after `poison_burst`
  /// verify failures inside `poison_window`, the proxy drops to cache-bypass
  /// (read-/write-through) for `bypass_duration`, then goes half-open:
  /// fills are admitted again and the next cached read that *verifies*
  /// re-enables caching, while a verify failure on the trial blob re-trips
  /// the bypass — the PR 5 breaker idiom applied to storage.
  int poison_burst = 8;
  sim::SimDur poison_window = 2 * sim::kSecond;
  sim::SimDur bypass_duration = 5 * sim::kSecond;

  CacheConfig() = default;
};

/// WAN stream pool (DotDFS-style parallel secure streams): the client
/// proxy stripes bulk transfers across K concurrent channels of ONE
/// session (per-stream keys derived from a single RSA handshake) and
/// pipelines write-back flush batches across them.  streams == 1 keeps the
/// pool entirely inert — no extra connections, no RNG draws, no code-path
/// changes — bit-identical to the pre-pool proxy.
struct StreamPoolConfig {
  /// K: total concurrent streams, including the primary channel.
  int streams = 1;
  /// Bytes per striped chunk request (one READ per chunk).
  size_t chunk_bytes = 256 * 1024;
  /// Bytes prefetched per striped READ miss; 0 = streams * chunk_bytes.
  size_t prefetch_bytes = 0;
  /// Reassign chunks from a dead stream to the survivors.  Disable only
  /// for the chaos negative control: a stream fault then aborts the
  /// striped transfer and the proxy degrades to the single-stream path.
  bool failover = true;
  /// Max bytes of adjacent dirty blocks coalesced into one compound
  /// UNSTABLE WRITE batch during flush.
  size_t coalesce_bytes = 256 * 1024;

  StreamPoolConfig() = default;

  size_t effective_prefetch() const {
    return prefetch_bytes != 0
               ? prefetch_bytes
               : static_cast<size_t>(streams) * chunk_bytes;
  }
};

/// Read-only replica fan-out (SFS-RO style, DESIGN.md §16): the client
/// proxy fetches published file blocks from untrusted replica hosts over a
/// *plain* channel and verifies each block against the owner-signed Merkle
/// root before use.  Disabled by default — the replica path adds no state,
/// no RNG draws and no timing to sessions that never opt in.
struct ReplicaPolicy {
  bool enabled = false;
  /// FSS endpoint serving the signed replica catalog (kGetReplicaCatalog).
  /// Unset (empty host) = catalog must be injected via adopt_catalog().
  net::Address catalog_service;
  /// Re-fetch the catalog when the cached copy is older than this.
  sim::SimDur catalog_refresh = 60 * sim::kSecond;
  /// Per-replica blacklist breaker (core::TrustBreaker): `blacklist_burst`
  /// strikes inside `blacklist_window` blacklist the replica for
  /// `blacklist_duration`, then a half-open probe re-admits it.
  int blacklist_burst = 3;
  sim::SimDur blacklist_window = 2 * sim::kSecond;
  sim::SimDur blacklist_duration = 5 * sim::kSecond;
  /// Per-attempt block-fetch timeout (slow-drip / crashed replicas).
  sim::SimDur fetch_timeout = 1 * sim::kSecond;
  /// Hedge: when the primary replica has not answered after `hedge_delay`,
  /// abandon it (scoring a strike) and try the next-ranked replica.
  /// 0 disables hedging (each attempt gets the full fetch_timeout).
  sim::SimDur hedge_delay = 250 * sim::kMillisecond;
  ReplicaPolicy() = default;
};

struct ServerProxyConfig {
  /// Plain (unsecured) transport — the paper's basic GFS baseline.
  bool plain_transport = false;
  /// When plain, every caller maps to this account (the paper's gfs uses
  /// out-of-band session-key setup; the account stands in for it).
  std::optional<Account> plain_account;
  crypto::SecurityConfig security;
  GridMap gridmap;
  AccountTable accounts;
  UnmappedPolicy unmapped = UnmappedPolicy::kDeny;
  bool fine_grained_acls = true;
  net::Address kernel_nfs;  // loopback address of the kernel NFS server
  ProxyCostModel cost;
  /// Admission control on the WAN-facing RPC service: bounded concurrency +
  /// queue; at capacity, shed (drop or NFS3ERR_JUKEBOX busy reply).
  /// Disabled by default.
  rpc::AdmissionControl admission;
  /// Per-session fair queueing toward the upstream kernel NFS server:
  /// round-robin across sessions (peer identities) instead of global FIFO,
  /// so one hot session cannot starve the others.  Disabled by default
  /// (plain FIFO).
  bool fair_queueing = false;
  /// Abbreviated resumed handshakes on the main port (unified negotiation:
  /// the first handshake message's magic picks resumed vs full flow).
  /// Off (default), the listener keeps the strict full-handshake path and
  /// its exact pre-resumption timing.  On, the proxy issues tickets for
  /// both pool sibling streams and cross-session reconnects.
  bool session_resumption = false;
  /// Model a session-ticket store that survives orderly restarts (e.g. a
  /// sealed ticket-encryption key on disk).  Default off: a crash wipes
  /// the cache and reconnecting clients fall back to full handshakes.
  bool durable_ticket_cache = false;
  /// Key-regression revocation (crypto::KeyRegression): gridmap changes
  /// bump the session-generation epoch; sessions authorized under an older
  /// epoch are re-checked against the gridmap on their next op and fail
  /// closed if their DN was revoked.  Off (default), a live session keeps
  /// its admission-time rights — the paper's lazy "re-read gridmap" story.
  bool key_regression = false;

  ServerProxyConfig() = default;
};

struct ClientProxyConfig {
  bool plain_transport = false;  // gfs / gfs-ssh baselines
  crypto::SecurityConfig security;
  net::Address server_proxy;
  CacheConfig cache;
  ProxyCostModel cost;
  /// Upstream call retransmission policy; enable alongside a lossy
  /// net::FaultPlan (defaults to disabled = wait forever).
  rpc::RetryPolicy retry;
  /// Reaction to NFS3ERR_JUKEBOX from an overloaded server proxy: delayed
  /// retry under a fresh xid.  Disabled by default — the jukebox status is
  /// forwarded to the kernel client unchanged.
  rpc::JukeboxPolicy jukebox;
  /// Session re-establishment: on upstream session failure (broken stream,
  /// failed-closed secure channel, retransmission give-up) the proxy
  /// re-handshakes and resends the call, up to this many times per call
  /// before surfacing the error.  0 disables recovery.
  int max_reconnects = 4;
  sim::SimDur reconnect_backoff = 100 * sim::kMillisecond;
  /// RFC 1813 §3.3.21 applied one hop up: when the file server's write
  /// verifier changes, resend every UNSTABLE-written-but-uncommitted block
  /// before retrying COMMIT.  Disable ONLY to demonstrate the resulting
  /// data loss (the chaos suite's deliberately-broken negative test).
  bool verifier_replay = true;
  /// WAN stream pool; pool.streams == 1 (default) keeps it inert.
  StreamPoolConfig pool;
  /// Cross-session resumption: keep the ticket from the last full handshake
  /// and reconnect (after crash_restart, breaker trip or retry give-up)
  /// with an abbreviated handshake instead of a full RSA exchange; falls
  /// back to a full handshake when the server forgot the ticket.  Requires
  /// `session_resumption` on the server proxy.  Off by default — sessions
  /// that never opt in are bit-identical to the pre-resumption code.
  bool resume_sessions = false;
  /// Content-addressed read-only replication (DESIGN.md §16); inert by
  /// default.
  ReplicaPolicy replica;

  ClientProxyConfig() = default;
};

/// Parses the [security]/[cache] sections of a proxy configuration file
/// into an existing config (certificates are resolved by the caller).
void apply_config_text(const Config& cfg, CacheConfig& cache,
                       crypto::SecurityConfig& security);

/// Serializes cache+security choices back to configuration text.
std::string to_config_text(const CacheConfig& cache,
                           const crypto::SecurityConfig& security);

}  // namespace sgfs::core

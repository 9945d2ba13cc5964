// SGFS management services (paper §3.2, §4.4): FSS and DSS.
//
// The File System Service (FSS) runs on every client and server host and
// controls the local proxies; the Data Scheduler Service (DSS) creates and
// customizes sessions by talking to both FSSs.  All service interactions are
// WS-Security-style signed envelopes (src/services/envelope) over RPC —
// message-level security, off the data path, exactly the paper's two-level
// architecture (Figure 3).
//
// Delegation: the user issues a proxy certificate to the DSS, which uses it
// to have the client-side FSS configure a proxy that authenticates *as the
// user* (paper §3.2: "delegate the management services the right to create
// a SGFS session on behalf of the user").
#pragma once

#include "nfs/nfs3_server.hpp"
#include "rpc/rpc_client.hpp"
#include "rpc/rpc_server.hpp"
#include "services/envelope.hpp"
#include "sgfs/client_proxy.hpp"
#include "sgfs/server_proxy.hpp"
#include "sgfs/shard_map.hpp"

namespace sgfs::services {

inline constexpr uint32_t kFssProgram = 400001;
inline constexpr uint32_t kFssVersion = 1;
inline constexpr uint32_t kDssProgram = 400002;
inline constexpr uint32_t kDssVersion = 1;

// Service procedures; all carry one signed Envelope as args and return one.
enum class ServiceProc : uint32_t {
  kNull = 0,
  kCreateServerProxy = 1,  // FSS (server host)
  kCreateClientProxy = 2,  // FSS (client host)
  kDestroyProxy = 3,       // FSS
  kPutAcl = 4,             // FSS (server host)
  kReconfigure = 5,        // FSS (client host)
  kPutShardMap = 6,        // FSS: controller publishes the fleet shard map
  kGetShardMap = 7,        // FSS: shard discovery (unauthenticated read)
  kSsoLogin = 8,           // FSS: mint/redeem the per-user SSO pass
  kSsoAuthorize = 9,       // FSS: authorize one session/shard connection
  kCreateSession = 10,       // DSS
  kGrantAccess = 11,         // DSS ACL DB management
  kPutFileAcl = 12,          // DSS -> server FSS fine-grained ACL
  // 13 and 14 are retired; do not reuse them.
};

/// Serializes a credential for GSI-style delegation transport.
std::string credential_to_field(const crypto::Credential& cred);
crypto::Credential credential_from_field(const std::string& field);

/// FSS: per-host proxy factory, driven by signed envelopes from the DSS.
class FileSystemService
    : public rpc::RpcProgram,
      public std::enable_shared_from_this<FileSystemService> {
 public:
  /// `exported_fs` is non-null on file-server hosts (gives ACL access and
  /// tells the FSS which kernel NFS address to wire server proxies to).
  FileSystemService(net::Host& host, crypto::Credential service_cred,
                    std::vector<crypto::Certificate> trusted,
                    std::vector<std::string> authorized_controller_dns,
                    std::shared_ptr<vfs::FileSystem> exported_fs,
                    net::Address kernel_nfs, Rng rng);

  void start(uint16_t port);
  void stop();

  sim::Task<BufChain> handle(const rpc::CallContext& ctx,
                             BufChain args) override;

  core::ServerProxy* server_proxy(uint16_t port);
  core::ClientProxy* client_proxy(uint16_t port);
  size_t session_count() const {
    return server_proxies_.size() + client_proxies_.size();
  }

  /// The fleet shard map this FSS serves for discovery, if one has been
  /// published (kPutShardMap, or set_shard_map for locally-wired fleets).
  const std::optional<core::ShardMap>& shard_map() const {
    return shard_map_;
  }
  /// Direct (in-process) publication; epoch monotonicity is enforced the
  /// same way as over the wire.  Returns false on a stale epoch.
  bool set_shard_map(core::ShardMap map);

  // --- SSO pass desk (session single sign-on) ----------------------------
  /// Disabling the cache is the naive baseline: every kSsoLogin mints and
  /// every kSsoAuthorize signs afresh — O(sessions) FSS signatures instead
  /// of O(users).  The connection-storm bench sweeps both.
  void set_sso_cache(bool on) { sso_cache_enabled_ = on; }
  uint64_t sso_signatures() const { return sso_signatures_; }
  uint64_t sso_cache_hits() const { return sso_cache_hits_; }

 private:
  int64_t now_epoch() const {
    return static_cast<int64_t>(host_.engine().now() / sim::kSecond);
  }
  Envelope reply_env(const std::string& action,
                     std::map<std::string, std::string> fields);

  net::Host& host_;
  crypto::Credential cred_;
  std::vector<crypto::Certificate> trusted_;
  std::vector<std::string> authorized_;  // DNs allowed to control this FSS
  std::shared_ptr<vfs::FileSystem> exported_fs_;
  net::Address kernel_nfs_;
  Rng rng_;
  std::unique_ptr<rpc::RpcServer> rpc_server_;
  std::map<uint16_t, std::shared_ptr<core::ServerProxy>> server_proxies_;
  std::map<uint16_t, std::shared_ptr<core::ClientProxy>> client_proxies_;
  uint16_t next_port_ = 5000;

  // Fleet shard map served for discovery.  The signed GetShardMapResponse
  // is cached per epoch and re-signed only when its timestamp approaches
  // the verifier freshness window (300 s): discovery from thousands of
  // sessions costs one RSA signature per ~4 minutes, not one per request.
  std::optional<core::ShardMap> shard_map_;
  std::optional<Envelope> shard_reply_cache_;
  int64_t shard_reply_signed_at_ = 0;
  uint64_t shard_reply_epoch_ = 0;

  // SSO pass desk: one short-TTL signed credential per user amortizes the
  // FSS's RSA signatures over every mount/shard connection that user makes
  // within the window (the signed authorize reply is cached per user too,
  // same discipline as the shard-map discovery reply).
  struct SsoEntry {
    Envelope pass;             // the signed per-user credential
    Envelope authorize_reply;  // cached signed authorization
    int64_t minted_at = 0;
    int64_t reply_signed_at = 0;
    SsoEntry() = default;
  };
  bool sso_cache_enabled_ = true;
  static constexpr int64_t kSsoTtlS = 3600;  // a minted pass's lifetime
  uint64_t sso_signatures_ = 0;
  uint64_t sso_cache_hits_ = 0;
  std::map<std::string, SsoEntry> sso_cache_;
};

/// DSS: session scheduling + the per-filesystem ACL database that generates
/// gridmap files (paper §4.4).
class DataSchedulerService
    : public rpc::RpcProgram,
      public std::enable_shared_from_this<DataSchedulerService> {
 public:
  DataSchedulerService(net::Host& host, crypto::Credential service_cred,
                       std::vector<crypto::Certificate> trusted, Rng rng);

  void start(uint16_t port);
  void stop();

  /// Registers an exported filesystem with its FSS endpoint and the local
  /// account files are stored under.
  void register_filesystem(const std::string& path,
                           const net::Address& server_fss,
                           const std::string& account, uint32_t uid,
                           uint32_t gid);

  /// Grants `user_dn` access to `path` (the DSS ACL DB; becomes a gridmap
  /// entry in sessions created afterwards).
  void grant(const std::string& path, const std::string& user_dn);
  void revoke(const std::string& path, const std::string& user_dn);

  sim::Task<BufChain> handle(const rpc::CallContext& ctx,
                             BufChain args) override;

 private:
  struct ExportInfo {
    net::Address server_fss;
    std::string account;
    uint32_t uid = 0;
    uint32_t gid = 0;
    std::set<std::string> granted_dns;
    ExportInfo() = default;
  };

  int64_t now_epoch() const {
    return static_cast<int64_t>(host_.engine().now() / sim::kSecond);
  }
  sim::Task<Envelope> call_fss(const net::Address& fss, ServiceProc proc,
                               const Envelope& env);

  net::Host& host_;
  crypto::Credential cred_;
  std::vector<crypto::Certificate> trusted_;
  Rng rng_;
  std::unique_ptr<rpc::RpcServer> rpc_server_;
  std::map<std::string, ExportInfo> exports_;
};

/// User-side client of the DSS (what a job scheduler or the user's tooling
/// calls).  Creates a delegation proxy certificate and signed requests.
class DssClient {
 public:
  DssClient(net::Host& host, net::Address dss,
            crypto::Credential user_credential,
            std::vector<crypto::Certificate> trusted, Rng rng);

  struct Session {
    uint16_t client_proxy_port = 0;  // mount target on the client host
    std::string client_host;
    Session() = default;
  };

  /// Asks the DSS to create an SGFS session for `path`, with the proxies on
  /// `client_host` configured from the given cache/security choices.
  sim::Task<Session> create_session(const std::string& path,
                                    const std::string& client_host,
                                    const net::Address& client_fss,
                                    crypto::Cipher cipher,
                                    crypto::MacAlgo mac,
                                    const core::CacheConfig& cache);

  /// Fine-grained ACL management through the services (paper §4.4).
  sim::Task<bool> put_file_acl(const std::string& path,
                               const std::string& file,
                               const core::Acl& acl);

 private:
  net::Host& host_;
  net::Address dss_;
  crypto::Credential user_;
  std::vector<crypto::Certificate> trusted_;
  Rng rng_;
};

}  // namespace sgfs::services

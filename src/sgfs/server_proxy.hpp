// SGFS server-side proxy (paper §4.2, §4.3).
//
// Terminates the SSL-secured RPC session, authenticates the grid user from
// the certificate chain, authorizes and identity-maps every request, and
// forwards it over the loopback to the unmodified kernel NFS server (which
// exports the tree to localhost only — Figure 1).
//
// Interpositions:
//   - gridmap: peer DN -> local account; AUTH_SYS uid/gid in forwarded
//     calls are rewritten to that account (unmapped users become anonymous
//     or are denied, per config);
//   - fine-grained ACLs: ACCESS consults the ".name.acl" store (with parent
//     inheritance and an in-memory cache); READ/WRITE against ACL-governed
//     files are checked too; ACL files themselves are hidden from remote
//     LOOKUP/READDIR and unwritable remotely;
//   - MOUNT requests are forwarded to the kernel mountd (the kernel exports
//     file still applies, restricted to localhost).
//
// The proxy uses blocking RPC forwarding (one outstanding upstream call),
// reproducing the serialization the paper measures (§6.2.1).  The SFS
// baseline daemons forward the same way; only their cost constants differ.
#pragma once

#include "crypto/key_regression.hpp"
#include "nfs/nfs3.hpp"
#include "rpc/rpc_client.hpp"
#include "rpc/rpc_server.hpp"
#include "sgfs/session.hpp"
#include "sim/fair_mutex.hpp"
#include "sim/mutex.hpp"

namespace sgfs::core {

class ServerProxy : public rpc::RpcProgram,
                    public std::enable_shared_from_this<ServerProxy> {
 public:
  /// `fs_for_acls` gives the proxy local (collocated) access to the exported
  /// tree for reading ACL files; pass nullptr to disable fine-grained ACLs.
  ServerProxy(net::Host& host, ServerProxyConfig config,
              std::shared_ptr<vfs::FileSystem> fs_for_acls, Rng rng);

  /// Starts the SSL-enabled RPC service on `port` (svc_tli_ssl_create).
  void start(uint16_t port);
  void stop();

  /// Forwarded payloads pass through as shared segment chains: a READ
  /// reply's data is never duplicated inside the proxy, only re-framed.
  sim::Task<BufChain> handle(const rpc::CallContext& ctx,
                             BufChain args) override;

  /// Keep replies of non-idempotent NFS ops in the RPC server's
  /// duplicate-request cache: the WAN-facing session is where client-proxy
  /// retransmissions (and resends across re-established sessions) land.
  bool cache_reply(const rpc::CallContext& ctx) const override {
    return ctx.prog == nfs::kNfsProgram &&
           !nfs::proc3_is_idempotent(static_cast<nfs::Proc3>(ctx.proc));
  }

  /// Under admission-control shedding, NFS calls get a genuine RFC 1813
  /// NFS3ERR_JUKEBOX result (forwarded unchanged to the kernel client by
  /// the client proxy); MOUNT calls are shed by dropping.
  std::optional<BufChain> busy_reply(
      const rpc::CallContext& ctx) const override {
    if (ctx.prog != nfs::kNfsProgram) return std::nullopt;
    BufChain body = nfs::busy_status_reply(static_cast<nfs::Proc3>(ctx.proc));
    if (body.empty()) return std::nullopt;
    return body;
  }

  /// Reloads gridmap/ACL/security configuration (paper §4.2: signal the
  /// proxy to reload its configuration file).  Clears the per-session
  /// authorization cache: a reload applies to live sessions immediately.
  void reload(ServerProxyConfig config);

  /// Revokes one grid user: removes the DN from the gridmap, purges its
  /// session tickets (no resuming back in), and — with key_regression on —
  /// winds the session-generation epoch so every live session re-checks the
  /// gridmap on its next op and the revoked DN fails closed mid-session.
  /// Without key regression this is the paper's lazy story: live sessions
  /// keep their admission-time rights.
  void revoke_dn(const crypto::DistinguishedName& dn);

  /// Current session-generation epoch (0 when key regression is off).
  uint32_t session_epoch() const {
    return key_regression_ ? key_regression_->epoch() : 0;
  }
  /// Current epoch secret, handed to still-authorized readers out of band
  /// (like the gridmap itself); earlier generations derive from it via
  /// crypto::KeyRegression::regress.  Empty when key regression is off.
  Buffer session_epoch_secret() const {
    return key_regression_ ? key_regression_->current_secret() : Buffer{};
  }

  AclStore* acl_store() { return acl_store_ ? acl_store_.get() : nullptr; }

  // Stats.
  uint64_t forwarded() const { return forwarded_; }
  uint64_t denied() const { return denied_; }
  uint64_t acl_decisions() const { return acl_decisions_; }
  /// Calls shed by the WAN-facing RPC service's admission control.
  uint64_t calls_shed() const {
    return rpc_server_ ? rpc_server_->calls_shed() : 0;
  }
  /// Duplicate-request cache activity on the WAN-facing RPC service.
  uint64_t drc_hits() const {
    return rpc_server_ ? rpc_server_->drc_hits() : 0;
  }
  uint64_t drc_inflight_drops() const {
    return rpc_server_ ? rpc_server_->drc_inflight_drops() : 0;
  }

 private:
  sim::Task<void> ensure_upstream();
  sim::Task<BufChain> forward(const rpc::CallContext& ctx, BufChain args,
                              const rpc::AuthSys& cred);
  /// Fair-queueing key: the session's grid identity (peer DN), falling back
  /// to the peer host for plain-transport sessions.
  static std::string session_key(const rpc::CallContext& ctx);
  std::optional<Account> authorize(const rpc::CallContext& ctx);
  void learn_fh(const nfs::Fh& fh, const nfs::Fh& parent,
                const std::string& name);
  std::optional<uint32_t> acl_mask(const nfs::Fh& fh,
                                   const std::string& dn);

  net::Host& host_;
  ServerProxyConfig config_;
  std::unique_ptr<AclStore> acl_store_;
  Rng rng_;
  std::unique_ptr<rpc::RpcServer> rpc_server_;
  std::unique_ptr<rpc::RpcClient> upstream_nfs_;
  std::unique_ptr<rpc::RpcClient> upstream_mount_;
  sim::SimMutex forward_mutex_;
  sim::FairMutex fair_mutex_;

  // Hot-path metric handles (lazy first-use resolution; see
  // obs::CounterHandle).
  obs::CounterHandle m_forwarded_, m_acl_checks_, m_denied_;
  obs::HistogramHandle m_fq_wait_ns_;

  // Session-generation key chain (config.key_regression); absent = lazy
  // revocation semantics (live sessions keep admission-time rights).
  std::optional<crypto::KeyRegression> key_regression_;

  // Per-session authorization cache: session key (peer DN) -> the account
  // it mapped to and the epoch the mapping was checked under.  A hit at the
  // current epoch skips the gridmap; an epoch mismatch forces a re-check
  // (fail closed if the DN was revoked).  Pure map state: no CPU charges,
  // no RNG draws — timing-inert for the pinned baselines.
  struct SessionAuth {
    Account account;
    uint32_t epoch = 0;

    SessionAuth() = default;
  };
  std::map<std::string, SessionAuth> authorized_sessions_;

  // fh -> (parent fh, name), learned from forwarded lookups/creates.
  // Volatile: a host crash empties it (entries are re-learned from the
  // client proxy's post-restart lookups).
  std::map<nfs::Fh, std::pair<nfs::Fh, std::string>> fh_names_;
  // Gates the crash handler: expires with this proxy, so no deregistration
  // is needed even when the Host is destroyed first.
  std::shared_ptr<bool> crash_token_ = std::make_shared<bool>(true);

  uint64_t forwarded_ = 0;
  uint64_t denied_ = 0;
  uint64_t acl_decisions_ = 0;
};

}  // namespace sgfs::core

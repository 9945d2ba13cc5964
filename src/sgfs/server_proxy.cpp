#include "sgfs/server_proxy.hpp"

#include "common/log.hpp"

namespace sgfs::core {

using nfs::Fh;
using nfs::Proc3;
using nfs::Status;

namespace {
// The account an unmapped caller gets under UnmappedPolicy::kAnonymous.
const Account kAnonymous("nobody", 65534, 65534);
}  // namespace

ServerProxy::ServerProxy(net::Host& host, ServerProxyConfig config,
                         std::shared_ptr<vfs::FileSystem> fs_for_acls,
                         Rng rng)
    : host_(host),
      config_(std::move(config)),
      rng_(rng),
      forward_mutex_(host.engine()),
      fair_mutex_(host.engine()) {
  auto& m = host.engine().metrics();
  m_forwarded_ = {m, "sgfs.server_proxy.forwarded"};
  m_acl_checks_ = {m, "sgfs.server_proxy.acl_checks"};
  m_denied_ = {m, "sgfs.server_proxy.denied"};
  m_fq_wait_ns_ = {m, "sgfs.server_proxy.fq_wait_ns"};
  if (fs_for_acls && config_.fine_grained_acls) {
    acl_store_ = std::make_unique<AclStore>(std::move(fs_for_acls));
  }
  if (config_.key_regression) {
    // Session-generation key chain; the seed draw only happens for opted-in
    // configs, so default proxies make no extra RNG draws.
    key_regression_.emplace(rng_);
  }
  // A crash of the file-server host kills the proxy process too: the fh
  // lineage map and the loopback connections to the kernel NFS server are
  // volatile.  The RpcServer registers its own handler for the DRC, and the
  // in-flight secure sessions die with their streams.
  host.add_crash_handler(crash_token_, [this] {
    fh_names_.clear();
    authorized_sessions_.clear();
    // Session tickets are process state: after a restart abbreviated
    // resumes are refused and clients pay a full handshake — unless the
    // config models a ticket store that survives orderly restarts.
    if (config_.security.resumption && !config_.durable_ticket_cache) {
      config_.security.resumption->clear();
    }
    if (upstream_nfs_) {
      upstream_nfs_->close();
      upstream_nfs_.reset();
    }
    if (upstream_mount_) {
      upstream_mount_->close();
      upstream_mount_.reset();
    }
  });
}

void ServerProxy::start(uint16_t port) {
  if (config_.plain_transport) {
    rpc_server_ = std::make_unique<rpc::RpcServer>(host_, port);
  } else {
    if (config_.session_resumption) {
      // Unified handshake negotiation on the main port: full handshakes
      // publish tickets into this store, abbreviated hellos (pool sibling
      // streams AND cross-session reconnects) redeem them, dispatched by
      // the first message's magic.  Off, the listener keeps the strict
      // full-handshake path and its exact pre-resumption timing.
      if (!config_.security.resumption) {
        config_.security.resumption =
            std::make_shared<crypto::ResumptionCache>();
      }
    }
    rpc_server_ = std::make_unique<rpc::RpcServer>(
        host_, port, config_.security, rng_.fork(),
        /*now_epoch=*/0);
  }
  rpc_server_->set_admission(config_.admission);
  auto self = shared_from_this();
  rpc_server_->register_program(nfs::kNfsProgram, nfs::kNfsVersion3, self);
  rpc_server_->register_program(nfs::kMountProgram, nfs::kMountVersion3,
                                self);
  rpc_server_->start();
}

void ServerProxy::stop() {
  if (rpc_server_) rpc_server_->stop();
  if (upstream_nfs_) upstream_nfs_->close();
  if (upstream_mount_) upstream_mount_->close();
}

void ServerProxy::reload(ServerProxyConfig config) {
  // Keep live connections; swap policy state (gridmap, ACL switches).
  config_.gridmap = config.gridmap;
  config_.accounts = config.accounts;
  config_.unmapped = config.unmapped;
  config_.fine_grained_acls = config.fine_grained_acls;
  // A reload applies to live sessions immediately: every session re-checks
  // the (possibly changed) gridmap on its next op.
  authorized_sessions_.clear();
  if (acl_store_) acl_store_->invalidate();
}

void ServerProxy::revoke_dn(const crypto::DistinguishedName& dn) {
  config_.gridmap.remove(dn.to_string());
  // The revoked user must not resume its way back in on a cached ticket.
  if (config_.security.resumption) {
    config_.security.resumption->erase_identity(dn);
  }
  if (key_regression_) {
    // O(1) revocation: wind the generation epoch.  Cached authorizations
    // carry the epoch they were checked under, so every live session
    // re-checks the gridmap on its next op — the revoked DN fails closed,
    // survivors rebind at the new epoch (and can still derive every prior
    // epoch key from the new secret).
    key_regression_->wind();
  }
  // Without key regression this stays lazy (the paper's story): cached
  // sessions keep their admission-time rights until reload/reconnect.
}

sim::Task<void> ServerProxy::ensure_upstream() {
  if (!upstream_nfs_) {
    upstream_nfs_ = co_await rpc::clnt_create(
        host_, config_.kernel_nfs, nfs::kNfsProgram, nfs::kNfsVersion3);
  }
  if (!upstream_mount_) {
    upstream_mount_ = co_await rpc::clnt_create(
        host_, config_.kernel_nfs, nfs::kMountProgram, nfs::kMountVersion3);
  }
}

std::string ServerProxy::session_key(const rpc::CallContext& ctx) {
  return ctx.peer_identity ? ctx.peer_identity->to_string() : ctx.peer_host;
}

std::optional<Account> ServerProxy::authorize(const rpc::CallContext& ctx) {
  if (config_.plain_transport) {
    // Basic GFS: authentication handled out of band (session keys in the
    // paper); every request maps to the session's account.
    if (config_.plain_account) return config_.plain_account;
    return config_.unmapped == UnmappedPolicy::kAnonymous
               ? std::optional<Account>(kAnonymous)
               : std::nullopt;
  }
  if (!ctx.peer_identity) return std::nullopt;  // plaintext: never authorized
  const std::string dn = ctx.peer_identity->to_string();
  const uint32_t epoch = key_regression_ ? key_regression_->epoch() : 0;
  if (auto it = authorized_sessions_.find(dn);
      it != authorized_sessions_.end()) {
    if (!key_regression_ || it->second.epoch == epoch) {
      // Cache hit at the current generation — with key regression OFF this
      // is the deliberate lazy-revocation hole: a session admitted before
      // a gridmap change keeps its rights (negative-control semantics).
      return it->second.account;
    }
    // The generation moved under this session (a revocation happened):
    // fall through to a fresh gridmap check.  Fails closed if this DN was
    // the one revoked.
    authorized_sessions_.erase(it);
  }
  auto account_name = config_.gridmap.lookup(dn);
  if (account_name) {
    auto account = config_.accounts.find(*account_name);
    if (account) {
      SessionAuth auth;
      auth.account = *account;
      auth.epoch = epoch;
      authorized_sessions_[dn] = auth;
      return account;
    }
    SGFS_WARN("sgfs-proxy", "gridmap maps to unknown account ",
              *account_name);
    return std::nullopt;
  }
  if (config_.unmapped == UnmappedPolicy::kAnonymous) {
    return kAnonymous;
  }
  return std::nullopt;
}

sim::Task<BufChain> ServerProxy::forward(const rpc::CallContext& ctx,
                                         BufChain args,
                                         const rpc::AuthSys& cred) {
  auto& eng = host_.engine();
  // Blocking RPC library: one outstanding upstream call at a time.  With
  // fair_queueing the wait is round-robin across sessions instead of global
  // FIFO, so one hot session cannot starve the rest.
  std::optional<sim::SimMutex::Guard> guard;
  std::optional<sim::FairMutex::Guard> fair_guard;
  if (config_.fair_queueing) {
    const sim::SimTime q0 = eng.now();
    fair_guard.emplace(co_await fair_mutex_.scoped(session_key(ctx)));
    m_fq_wait_ns_.observe(eng.now() - q0);
  } else {
    guard.emplace(co_await forward_mutex_.scoped());
  }
  co_await ensure_upstream();
  ++forwarded_;
  m_forwarded_.inc();
  rpc::RpcClient& client =
      ctx.prog == nfs::kMountProgram ? *upstream_mount_ : *upstream_nfs_;
  client.set_auth(cred);
  BufChain reply = co_await client.call(ctx.proc, std::move(args));
  co_await config_.cost.charge_message(host_.cpu(), reply.size());
  co_return reply;
}

void ServerProxy::learn_fh(const Fh& fh, const Fh& parent,
                           const std::string& name) {
  fh_names_[fh] = {parent, name};
}

std::optional<uint32_t> ServerProxy::acl_mask(const Fh& fh,
                                              const std::string& dn) {
  if (!acl_store_) return std::nullopt;
  auto it = fh_names_.find(fh);
  std::optional<Acl> acl;
  if (it != fh_names_.end()) {
    acl = acl_store_->effective_acl(it->second.first.fileid,
                                    it->second.second);
  } else {
    // Unknown lineage (e.g. the export root): treat as a directory.
    acl = acl_store_->effective_acl_dir(fh.fileid);
  }
  if (!acl) return std::nullopt;
  ++acl_decisions_;
  m_acl_checks_.inc();
  auto mask = acl->mask_for(dn);
  return mask ? *mask : 0;  // governed but unlisted: no permissions
}

sim::Task<BufChain> ServerProxy::handle(const rpc::CallContext& ctx,
                                        BufChain args) {
  // User-level processing cost for this message.
  co_await host_.cpu().use(config_.cost.msg_cost(args.size()), "proxy");

  auto account = authorize(ctx);
  if (!account) {
    ++denied_;
    m_denied_.inc();
    SGFS_INFO("sgfs-proxy", "denying ",
              ctx.peer_identity ? ctx.peer_identity->to_string()
                                : "<no identity>");
    throw rpc::RpcAuthError(rpc::AuthStat::kRejectedCred);
  }
  // Identity mapping (§4.3): forwarded credentials are the local account's.
  rpc::AuthSys mapped(account->uid, account->gid, "sgfs-proxy");

  if (ctx.prog == nfs::kMountProgram) {
    co_return co_await forward(ctx, args, mapped);
  }

  const auto proc = static_cast<Proc3>(ctx.proc);
  const std::string dn =
      ctx.peer_identity ? ctx.peer_identity->to_string() : account->name;

  switch (proc) {
    case Proc3::kLookup: {
      auto a = xdr::decode<nfs::DiropArgs>(args);
      if (is_acl_name(a.name)) {
        // ACL files are invisible remotely.
        co_return nfs::status_reply<nfs::LookupRes>(Status::kNoEnt);
      }
      BufChain reply = co_await forward(ctx, args, mapped);
      auto res = xdr::decode<nfs::LookupRes>(reply);
      if (res.status == Status::kOk) learn_fh(res.fh, a.dir, a.name);
      co_return reply;
    }

    case Proc3::kCreate:
    case Proc3::kMkdir: {
      const nfs::DiropArgs where =
          proc == Proc3::kCreate ? xdr::decode<nfs::CreateArgs>(args).where
                                 : xdr::decode<nfs::MkdirArgs>(args).where;
      if (is_acl_name(where.name)) {
        co_return nfs::status_reply<nfs::CreateRes>(Status::kAcces);
      }
      BufChain reply = co_await forward(ctx, args, mapped);
      auto res = xdr::decode<nfs::CreateRes>(reply);
      if (res.status == Status::kOk) learn_fh(res.fh, where.dir, where.name);
      co_return reply;
    }

    case Proc3::kRemove: {
      auto a = xdr::decode<nfs::DiropArgs>(args);
      if (is_acl_name(a.name)) {
        co_return nfs::status_reply<nfs::WccRes>(Status::kAcces);
      }
      co_return co_await forward(ctx, args, mapped);
    }

    case Proc3::kAccess: {
      auto a = xdr::decode<nfs::AccessArgs>(args);
      BufChain reply = co_await forward(ctx, args, mapped);
      if (auto mask = acl_mask(a.fh, dn)) {
        // Grid ACL governs this file: the proxy's decision replaces the
        // kernel's (the paper disables kernel ACLs entirely).
        auto res = xdr::decode<nfs::AccessRes>(reply);
        if (res.status == Status::kOk) {
          res.access = a.access & *mask;
          co_return xdr::encode(res);
        }
      }
      co_return reply;
    }

    case Proc3::kRead: {
      auto a = xdr::decode<nfs::ReadArgs>(args);
      if (auto mask = acl_mask(a.fh, dn);
          mask && !(*mask & vfs::kAccessRead)) {
        ++denied_;
        m_denied_.inc();
        co_return nfs::status_reply<nfs::ReadRes>(Status::kAcces);
      }
      co_return co_await forward(ctx, args, mapped);
    }

    case Proc3::kWrite: {
      auto a = xdr::decode<nfs::WriteArgs>(args);
      if (auto mask = acl_mask(a.fh, dn);
          mask && !(*mask & (vfs::kAccessModify | vfs::kAccessExtend))) {
        ++denied_;
        m_denied_.inc();
        co_return nfs::status_reply<nfs::WriteRes>(Status::kAcces);
      }
      co_return co_await forward(ctx, args, mapped);
    }

    case Proc3::kReaddir:
    case Proc3::kReaddirplus: {
      auto a = xdr::decode<nfs::ReaddirArgs>(args);
      BufChain reply = co_await forward(ctx, args, mapped);
      auto res = xdr::decode<nfs::ReaddirRes>(reply);
      if (res.status != Status::kOk) co_return reply;
      std::vector<nfs::DirEntry3> kept;
      kept.reserve(res.entries.size());
      for (auto& entry : res.entries) {
        if (is_acl_name(entry.name)) continue;  // hidden
        if (entry.fh) learn_fh(*entry.fh, a.dir, entry.name);
        kept.push_back(std::move(entry));
      }
      res.entries = std::move(kept);
      co_return xdr::encode(res);
    }

    default:
      co_return co_await forward(ctx, args, mapped);
  }
}

}  // namespace sgfs::core

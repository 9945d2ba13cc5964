#include "services/services.hpp"

#include "common/log.hpp"
#include "sgfs/replica.hpp"

namespace sgfs::services {

// The replica module mirrors these numbers so sgfs_core can dial the FSS
// without a dependency cycle; keep them locked together.
static_assert(core::kCatalogServiceProgram == kFssProgram);
static_assert(core::kCatalogServiceVersion == kFssVersion);
static_assert(core::kPutReplicaCatalogProc ==
              static_cast<uint32_t>(ServiceProc::kPutReplicaCatalog));
static_assert(core::kGetReplicaCatalogProc ==
              static_cast<uint32_t>(ServiceProc::kGetReplicaCatalog));

namespace {
// Control-plane envelopes are small; linearize borrows the single segment
// and only copies when a message arrived fragmented.
Envelope decode_env(const BufChain& args) {
  Buffer scratch;
  return Envelope::deserialize(linearize(args, scratch));
}

Buffer encode_env(const Envelope& env) { return env.serialize(); }

Envelope error_env(const std::string& why) {
  Envelope env;
  env.action = "Fault";
  env.fields["reason"] = why;
  return env;
}
}  // namespace

std::string credential_to_field(const crypto::Credential& cred) {
  xdr::Encoder enc;
  enc.put_u32(static_cast<uint32_t>(cred.presented_chain().size()));
  for (const auto& cert : cred.presented_chain()) {
    enc.put_opaque(cert.serialize());
  }
  enc.put_opaque(cred.private_key.n.to_bytes());
  enc.put_opaque(cred.private_key.e.to_bytes());
  enc.put_opaque(cred.private_key.d.to_bytes());
  return to_hex(enc.data());
}

crypto::Credential credential_from_field(const std::string& field) {
  Buffer raw = from_hex(field);
  xdr::Decoder dec(raw);
  const uint32_t n = dec.get_u32();
  if (n == 0 || n > 8) throw std::runtime_error("bad delegated credential");
  std::vector<crypto::Certificate> chain;
  for (uint32_t i = 0; i < n; ++i) {
    chain.push_back(crypto::Certificate::deserialize(dec.get_opaque()));
  }
  crypto::RsaPrivateKey key;
  key.n = crypto::BigInt::from_bytes(dec.get_opaque());
  key.e = crypto::BigInt::from_bytes(dec.get_opaque());
  key.d = crypto::BigInt::from_bytes(dec.get_opaque());
  crypto::Credential cred(chain.front(), key,
                          std::vector<crypto::Certificate>(
                              chain.begin() + 1, chain.end()));
  return cred;
}

// --- FSS ----------------------------------------------------------------------

FileSystemService::FileSystemService(
    net::Host& host, crypto::Credential service_cred,
    std::vector<crypto::Certificate> trusted,
    std::vector<std::string> authorized_controller_dns,
    std::shared_ptr<vfs::FileSystem> exported_fs, net::Address kernel_nfs,
    Rng rng)
    : host_(host),
      cred_(std::move(service_cred)),
      trusted_(std::move(trusted)),
      authorized_(std::move(authorized_controller_dns)),
      exported_fs_(std::move(exported_fs)),
      kernel_nfs_(kernel_nfs),
      rng_(rng) {}

void FileSystemService::start(uint16_t port) {
  rpc_server_ = std::make_unique<rpc::RpcServer>(host_, port);
  rpc_server_->register_program(kFssProgram, kFssVersion,
                                shared_from_this());
  rpc_server_->start();
}

void FileSystemService::stop() {
  if (rpc_server_) rpc_server_->stop();
  for (auto& [port, proxy] : server_proxies_) proxy->stop();
  for (auto& [port, proxy] : client_proxies_) proxy->stop();
}

core::ServerProxy* FileSystemService::server_proxy(uint16_t port) {
  auto it = server_proxies_.find(port);
  return it == server_proxies_.end() ? nullptr : it->second.get();
}

core::ClientProxy* FileSystemService::client_proxy(uint16_t port) {
  auto it = client_proxies_.find(port);
  return it == client_proxies_.end() ? nullptr : it->second.get();
}

Envelope FileSystemService::reply_env(
    const std::string& action, std::map<std::string, std::string> fields) {
  return sign_envelope(action, std::move(fields), cred_, now_epoch());
}

bool FileSystemService::set_shard_map(core::ShardMap map) {
  if (shard_map_ && map.epoch() <= shard_map_->epoch()) return false;
  shard_map_ = std::move(map);
  return true;
}

bool FileSystemService::set_replica_catalog(const std::string& signed_hex) {
  // The FSS is a dumb distribution point for the OWNER's signature: it
  // verifies before storing (a controller cannot launder an unsigned or
  // forged catalog through it) but never re-signs — clients check the
  // embedded signature themselves.
  try {
    Buffer raw = from_hex(signed_hex);
    core::SignedReplicaCatalog sc = core::SignedReplicaCatalog::deserialize(
        ByteView(raw.data(), raw.size()));
    core::CatalogVerify v =
        core::verify_replica_catalog(sc, trusted_, now_epoch());
    if (!v.ok) {
      SGFS_INFO("fss", "replica catalog rejected: ", v.error);
      return false;
    }
    if (!replica_catalog_.empty() &&
        v.catalog.epoch <= replica_catalog_epoch_) {
      return false;
    }
    replica_catalog_ = signed_hex;
    replica_catalog_epoch_ = v.catalog.epoch;
    return true;
  } catch (const std::exception& e) {
    SGFS_INFO("fss", "replica catalog unparseable: ", e.what());
    return false;
  }
}

sim::Task<BufChain> FileSystemService::handle(const rpc::CallContext& ctx,
                                              BufChain args) {
  // Shard discovery is a public read: the map's integrity comes from the
  // SIGNED reply, so the request needs no envelope (and costs no RSA
  // verification on a path every session establishment hits).  The signed
  // response is cached per epoch and refreshed when its timestamp nears
  // the verifiers' 300 s freshness window.
  if (static_cast<ServiceProc>(ctx.proc) == ServiceProc::kGetShardMap) {
    if (!shard_map_) {
      co_return encode_env(error_env("no shard map published"));
    }
    const int64_t now = now_epoch();
    if (!shard_reply_cache_ || shard_reply_epoch_ != shard_map_->epoch() ||
        now - shard_reply_signed_at_ > 240) {
      shard_reply_cache_ = reply_env(
          "GetShardMapResponse", {{"map", shard_map_->to_string()}});
      shard_reply_signed_at_ = now;
      shard_reply_epoch_ = shard_map_->epoch();
    }
    co_return encode_env(*shard_reply_cache_);
  }
  // Replica-catalog discovery is likewise a public read, but the stored
  // blob already carries the owner's signature: the reply is a raw XDR
  // string — zero RSA on this path, for the FSS and for cache hits alike.
  if (static_cast<ServiceProc>(ctx.proc) == ServiceProc::kGetReplicaCatalog) {
    xdr::Encoder enc;
    enc.put_string(replica_catalog_);
    co_return enc.take_flat();
  }

  Envelope request;
  try {
    request = decode_env(args);
  } catch (const std::exception& e) {
    co_return encode_env(error_env(std::string("malformed: ") + e.what()));
  }
  auto verdict = verify_envelope(request, trusted_, now_epoch());
  if (!verdict.ok) {
    co_return encode_env(error_env(verdict.error));
  }
  const std::string signer = verdict.signer.to_string();

  // --- SSO pass desk -------------------------------------------------------
  // User operations, exempt from the controller-DN gate below: any signer
  // with a trusted certificate chain is a grid user and may log in.
  switch (static_cast<ServiceProc>(ctx.proc)) {
    case ServiceProc::kSsoLogin: {
      const int64_t now = now_epoch();
      auto it = sso_cache_.find(signer);
      if (sso_cache_enabled_ && it != sso_cache_.end() &&
          now - it->second.minted_at < sso_ttl_s_) {
        ++sso_cache_hits_;
        host_.engine().metrics().counter("services.fss.sso_cache_hits").inc();
        co_return encode_env(it->second.pass);
      }
      // Mint: one RSA signature buys every mount/shard connection the user
      // makes for the next TTL window.
      Envelope pass =
          reply_env("SsoPass", {{"user", signer},
                                {"expires", std::to_string(now + sso_ttl_s_)}});
      ++sso_signatures_;
      host_.engine().metrics().counter("services.fss.sso_signatures").inc();
      SsoEntry entry;
      entry.pass = pass;
      entry.minted_at = now;
      sso_cache_[signer] = std::move(entry);
      co_return encode_env(pass);
    }
    case ServiceProc::kSsoAuthorize: {
      const int64_t now = now_epoch();
      auto it = sso_cache_.find(signer);
      // Fail closed without a live pass: expired or never-minted means the
      // caller must go through kSsoLogin (and its signature) first.
      if (it == sso_cache_.end() || now - it->second.minted_at >= sso_ttl_s_) {
        co_return encode_env(error_env("no valid SSO pass; login first"));
      }
      if (sso_cache_enabled_ && !it->second.authorize_reply.action.empty() &&
          now - it->second.reply_signed_at <= 240) {
        ++sso_cache_hits_;
        host_.engine().metrics().counter("services.fss.sso_cache_hits").inc();
        co_return encode_env(it->second.authorize_reply);
      }
      Envelope ok_env = reply_env("SsoAuthorizeResponse", {{"user", signer}});
      ++sso_signatures_;
      host_.engine().metrics().counter("services.fss.sso_signatures").inc();
      it->second.authorize_reply = ok_env;
      it->second.reply_signed_at = now;
      co_return encode_env(ok_env);
    }
    default:
      break;
  }

  // Only the configured controllers (normally the DSS) may drive this FSS.
  bool allowed = false;
  for (const auto& dn : authorized_) {
    if (dn == signer) allowed = true;
  }
  if (!allowed) {
    SGFS_INFO("fss", "rejecting controller ", signer);
    co_return encode_env(error_env("not authorized: " + signer));
  }

  switch (static_cast<ServiceProc>(ctx.proc)) {
    case ServiceProc::kCreateServerProxy: {
      if (!exported_fs_) {
        co_return encode_env(error_env("not a file-server FSS"));
      }
      core::ServerProxyConfig cfg;
      cfg.kernel_nfs = kernel_nfs_;
      cfg.security.credential =
          credential_from_field(request.fields.at("host_credential"));
      cfg.security.trusted = trusted_;
      cfg.security.cipher =
          crypto::cipher_from_string(request.fields.at("cipher"));
      cfg.security.mac = crypto::mac_from_string(request.fields.at("mac"));
      cfg.gridmap = core::GridMap::parse(request.fields.at("gridmap"));
      cfg.accounts.add(core::Account(
          request.fields.at("account"),
          static_cast<uint32_t>(std::stoul(request.fields.at("uid"))),
          static_cast<uint32_t>(std::stoul(request.fields.at("gid")))));
      const uint16_t port = next_port_++;
      auto proxy = std::make_shared<core::ServerProxy>(host_, cfg,
                                                       exported_fs_,
                                                       rng_.fork());
      proxy->start(port);
      server_proxies_[port] = proxy;
      co_return encode_env(
          reply_env("CreateServerProxyResponse",
                    {{"port", std::to_string(port)},
                     {"host", host_.name()}}));
    }

    case ServiceProc::kCreateClientProxy: {
      core::ClientProxyConfig cfg;
      cfg.security.credential =
          credential_from_field(request.fields.at("user_credential"));
      cfg.security.trusted = trusted_;
      cfg.security.cipher =
          crypto::cipher_from_string(request.fields.at("cipher"));
      cfg.security.mac = crypto::mac_from_string(request.fields.at("mac"));
      cfg.server_proxy = net::Address(
          request.fields.at("server_host"),
          static_cast<uint16_t>(std::stoul(request.fields.at("server_port"))));
      crypto::SecurityConfig sec = cfg.security;
      apply_config_text(Config::parse(request.fields.at("config")),
                        cfg.cache, sec);
      cfg.security.cipher = sec.cipher;
      cfg.security.mac = sec.mac;
      cfg.security.renegotiate_interval = sec.renegotiate_interval;
      const uint16_t port = next_port_++;
      auto proxy =
          std::make_shared<core::ClientProxy>(host_, cfg, rng_.fork());
      proxy->start(port);
      client_proxies_[port] = proxy;
      co_return encode_env(
          reply_env("CreateClientProxyResponse",
                    {{"port", std::to_string(port)},
                     {"host", host_.name()}}));
    }

    case ServiceProc::kDestroyProxy: {
      const uint16_t port =
          static_cast<uint16_t>(std::stoul(request.fields.at("port")));
      if (auto it = client_proxies_.find(port); it != client_proxies_.end()) {
        co_await it->second->flush();
        it->second->stop();
        client_proxies_.erase(it);
      } else if (auto sit = server_proxies_.find(port);
                 sit != server_proxies_.end()) {
        sit->second->stop();
        server_proxies_.erase(sit);
      }
      co_return encode_env(reply_env("DestroyProxyResponse", {}));
    }

    case ServiceProc::kPutAcl: {
      if (!exported_fs_) {
        co_return encode_env(error_env("not a file-server FSS"));
      }
      vfs::Cred root(0, 0);
      auto dir = exported_fs_->resolve(root, request.fields.at("dir"));
      if (!dir.ok()) co_return encode_env(error_env("no such directory"));
      core::AclStore store(exported_fs_);
      core::Acl acl = core::Acl::parse(request.fields.at("acl"));
      auto status =
          store.put_acl(dir.value, request.fields.at("name"), acl);
      // Invalidate the ACL caches of the proxies serving this export.
      for (auto& [port, proxy] : server_proxies_) {
        if (proxy->acl_store()) proxy->acl_store()->invalidate();
      }
      co_return encode_env(reply_env(
          "PutAclResponse", {{"status", vfs::to_string(status)}}));
    }

    case ServiceProc::kPutShardMap: {
      // Controller-only (the envelope passed the authorized-DN check
      // above).  Epochs are monotonic: a delayed or replayed publication
      // must not roll the fleet back to a pre-rebalance map.
      core::ShardMap map;
      try {
        map = core::ShardMap::parse(request.fields.at("map"));
      } catch (const std::exception& e) {
        co_return encode_env(
            error_env(std::string("bad shard map: ") + e.what()));
      }
      if (!set_shard_map(std::move(map))) {
        co_return encode_env(error_env("stale shard map epoch"));
      }
      co_return encode_env(reply_env(
          "PutShardMapResponse",
          {{"epoch", std::to_string(shard_map_->epoch())}}));
    }

    case ServiceProc::kPutReplicaCatalog: {
      // Controller-gated like the shard map; the stored blob additionally
      // carries (and must pass) the file OWNER's signature, checked inside
      // set_replica_catalog along with epoch monotonicity.
      auto field = request.fields.find("catalog");
      if (field == request.fields.end() ||
          !set_replica_catalog(field->second)) {
        co_return encode_env(error_env("bad or stale replica catalog"));
      }
      co_return encode_env(reply_env(
          "PutReplicaCatalogResponse",
          {{"epoch", std::to_string(replica_catalog_epoch_)}}));
    }

    case ServiceProc::kReconfigure: {
      const uint16_t port =
          static_cast<uint16_t>(std::stoul(request.fields.at("port")));
      auto it = client_proxies_.find(port);
      if (it == client_proxies_.end()) {
        co_return encode_env(error_env("no such session"));
      }
      // Re-keys the live session: a fresh mutual handshake with new session
      // keys and re-validated certificates (paper §4.2).
      co_await it->second->renegotiate();
      co_return encode_env(reply_env("ReconfigureResponse", {}));
    }

    default:
      co_return encode_env(error_env("unknown FSS operation"));
  }
}

// --- DSS ----------------------------------------------------------------------

DataSchedulerService::DataSchedulerService(
    net::Host& host, crypto::Credential service_cred,
    std::vector<crypto::Certificate> trusted, Rng rng)
    : host_(host),
      cred_(std::move(service_cred)),
      trusted_(std::move(trusted)),
      rng_(rng) {}

void DataSchedulerService::start(uint16_t port) {
  rpc_server_ = std::make_unique<rpc::RpcServer>(host_, port);
  rpc_server_->register_program(kDssProgram, kDssVersion,
                                shared_from_this());
  rpc_server_->start();
}

void DataSchedulerService::stop() {
  if (rpc_server_) rpc_server_->stop();
}

void DataSchedulerService::register_filesystem(const std::string& path,
                                               const net::Address& server_fss,
                                               const std::string& account,
                                               uint32_t uid, uint32_t gid) {
  ExportInfo info;
  info.server_fss = server_fss;
  info.account = account;
  info.uid = uid;
  info.gid = gid;
  exports_[path] = std::move(info);
}

void DataSchedulerService::grant(const std::string& path,
                                 const std::string& user_dn) {
  exports_[path].granted_dns.insert(user_dn);
}

void DataSchedulerService::revoke(const std::string& path,
                                  const std::string& user_dn) {
  auto it = exports_.find(path);
  if (it != exports_.end()) it->second.granted_dns.erase(user_dn);
}

sim::Task<Envelope> DataSchedulerService::call_fss(const net::Address& fss,
                                                   ServiceProc proc,
                                                   const Envelope& env) {
  auto client = co_await rpc::clnt_create(host_, fss, kFssProgram,
                                          kFssVersion);
  BufChain reply =
      co_await client->call(static_cast<uint32_t>(proc), env.serialize());
  client->close();
  Buffer scratch;
  co_return Envelope::deserialize(linearize(reply, scratch));
}

sim::Task<BufChain> DataSchedulerService::handle(const rpc::CallContext& ctx,
                                                 BufChain args) {
  Envelope request;
  try {
    request = decode_env(args);
  } catch (const std::exception& e) {
    co_return encode_env(error_env(std::string("malformed: ") + e.what()));
  }
  auto verdict = verify_envelope(request, trusted_, now_epoch());
  if (!verdict.ok) co_return encode_env(error_env(verdict.error));
  const std::string user_dn = verdict.signer.to_string();

  switch (static_cast<ServiceProc>(ctx.proc)) {
    case ServiceProc::kCreateSession: {
      const std::string path = request.fields.at("path");
      auto it = exports_.find(path);
      if (it == exports_.end()) {
        co_return encode_env(error_env("unknown filesystem " + path));
      }
      // Authorization: the DSS ACL DB decides who may create sessions.
      if (!it->second.granted_dns.count(user_dn)) {
        SGFS_INFO("dss", "refusing session for ", user_dn);
        co_return encode_env(error_env("access denied for " + user_dn));
      }

      // Generate the session gridmap from the ACL DB (paper §4.4).
      core::GridMap gridmap;
      gridmap.add(user_dn, it->second.account);

      // Host credential for the server proxy: the DSS's own delegation.
      Envelope to_server = sign_envelope(
          "CreateServerProxy",
          {{"gridmap", gridmap.to_string()},
           {"account", it->second.account},
           {"uid", std::to_string(it->second.uid)},
           {"gid", std::to_string(it->second.gid)},
           {"cipher", request.fields.at("cipher")},
           {"mac", request.fields.at("mac")},
           {"host_credential", request.fields.at("host_credential")}},
          cred_, now_epoch());
      Envelope server_reply = co_await call_fss(
          it->second.server_fss, ServiceProc::kCreateServerProxy, to_server);
      if (server_reply.action == "Fault") {
        co_return encode_env(server_reply);
      }

      Envelope to_client = sign_envelope(
          "CreateClientProxy",
          {{"user_credential", request.fields.at("delegation")},
           {"cipher", request.fields.at("cipher")},
           {"mac", request.fields.at("mac")},
           {"server_host", server_reply.fields.at("host")},
           {"server_port", server_reply.fields.at("port")},
           {"config", request.fields.at("config")}},
          cred_, now_epoch());
      net::Address client_fss(
          request.fields.at("client_fss_host"),
          static_cast<uint16_t>(
              std::stoul(request.fields.at("client_fss_port"))));
      Envelope client_reply = co_await call_fss(
          client_fss, ServiceProc::kCreateClientProxy, to_client);
      if (client_reply.action == "Fault") {
        co_return encode_env(client_reply);
      }
      co_return encode_env(sign_envelope(
          "CreateSessionResponse",
          {{"client_host", client_reply.fields.at("host")},
           {"client_port", client_reply.fields.at("port")}},
          cred_, now_epoch()));
    }

    case ServiceProc::kGrantAccess: {
      const std::string path = request.fields.at("path");
      auto it = exports_.find(path);
      if (it == exports_.end()) {
        co_return encode_env(error_env("unknown filesystem"));
      }
      // Only already-granted users (owners) may extend sharing; first grant
      // is done administratively via grant().
      if (!it->second.granted_dns.count(user_dn)) {
        co_return encode_env(error_env("access denied"));
      }
      it->second.granted_dns.insert(request.fields.at("grantee"));
      co_return encode_env(
          sign_envelope("GrantAccessResponse", {}, cred_, now_epoch()));
    }

    case ServiceProc::kPutFileAcl: {
      const std::string path = request.fields.at("path");
      auto it = exports_.find(path);
      if (it == exports_.end()) {
        co_return encode_env(error_env("unknown filesystem"));
      }
      if (!it->second.granted_dns.count(user_dn)) {
        co_return encode_env(error_env("access denied"));
      }
      Envelope to_server = sign_envelope(
          "PutAcl",
          {{"dir", request.fields.at("dir")},
           {"name", request.fields.at("name")},
           {"acl", request.fields.at("acl")}},
          cred_, now_epoch());
      Envelope reply = co_await call_fss(it->second.server_fss,
                                         ServiceProc::kPutAcl, to_server);
      co_return encode_env(reply);
    }

    default:
      co_return encode_env(error_env("unknown DSS operation"));
  }
}

// --- DssClient -----------------------------------------------------------------

DssClient::DssClient(net::Host& host, net::Address dss,
                     crypto::Credential user_credential,
                     std::vector<crypto::Certificate> trusted, Rng rng)
    : host_(host),
      dss_(dss),
      user_(std::move(user_credential)),
      trusted_(std::move(trusted)),
      rng_(rng) {}

sim::Task<DssClient::Session> DssClient::create_session(
    const std::string& path, const std::string& client_host,
    const net::Address& client_fss, crypto::Cipher cipher,
    crypto::MacAlgo mac, const core::CacheConfig& cache) {
  const int64_t now =
      static_cast<int64_t>(host_.engine().now() / sim::kSecond);
  // GSI delegation: a short-lived proxy certificate for the services.
  crypto::Credential delegation =
      issue_proxy(rng_, user_, now, now + 12 * 3600);
  // The server proxy also needs a keypair; the user delegates a second
  // proxy credential for it (stands in for the host certificate store).
  crypto::Credential host_delegation =
      issue_proxy(rng_, user_, now, now + 12 * 3600);

  crypto::SecurityConfig sec;
  sec.cipher = cipher;
  sec.mac = mac;
  Envelope request = sign_envelope(
      "CreateSession",
      {{"path", path},
       {"client_host", client_host},
       {"client_fss_host", client_fss.host},
       {"client_fss_port", std::to_string(client_fss.port)},
       {"cipher", crypto::to_string(cipher)},
       {"mac", crypto::to_string(mac)},
       {"config", core::to_config_text(cache, sec)},
       {"delegation", credential_to_field(delegation)},
       {"host_credential", credential_to_field(host_delegation)}},
      user_, now);

  auto client = co_await rpc::clnt_create(host_, dss_, kDssProgram,
                                          kDssVersion);
  BufChain reply = co_await client->call(
      static_cast<uint32_t>(ServiceProc::kCreateSession),
      request.serialize());
  client->close();
  Buffer scratch;
  Envelope env = Envelope::deserialize(linearize(reply, scratch));
  if (env.action == "Fault") {
    throw std::runtime_error("DSS fault: " + env.fields.at("reason"));
  }
  auto verdict = verify_envelope(env, trusted_, now);
  if (!verdict.ok) {
    throw std::runtime_error("DSS reply not trusted: " + verdict.error);
  }
  Session session;
  session.client_host = env.fields.at("client_host");
  session.client_proxy_port =
      static_cast<uint16_t>(std::stoul(env.fields.at("client_port")));
  co_return session;
}

sim::Task<bool> DssClient::put_file_acl(const std::string& path,
                                        const std::string& file,
                                        const core::Acl& acl) {
  const int64_t now =
      static_cast<int64_t>(host_.engine().now() / sim::kSecond);
  const size_t slash = file.find_last_of('/');
  const std::string dir =
      path + (slash == std::string::npos ? "" : "/" + file.substr(0, slash));
  const std::string name =
      slash == std::string::npos ? file : file.substr(slash + 1);
  Envelope request = sign_envelope("PutFileAcl",
                                   {{"path", path},
                                    {"dir", dir},
                                    {"name", name},
                                    {"acl", acl.to_string()}},
                                   user_, now);
  auto client = co_await rpc::clnt_create(host_, dss_, kDssProgram,
                                          kDssVersion);
  BufChain reply = co_await client->call(
      static_cast<uint32_t>(ServiceProc::kPutFileAcl), request.serialize());
  client->close();
  Buffer scratch;
  Envelope env = Envelope::deserialize(linearize(reply, scratch));
  co_return env.action != "Fault";
}

}  // namespace sgfs::services

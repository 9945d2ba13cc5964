#include "baselines/testbed.hpp"

namespace sgfs::baselines {

std::string to_string(SetupKind kind) {
  switch (kind) {
    case SetupKind::kNfsV3: return "nfs-v3";
    case SetupKind::kNfsV4: return "nfs-v4";
    case SetupKind::kSfs: return "sfs";
    case SetupKind::kGfs: return "gfs";
    case SetupKind::kGfsSsh: return "gfs-ssh";
    case SetupKind::kSgfs: return "sgfs";
  }
  return "?";
}

struct Testbed::Pki {
  Rng rng;
  crypto::CertificateAuthority ca;
  crypto::Credential user;
  crypto::Credential fileserver;

  explicit Pki(uint64_t seed)
      : rng(seed),
        ca(rng, crypto::DistinguishedName("Grid", "RootCA"), 0, 1ll << 40),
        user(ca.issue(rng, crypto::DistinguishedName("UFL", "griduser"),
                      crypto::CertType::kIdentity, 0, 1ll << 40)),
        fileserver(ca.issue(rng,
                            crypto::DistinguishedName("UFL", "fileserver"),
                            crypto::CertType::kHost, 0, 1ll << 40)) {}
};

Testbed::Testbed(TestbedOptions options)
    : options_(options), net_(eng_), rng_(options.seed) {
  client_ = &net_.add_host("client");
  server_ = &net_.add_host("server");
  net_.set_default_link(net::LinkParams(
      options_.wan_rtt > 0 ? options_.wan_rtt / 2
                           : 150 * sim::kMicrosecond,
      kWireBytesPerSec));

  if (options_.loss_probability > 0 || options_.corrupt_probability > 0 ||
      options_.any_gray()) {
    // Faulty WAN: loss/corruption and gray-failure windows on the
    // client<->server link and the server host only (loopback hops stay
    // reliable), with retransmission enabled to recover.
    auto plan = std::make_shared<net::FaultPlan>(options_.seed ^ 0xfa017u);
    if (options_.loss_probability > 0 || options_.corrupt_probability > 0) {
      plan->set_link_faults(
          "client", "server",
          net::LinkFaults(options_.loss_probability,
                          options_.corrupt_probability));
    }
    for (const auto& w : options_.link_slowdowns) {
      plan->add_link_slowdown("client", "server", w.start, w.end, w.delay,
                              w.jitter);
    }
    for (const auto& w : options_.server_slow_disk) {
      plan->add_host_slow_disk("server", w.start, w.end, w.factor);
    }
    for (const auto& w : options_.server_slow_cpu) {
      plan->add_host_slow_cpu("server", w.start, w.end, w.factor);
    }
    plan->set_metrics(&eng_.metrics());
    net_.set_fault_plan(std::move(plan));
    retry_ = rpc::RetryPolicy::standard();
  }

  // Kernel NFS server, exported to localhost only when proxies front it.
  fs_ = std::make_shared<vfs::FileSystem>();
  vfs::Cred root(0, 0);
  fs_->mkdir_p(root, kDataPath, 0755);
  auto dir = fs_->resolve(root, kDataPath);
  vfs::SetAttrs chown;
  chown.uid = kGridUid;
  chown.gid = kGridUid;
  fs_->setattr(root, dir.value, chown);

  // The default ServerCostModel is the paper's 768 MB server VM.
  kernel_nfs_ = std::make_shared<nfs::Nfs3Server>(*server_, fs_);
  const bool direct =
      options_.kind == SetupKind::kNfsV3 || options_.kind == SetupKind::kNfsV4;
  kernel_nfs_->add_export(nfs::ExportEntry(
      "/GFS", direct ? std::set<std::string>{} /* any host */
                     : std::set<std::string>{"server"}));
  kernel_rpc_ = std::make_unique<rpc::RpcServer>(*server_, 2049);
  kernel_rpc_->register_program(nfs::kNfsProgram, nfs::kNfsVersion3,
                                kernel_nfs_);
  kernel_rpc_->register_program(nfs::kMountProgram, nfs::kMountVersion3,
                                kernel_nfs_->mount_program());
  kernel_rpc_->register_program(nfs::kNfsProgram, nfs::kNfsVersion4,
                                std::make_shared<nfs::Nfs4Server>(kernel_nfs_));
  kernel_rpc_->start();

  // Figures 5/6 sample daemon CPU in 5-second windows.
  client_->cpu().enable_sampling(5 * sim::kSecond);
  server_->cpu().enable_sampling(5 * sim::kSecond);

  if (direct) return;  // no proxies

  // Only sgfs sessions read the PKI; its keys come from a stream of their
  // own, so skipping it moves nothing else.
  if (options_.kind == SetupKind::kSgfs) {
    pki_ = std::make_unique<Pki>(options_.seed + 7);
  }

  // --- server-side proxy ---
  core::ServerProxyConfig scfg;
  scfg.kernel_nfs = net::Address("server", 2049);
  scfg.gridmap.add("/O=UFL/CN=griduser", "grid");
  scfg.accounts.add(core::Account("grid", kGridUid, kGridUid));
  switch (options_.kind) {
    case SetupKind::kGfs:
    case SetupKind::kGfsSsh:
      scfg.plain_transport = true;
      scfg.plain_account = core::Account("grid", kGridUid, kGridUid);
      break;
    case SetupKind::kSfs:
      // SFS daemons: self-certifying auth stands in for the gridmap; the
      // daemon cost model carries their (high) crypto+processing CPU.
      scfg.plain_transport = true;
      scfg.plain_account = core::Account("grid", kGridUid, kGridUid);
      scfg.cost.per_msg_cpu = 180 * sim::kMicrosecond;
      scfg.cost.copy_bytes_per_sec = 450.0e6;
      scfg.cost.overlapped_bytes_per_sec = 110.0e6;
      break;
    case SetupKind::kSgfs:
      scfg.security.credential = pki_->fileserver;
      scfg.security.trusted = {pki_->ca.root()};
      scfg.security.cipher = options_.cipher;
      scfg.security.mac = options_.mac;
      // Unified handshake negotiation on the main port: needed by the
      // pool's sibling streams (K > 1) and by cross-session resumption.
      if (options_.pool.streams > 1 || options_.resume_sessions) {
        scfg.session_resumption = true;
      }
      scfg.durable_ticket_cache = options_.durable_ticket_cache;
      scfg.key_regression = options_.key_regression;
      break;
    default:
      break;
  }
  server_proxy_ = std::make_shared<core::ServerProxy>(*server_, scfg, fs_,
                                                      rng_.fork());
  server_proxy_->start(3049);

  // --- optional SSH tunnel (gfs-ssh) ---
  net::Address client_upstream("server", 3049);
  if (options_.kind == SetupKind::kGfsSsh) {
    tunnel_ = std::make_unique<SshTunnel>(
        *client_, 4022, *server_, 4023, net::Address("server", 3049),
        TunnelCostModel(), rng_.fork());
    tunnel_->start();
    client_upstream = net::Address("client", 4022);
  }

  // --- client-side proxy ---
  core::ClientProxyConfig ccfg;
  ccfg.server_proxy = client_upstream;
  ccfg.retry = retry_;
  ccfg.verifier_replay = options_.verifier_replay;
  ccfg.cache.enabled = true;
  ccfg.cache.cache_data = options_.proxy_disk_cache;
  ccfg.cache.write_back =
      options_.proxy_disk_cache && options_.proxy_write_back;
  ccfg.cache.consistency = options_.consistency;
  ccfg.cache.encryption = options_.cache_encryption;
  if (options_.cache_capacity_bytes != 0) {
    ccfg.cache.capacity_bytes = options_.cache_capacity_bytes;
  }
  if (options_.cache_poison_burst != 0) {
    ccfg.cache.poison_burst = options_.cache_poison_burst;
  }
  if (options_.cache_bypass != 0) {
    ccfg.cache.bypass_duration = options_.cache_bypass;
  }
  switch (options_.kind) {
    case SetupKind::kGfs:
      ccfg.plain_transport = true;
      ccfg.pool = options_.pool;
      break;
    case SetupKind::kGfsSsh:
      ccfg.plain_transport = true;
      break;
    case SetupKind::kSfs:
      ccfg.plain_transport = true;
      ccfg.cache.cache_data = false;
      ccfg.cache.write_back = false;
      ccfg.cost.per_msg_cpu = 180 * sim::kMicrosecond;
      ccfg.cost.copy_bytes_per_sec = 450.0e6;
      ccfg.cost.overlapped_bytes_per_sec = 110.0e6;
      break;
    case SetupKind::kSgfs:
      ccfg.security.credential = pki_->user;
      ccfg.security.trusted = {pki_->ca.root()};
      ccfg.security.cipher = options_.cipher;
      ccfg.security.mac = options_.mac;
      ccfg.pool = options_.pool;
      ccfg.resume_sessions = options_.resume_sessions;
      break;
    default:
      break;
  }
  client_proxy_ = std::make_shared<core::ClientProxy>(*client_, ccfg,
                                                      rng_.fork());
  client_proxy_->start(2049);

  // --- storage-fault injector against the proxy disk cache ---
  if (options_.cache_tamper.enabled()) {
    auto tamper = options_.cache_tamper;
    if (tamper.seed == 1) tamper.seed = options_.seed ^ 0x7a3fu;
    cache_injector_ = std::make_unique<core::CacheTamperInjector>(
        *client_, *client_proxy_, tamper);
    injector_alive_ = std::make_shared<bool>(true);
    eng_.spawn(cache_injector_->run(injector_alive_));
  }
}

uint64_t Testbed::server_drc_hits() const {
  // Proxied setups: retransmissions land on the server proxy's RPC service;
  // direct setups: on the kernel server's.
  if (server_proxy_) return server_proxy_->drc_hits();
  return kernel_rpc_ ? kernel_rpc_->drc_hits() : 0;
}

Testbed::~Testbed() {
  if (injector_alive_) *injector_alive_ = false;
  if (client_proxy_) client_proxy_->stop();
  if (server_proxy_) server_proxy_->stop();
  if (tunnel_) tunnel_->stop();
}

sim::Task<std::shared_ptr<nfs::MountPoint>> Testbed::mount() {
  nfs::Nfs3ClientConfig cfg;
  cfg.cache_bytes = options_.client_mem_bytes;
  cfg.use_readdirplus = false;  // 2007-era listing behaviour
  cfg.verifier_replay = options_.verifier_replay;
  rpc::AuthSys job(kGridUid, kGridUid, "client");

  const bool direct =
      options_.kind == SetupKind::kNfsV3 || options_.kind == SetupKind::kNfsV4;
  // Direct setups face the lossy WAN themselves; proxied setups recover in
  // the client proxy and the loopback hop stays reliable.
  if (direct) cfg.retry = retry_;
  net::Address target = direct ? net::Address("server", 2049)
                               : net::Address("client", 2049);
  if (options_.kind == SetupKind::kNfsV4) {
    auto ops = co_await nfs::V4WireOps::connect(*client_, target, job,
                                                cfg.retry);
    co_return co_await nfs::MountPoint::mount_with(*client_, std::move(ops),
                                                   kDataPath, cfg);
  }
  co_return co_await nfs::MountPoint::mount(*client_, target, kDataPath, job,
                                            cfg);
}

sim::Task<double> Testbed::flush_session() {
  const sim::SimTime start = eng_.now();
  if (client_proxy_) co_await client_proxy_->flush();
  co_return sim::to_seconds(eng_.now() - start);
}

void Testbed::preload_file(const std::string& path, uint64_t bytes,
                           bool warm, uint64_t content_seed) {
  vfs::Cred grid(kGridUid, kGridUid);
  const std::string full = std::string(kDataPath) + "/" + path;
  // Chunked fill: deterministic content without a giant temporary.
  auto file = fs_->write_file(grid, full, {});
  Rng content(content_seed);
  constexpr size_t kChunk = 1 << 20;
  uint64_t off = 0;
  Buffer chunk(kChunk);
  while (off < bytes) {
    const size_t n = static_cast<size_t>(std::min<uint64_t>(kChunk,
                                                            bytes - off));
    content.fill(MutByteView(chunk.data(), n));
    fs_->write(grid, file.value, off, ByteView(chunk.data(), n));
    off += n;
  }
  if (warm) kernel_nfs_->warm_file(full);
}

std::vector<double> Testbed::daemon_cpu_series(Side side) const {
  // The user-level daemon's CPU: proxy processing + its crypto + tunnel.
  auto& cpu = (side == Side::kClient ? client_ : server_)->cpu();
  const sim::SimTime until = eng_.now();
  auto proxy = cpu.utilization_series("proxy", until);
  auto cry = cpu.utilization_series("crypto", until);
  auto ssh = cpu.utilization_series("ssh", until);
  std::vector<double> out(proxy.size(), 0.0);
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = proxy[i] + (i < cry.size() ? cry[i] : 0) +
             (i < ssh.size() ? ssh[i] : 0);
  }
  return out;
}

}  // namespace sgfs::baselines

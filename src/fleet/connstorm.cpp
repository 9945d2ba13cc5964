#include "fleet/connstorm.hpp"

#include <memory>
#include <stdexcept>

#include "net/network.hpp"
#include "nfs/wire_ops.hpp"
#include "rpc/retry.hpp"
#include "sgfs/client_proxy.hpp"
#include "sgfs/server_proxy.hpp"
#include "vfs/vfs.hpp"

namespace sgfs::fleet {

namespace {

constexpr const char* kStormRoot = "/GFS/storm";
constexpr sim::SimDur kSubBucket = sim::kSecond / 4;  // sub_ok resolution

/// Shared actor state; owned by run_connstorm's frame.
struct Storm {
  sim::Engine& eng;
  const ConnstormOptions& opt;
  ConnstormResult& res;
  kit::Window win;

  Storm(sim::Engine& e, const ConnstormOptions& o, ConnstormResult& r)
      : eng(e), opt(o), res(r), win(e, r) {}
};

/// One SSO round against the FSS: redeem (or mint) the user's pass, then
/// authorize this session establishment.  With the pass desk's cache on,
/// repeated rounds for the same user are signature-free on the FSS.
sim::Task<void> sso_round(Storm& s, net::Host& host,
                          const crypto::Credential& cred) {
  ++s.res.sso_authorizations;
  const int64_t now_s = static_cast<int64_t>(s.eng.now() / sim::kSecond);
  try {
    std::vector<kit::FssRequest> rounds{
        {services::ServiceProc::kSsoLogin,
         services::sign_envelope("SsoLogin", {}, cred, now_s).serialize()},
        {services::ServiceProc::kSsoAuthorize,
         services::sign_envelope("SsoAuthorize", {}, cred, now_s).serialize()}};
    co_await kit::fss_call(host, std::move(rounds));
  } catch (const std::exception&) {
    // A failed round only costs the session its authorization latency.
  }
}

/// One client session, authenticating as `cred`: mount through the local
/// secure proxy, closed-loop GETATTR/READ ops, re-mount (with a fresh SSO
/// authorization) when the session breaks.  The client proxy underneath
/// does the actual reconnect — abbreviated via its retained ticket when
/// resumption is on.
sim::Task<void> client_actor(Storm& s, kit::ProxiedClient& c,
                             const crypto::Credential& cred, size_t idx,
                             sim::SimDur phase) {
  Rng rng(s.opt.seed ^ (0xc0774000ull + idx));
  const rpc::AuthSys auth(kit::kUid, kit::kUid, c.host.name());
  const sim::SimDur interval = sim::from_seconds(s.opt.op_interval_s);

  co_await s.eng.sleep(phase);
  co_await sso_round(s, c.host, cred);

  std::unique_ptr<nfs::V3WireOps> ops;
  nfs::Fh file_fh;
  const BufChain no_write;
  uint64_t seen_reconnects = 0;
  while (s.eng.now() < s.win.end) {
    bool reauthorize = false;  // co_await is illegal inside a handler
    try {
      if (!ops) {
        auto fresh = co_await nfs::V3WireOps::connect(
            c.host, c.loopback(), auth, rpc::RetryPolicy(),
            rpc::JukeboxPolicy());
        nfs::Fh root = co_await fresh->mount(kStormRoot);
        nfs::LookupRes file = co_await fresh->lookup(root, "f0");
        if (file.status != nfs::Status::kOk) {
          throw std::runtime_error("lookup f0 failed");
        }
        file_fh = file.fh;
        ops = std::move(fresh);
      }

      // One op: 70% GETATTR / 30% READ.
      const auto ok_at =
          co_await s.win.op(*ops, file_fh, rng, 70, 100, no_write);
      if (ok_at) {
        const auto sb = static_cast<size_t>((*ok_at - s.win.t0) / kSubBucket);
        if (sb < s.res.sub_ok.size()) ++s.res.sub_ok[sb];
      }

      // The proxy re-established its upstream session behind this op: pay
      // the FSS authorization that re-establishment needs (one round per
      // observed reconnect — the storm's O(users)-vs-O(sessions) axis).
      const uint64_t rc = c.proxy->reconnects();
      if (rc != seen_reconnects) {
        seen_reconnects = rc;
        co_await sso_round(s, c.host, cred);
      }
    } catch (const std::exception& e) {
      // A give-up drops the mount.  Otherwise the proxy exhausted its
      // reconnect budget (or the loopback stream died with it): drop the
      // mount, re-authorize, re-mount next round.
      reauthorize = !s.win.count_failure(e);
      if (ops) ops->close();
      ops.reset();
    }
    if (reauthorize) co_await sso_round(s, c.host, cred);
    co_await s.eng.sleep(interval);
  }
  if (ops) ops->close();
  ++s.win.done;
}

sim::Task<void> drive(Storm& s, std::vector<kit::ProxiedClient>& clients,
                      const std::vector<crypto::Credential>& users,
                      net::Host& server_host) {
  s.win.open(s.opt.warmup_s, s.opt.window_s);
  s.res.sub_ok.assign(
      static_cast<size_t>((s.win.end - s.win.t0) / kSubBucket) + 1, 0);

  // Establishment ramp over 80% of warmup: the initial full-handshake wave
  // must not alias the storm we are here to measure.
  const size_t n = clients.size();
  const sim::SimDur warmup = s.win.start - s.win.t0;
  kit::ramp(s.eng, n, warmup - warmup / 5, [&](size_t i, sim::SimDur phase) {
    return client_actor(s, clients[i], users[i % users.size()], i, phase);
  });

  // The storm: the server host (proxy + kernel NFS) restarts; every secure
  // session breaks at once and the whole cohort reconnects.
  const sim::SimTime crash_at =
      s.win.start + sim::from_seconds(s.opt.crash_at_s);
  server_host.crash_restart(crash_at, sim::from_seconds(s.opt.downtime_s));
  s.res.crash_bucket = s.res.win_start_bucket +
                       static_cast<size_t>(s.opt.crash_at_s);
  s.res.restart_bucket =
      s.res.crash_bucket + static_cast<size_t>(s.opt.downtime_s);

  co_await s.win.drain(n);
}

}  // namespace

uint64_t ConnstormResult::fingerprint() const {
  return digest({ok, busy, giveups, errors, establishes, reconnects,
                 full_handshakes, resumed_sessions, fallback_handshakes,
                 fss_signatures, fss_cache_hits, sso_authorizations},
                {&bucket_ok, &sub_ok});
}

ConnstormResult run_connstorm(const ConnstormOptions& opt) {
  if (opt.clients < 1) throw std::invalid_argument("connstorm: clients < 1");
  if (opt.users < 1) throw std::invalid_argument("connstorm: users < 1");
  if (opt.crash_at_s + opt.downtime_s >= opt.window_s) {
    throw std::invalid_argument("connstorm: crash outside window");
  }

  const auto wall_start = std::chrono::steady_clock::now();
  ConnstormResult res;
  sim::Engine eng;
  net::Network net(eng);
  net.set_default_link(net::LinkParams::lan());

  // PKI: one CA, the file server's host credential, and a small set of
  // grid-user identities the client cohort shares (many sessions per user
  // is exactly the case the SSO pass desk amortizes).
  kit::Pki pki(opt.seed, "StormCA");
  crypto::Credential server_cred =
      pki.issue("fileserver", crypto::CertType::kHost);
  crypto::Credential fss_cred = pki.issue("fss", crypto::CertType::kHost);
  std::vector<crypto::Credential> users;
  users.reserve(static_cast<size_t>(opt.users));
  for (int u = 0; u < opt.users; ++u) {
    users.push_back(
        pki.issue("user" + std::to_string(u), crypto::CertType::kIdentity));
  }

  // Exported filesystem with one shared read-mostly file.
  auto fs = std::make_shared<vfs::FileSystem>();
  const Buffer body(static_cast<size_t>(kit::kIoBytes) * kit::kFileBlocks);
  kit::add_owned_file(*fs, kStormRoot, "f0",
                      ByteView(body.data(), body.size()));

  // Server host: kernel NFS + the one secure server proxy.
  core::ServerProxyConfig scfg;
  scfg.security.credential = server_cred;
  scfg.security.trusted = pki.trusted;
  scfg.security.cipher = crypto::Cipher::kNull;
  for (const auto& u : users) {
    scfg.gridmap.add(u.cert.subject.to_string(), "grid");
  }
  scfg.fine_grained_acls = false;
  scfg.cost.per_msg_cpu = opt.proxy_msg_cpu;
  scfg.session_resumption = opt.resumption;
  scfg.durable_ticket_cache = opt.resumption;
  if (opt.admission) {
    scfg.admission = rpc::AdmissionControl(8, 64, /*busy=*/true);
    scfg.fair_queueing = true;
  }
  kit::FileServer server(net.add_host("server"), fs, scfg,
                         Rng(opt.seed ^ 0x5e55107ull));

  // FSS (SSO pass desk) on its own host — it survives the storm.
  auto fss =
      kit::start_fss(net, fss_cred, pki, {}, Rng(opt.seed ^ 0xf55f55ull));
  fss->set_sso_cache(opt.sso_cache);

  // Client hosts, each with its own secure client proxy on loopback.
  std::vector<kit::ProxiedClient> clients;
  clients.reserve(static_cast<size_t>(opt.clients));
  for (int i = 0; i < opt.clients; ++i) {
    net::Host& host = net.add_host("c" + std::to_string(i));
    core::ClientProxyConfig ccfg;
    ccfg.server_proxy = net::Address("server", kit::kProxyPort);
    ccfg.security.credential = users[static_cast<size_t>(i) % users.size()];
    ccfg.security.trusted = pki.trusted;
    ccfg.security.cipher = crypto::Cipher::kNull;
    ccfg.cache.enabled = false;  // every op forwards: goodput == server state
    ccfg.max_reconnects = 20;
    ccfg.reconnect_backoff = 50 * sim::kMillisecond;
    ccfg.jukebox.max_retries = 4;
    ccfg.jukebox.initial_delay = 50 * sim::kMillisecond;
    ccfg.jukebox.backoff = 2.0;
    ccfg.jukebox.max_delay = 1 * sim::kSecond;
    ccfg.resume_sessions = opt.resumption;
    clients.emplace_back(host, ccfg, Rng(opt.seed ^ (0xc11e7000ull + i)));
  }

  Storm s(eng, opt, res);
  eng.run_task(drive(s, clients, users, server.host));

  for (const kit::ProxiedClient& c : clients) {
    res.establishes += c.proxy->key_generation();
    res.reconnects += c.proxy->reconnects();
  }
  res.fss_signatures = fss->sso_signatures();
  res.fss_cache_hits = fss->sso_cache_hits();
  res.finish(eng, wall_start);
  const obs::MetricsRegistry& reg = eng.metrics();
  res.full_handshakes = reg.counter_value("sgfs.session.full_handshakes");
  res.resumed_sessions = reg.counter_value("sgfs.session.resumed");
  res.fallback_handshakes = reg.counter_value("sgfs.session.fallback_full");

  // Recovery: first post-restart 250 ms slice with goodput back at >= 90%
  // of the pre-crash plateau (capped at the window end when it never
  // returns).
  res.plateau = res.mean_goodput(res.win_start_bucket, res.crash_bucket);
  const size_t restart_sub = static_cast<size_t>(
      (s.win.start + sim::from_seconds(opt.crash_at_s + opt.downtime_s) -
       s.win.t0) /
      kSubBucket);
  const size_t end_sub = res.win_end_bucket * 4;
  res.recovery_s =
      static_cast<double>(res.win_end_bucket - res.restart_bucket);
  for (size_t sb = restart_sub; sb < end_sub && sb < res.sub_ok.size();
       ++sb) {
    if (static_cast<double>(res.sub_ok[sb]) >= 0.9 * res.plateau / 4.0) {
      res.recovery_s =
          (static_cast<double>(sb - restart_sub) + 1.0) * 0.25;
      break;
    }
  }

  for (kit::ProxiedClient& c : clients) c.proxy->stop();
  server.proxy->stop();
  fss->stop();
  return res;
}

}  // namespace sgfs::fleet

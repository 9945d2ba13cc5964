#include "fleet/fleet.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "net/network.hpp"
#include "nfs/wire_ops.hpp"
#include "rpc/retry.hpp"
#include "sgfs/server_proxy.hpp"
#include "sgfs/shard_map.hpp"
#include "vfs/vfs.hpp"

namespace sgfs::fleet {

namespace {

constexpr const char* kFleetRoot = "/GFS/fleet";

/// Client-side shard-map cache with single-flight fetch.  One instance is
/// shared by every session, standing in for the per-client-host FSS cache
/// of a real deployment: discovery traffic scales with epochs and refresh
/// periods, not with the session count, which together with the FSS's
/// cached pre-signed reply keeps the RSA cost of a 1000-session
/// establishment wave at "a handful of operations", not thousands.
struct Discovery {
  sim::Engine& eng;
  net::Host& host;  // resolver host the discovery RPCs are issued from
  std::vector<crypto::Certificate> trusted;
  FleetResult& res;  // counts discovery_fetches and discovery_failures

  std::optional<core::ShardMap> map;
  sim::SimTime fetched_at = -1;
  bool inflight = false;

  // Failure-triggered refreshes from hundreds of sessions collapse into one
  // wire fetch per window.
  static constexpr sim::SimDur kMinRefetch = 250 * sim::kMillisecond;

  Discovery(net::Host& h, std::vector<crypto::Certificate> t, FleetResult& r)
      : eng(h.engine()), host(h), trusted(std::move(t)), res(r) {}

  sim::Task<void> refresh(bool force) {
    if (map && !force) co_return;
    while (inflight) co_await eng.sleep(10 * sim::kMillisecond);
    // Someone may have fetched meanwhile, or just now: reuse their answer.
    if (map && (!force || eng.now() - fetched_at < kMinRefetch)) co_return;
    inflight = true;
    try {
      std::vector<kit::FssRequest> get{
          {services::ServiceProc::kGetShardMap, BufChain()}};
      services::Envelope env = co_await kit::fss_call(host, std::move(get));
      const int64_t now_s = static_cast<int64_t>(eng.now() / sim::kSecond);
      auto verdict = services::verify_envelope(env, trusted, now_s);
      if (verdict.ok && env.action == "GetShardMapResponse") {
        core::ShardMap fresh = core::ShardMap::parse(env.fields.at("map"));
        if (!map || fresh.epoch() > map->epoch()) map = std::move(fresh);
        fetched_at = eng.now();
        ++res.discovery_fetches;
      } else {
        ++res.discovery_failures;
      }
    } catch (const std::exception&) {
      ++res.discovery_failures;
    }
    inflight = false;
  }
};

/// Everything the detached actors share; owned by run_fleet's frame, which
/// outlives them (the driver waits for every session to finish).
struct Fleet {
  sim::Engine& eng;
  const FleetOptions& opt;
  FleetResult& res;
  Discovery& disc;
  kit::Window win;
  BufChain payload;  // shared 4 KiB write body (refcounted chain)

  Fleet(sim::Engine& e, const FleetOptions& o, FleetResult& r, Discovery& d)
      : eng(e), opt(o), res(r), disc(d), win(e, r) {}
};

/// One client session: closed-loop think-time pacing, discovery-driven
/// shard selection, re-discovery + re-establishment on failure.
sim::Task<void> session_actor(Fleet& f, net::Host& host, size_t idx,
                              sim::SimDur phase) {
  Rng rng(f.opt.seed ^ (0xf1ee7000 + idx));
  const std::string dir_name = "u" + std::to_string(idx);
  const std::string route_key = std::string(kFleetRoot) + "/" + dir_name;
  const rpc::AuthSys auth(kit::kUid, kit::kUid, host.name());

  // Bounded retransmission + JUKEBOX-aware delayed retry: the robust client
  // posture from the overload work — a crashed shard must surface as a
  // failure the session can act on, not an infinite hang.
  rpc::RetryPolicy retry;
  retry.initial_timeout = 500 * sim::kMillisecond;
  retry.backoff = 2.0;
  retry.max_timeout = 2 * sim::kSecond;
  retry.max_retransmits = 3;
  rpc::JukeboxPolicy jukebox;
  jukebox.max_retries = 4;
  jukebox.initial_delay = 50 * sim::kMillisecond;
  jukebox.backoff = 2.0;
  jukebox.max_delay = 1 * sim::kSecond;

  const sim::SimDur interval = sim::from_seconds(f.opt.op_interval_s);
  std::unique_ptr<nfs::V3WireOps> ops;
  nfs::Fh file_fh;
  std::string cur_shard;
  uint64_t cur_epoch = 0;

  co_await f.eng.sleep(phase);
  while (f.eng.now() < f.win.end) {
    bool rediscover = false;  // co_await is illegal inside a handler
    try {
      if (!f.disc.map) co_await f.disc.refresh(false);
      if (!f.disc.map) throw std::runtime_error("no shard map");
      // Re-route when the map moved on (crash/re-add) or we have no
      // session; an epoch bump that keeps our owner keeps our session —
      // that is the consistent-hash minimal-remap property at work.
      if (!ops || f.disc.map->epoch() != cur_epoch) {
        // By VALUE: the shared map can be replaced (and the old one
        // destroyed) by the refresher while this coroutine is suspended in
        // connect/mount/lookup below — a reference would dangle.
        const core::ShardInfo owner = f.disc.map->owner(route_key);
        // Graceful rebalance: when the session is healthy and its current
        // shard is merely no longer the preferred owner (a re-added shard
        // reclaiming its range), drift over with 10% probability per op
        // instead of stampeding — the whole cohort would otherwise
        // re-establish in the same refresh instant and dent goodput a
        // second time.  A broken session, or one whose shard left the map
        // entirely, moves immediately.
        const bool drift_later = ops && owner.name != cur_shard &&
                                 f.disc.map->find(cur_shard) != nullptr &&
                                 rng.next_below(10) != 0;
        if (!drift_later) {
          cur_epoch = f.disc.map->epoch();
          if (!ops || owner.name != cur_shard) {
            if (ops) ops->close();
            ops.reset();
            auto fresh = co_await nfs::V3WireOps::connect(
                host, owner.proxy, auth, retry, jukebox);
            nfs::Fh root = co_await fresh->mount(kFleetRoot);
            nfs::LookupRes dir = co_await fresh->lookup(root, dir_name);
            if (dir.status != nfs::Status::kOk) {
              throw std::runtime_error("lookup " + dir_name + " failed");
            }
            nfs::LookupRes file = co_await fresh->lookup(dir.fh, "f0");
            if (file.status != nfs::Status::kOk) {
              throw std::runtime_error("lookup f0 failed");
            }
            file_fh = file.fh;
            ops = std::move(fresh);
            ++f.res.establishes;
            if (!cur_shard.empty() && cur_shard != owner.name) {
              ++f.res.reroutes;
            }
            cur_shard = owner.name;
          }
        }
      }

      // One op: 60% GETATTR / 30% READ / 10% FILE_SYNC WRITE.
      const auto ok_at =
          co_await f.win.op(*ops, file_fh, rng, 60, 90, f.payload);
      if (ok_at && f.win.contains(*ok_at)) {
        f.res.lat_ns.push_back(static_cast<uint64_t>(f.eng.now() - *ok_at));
      }
    } catch (const std::exception& e) {
      // Give-up / stream loss / refused connection / failed establishment:
      // drop the session and go back through discovery.
      f.win.count_failure(e);
      if (ops) ops->close();
      ops.reset();
      cur_epoch = 0;
      rediscover = true;
    }
    if (rediscover) co_await f.disc.refresh(true);
    co_await f.eng.sleep(interval);
  }
  if (ops) ops->close();
  ++f.win.done;
}

/// Bounded-staleness backstop: refresh the shared map cache periodically so
/// a rebalance reaches even sessions that never see a failure (the ones on
/// surviving shards re-learn the epoch without re-establishing).
sim::Task<void> refresher(Fleet& f) {
  const sim::SimDur period = sim::from_seconds(f.opt.refresh_s);
  while (f.eng.now() + period < f.win.end) {
    co_await f.eng.sleep(period);
    co_await f.disc.refresh(true);
  }
}

/// The controller side of the crash drill: detect the crash (modelled as a
/// fixed detection delay), publish epoch+1 without the dead shard, then
/// fold the restarted shard back in at epoch+2.
sim::Task<void> controller_drill(Fleet& f, net::Host& ctrl,
                                 const crypto::Credential& cred,
                                 core::ShardMap map_without,
                                 core::ShardMap map_with,
                                 sim::SimTime crash_at) {
  co_await f.eng.sleep_until(crash_at + sim::from_seconds(f.opt.detect_s));
  co_await kit::fss_publish(ctrl, cred, services::ServiceProc::kPutShardMap,
                            "PutShardMap", "map", map_without.to_string());
  co_await f.eng.sleep_until(crash_at + sim::from_seconds(f.opt.downtime_s) +
                             sim::from_seconds(f.opt.readd_s));
  co_await kit::fss_publish(ctrl, cred, services::ServiceProc::kPutShardMap,
                            "PutShardMap", "map", map_with.to_string());
}

sim::Task<void> drive(Fleet& f, std::vector<net::Host*>& session_hosts,
                      net::Host& ctrl, const crypto::Credential& cred,
                      const core::ShardMap& map0,
                      kit::FileServer* crash_shard) {
  co_await kit::fss_publish(ctrl, cred, services::ServiceProc::kPutShardMap,
                            "PutShardMap", "map", map0.to_string());
  co_await f.disc.refresh(true);

  f.win.open(f.opt.warmup_s, f.opt.window_s);
  // Establishment ramp: session starts spread over 80% of the warmup so
  // the mount/lookup wave stays inside each shard's admission capacity.
  const size_t n = session_hosts.size();
  const sim::SimDur warmup = f.win.start - f.win.t0;
  kit::ramp(f.eng, n, warmup - warmup / 5, [&](size_t i, sim::SimDur phase) {
    return session_actor(f, *session_hosts[i], i, phase);
  });
  f.eng.spawn(refresher(f));

  if (crash_shard != nullptr) {
    const sim::SimTime crash_at =
        f.win.start + sim::from_seconds(f.opt.crash_at_s);
    crash_shard->host.crash_restart(crash_at,
                                    sim::from_seconds(f.opt.downtime_s));
    const std::string& name = crash_shard->host.name();
    core::ShardMap map_without = map0.without(name, map0.epoch() + 1);
    core::ShardMap map_with =
        map_without.with(*map0.find(name), map0.epoch() + 2);
    f.eng.spawn(controller_drill(f, ctrl, cred, std::move(map_without),
                                 std::move(map_with), crash_at));
  }

  // Wait for every session to wind down (a session blocked in a reconnect
  // loop can outlive the window by a few seconds).
  co_await f.win.drain(n);
}

}  // namespace

uint64_t FleetResult::fingerprint() const {
  return digest({ok, busy, giveups, errors, establishes, reroutes,
                 discovery_fetches, discovery_failures, final_epoch},
                {&bucket_ok, &lat_ns});
}

double FleetResult::percentile_ms(double q) const {
  if (lat_ns.empty()) return 0;
  std::vector<uint64_t> v = lat_ns;
  std::sort(v.begin(), v.end());
  const size_t idx = static_cast<size_t>(
      q * static_cast<double>(v.size() - 1) + 0.5);
  return static_cast<double>(v[idx]) / 1e6;
}

FleetResult run_fleet(const FleetOptions& opt) {
  if (opt.shards < 1) throw std::invalid_argument("fleet: shards < 1");
  if (opt.sessions < 1) throw std::invalid_argument("fleet: sessions < 1");
  if (opt.crash_shard >= opt.shards) {
    throw std::invalid_argument("fleet: crash_shard out of range");
  }

  const auto wall_start = std::chrono::steady_clock::now();
  FleetResult res;
  sim::Engine eng;
  net::Network net(eng);
  net.set_default_link(net::LinkParams::lan());

  // PKI: one CA, the FSS's host credential, and the fleet controller
  // identity the FSS is configured to obey.
  kit::Pki pki(opt.seed, "FleetCA");
  crypto::Credential fss_cred = pki.issue("fss", crypto::CertType::kHost);
  crypto::Credential controller_cred =
      pki.issue("controller", crypto::CertType::kIdentity);

  // Shared-storage backing store: every shard's kernel NFS server exports
  // the SAME FileSystem under the SAME fsid, so a file handle resolved
  // through one shard stays valid when its directory fails over to another
  // (the cluster-filesystem assumption behind shard interchangeability).
  auto fs = std::make_shared<vfs::FileSystem>();
  const Buffer file_body(static_cast<size_t>(kit::kIoBytes) * kit::kFileBlocks);
  for (int i = 0; i < opt.sessions; ++i) {
    kit::add_owned_file(*fs, std::string(kFleetRoot) + "/u" + std::to_string(i),
                        "f0", ByteView(file_body.data(), file_body.size()));
  }

  // Shard fleet: kernel NFS + plain-transport server proxy per shard host.
  std::vector<kit::FileServer> shards;
  shards.reserve(static_cast<size_t>(opt.shards));
  std::vector<core::ShardInfo> infos;
  for (int i = 0; i < opt.shards; ++i) {
    const std::string name = "shard" + std::to_string(i);
    // SAN-class backing store, not a commodity spindle: the shared-storage
    // model already assumes a cluster filesystem behind every shard, and
    // the proxy's serialized forwarding would otherwise queue every session
    // behind 8 ms seeks.  (FILE_SYNC writes still pay a real, bounded I/O
    // cost; reads mostly hit the kernel page cache.)
    net::DiskParams san;
    san.seek = 300 * sim::kMicrosecond;
    san.bytes_per_sec = 400.0 * 1024 * 1024;
    core::ServerProxyConfig scfg;
    scfg.plain_transport = true;
    scfg.plain_account = core::Account("grid", kit::kUid, kit::kUid);
    scfg.fine_grained_acls = false;
    scfg.cost.per_msg_cpu = opt.proxy_msg_cpu;
    scfg.admission = rpc::AdmissionControl(8, 64, /*busy=*/true);
    scfg.fair_queueing = true;
    shards.emplace_back(net.add_host(name, san), fs, scfg,
                        Rng(opt.seed ^ (0x5a5a0000ull + i)));
    infos.emplace_back(name, net::Address(name, kit::kProxyPort));
  }
  const core::ShardMap map0(/*epoch=*/1, infos);

  // FSS (discovery + publication endpoint), controller, resolver.
  auto fss = kit::start_fss(net, fss_cred, pki, {"/O=Grid/CN=controller"},
                            Rng(opt.seed ^ 0xf55f55ull));
  net::Host& ctrl = net.add_host("ctrl");
  net::Host& resolver = net.add_host("resolver");
  Discovery disc(resolver, pki.trusted, res);

  std::vector<net::Host*> session_hosts;
  session_hosts.reserve(static_cast<size_t>(opt.sessions));
  for (int i = 0; i < opt.sessions; ++i) {
    session_hosts.push_back(&net.add_host("c" + std::to_string(i)));
  }

  Fleet f(eng, opt, res, disc);
  {
    Buffer body(kit::kIoBytes);
    for (size_t i = 0; i < body.size(); ++i) {
      body[i] = static_cast<uint8_t>(i * 131);
    }
    f.payload = BufChain(std::move(body));
  }

  kit::FileServer* crash_shard =
      opt.crash_shard >= 0 ? &shards[static_cast<size_t>(opt.crash_shard)]
                           : nullptr;
  eng.run_task(drive(f, session_hosts, ctrl, controller_cred, map0,
                     crash_shard));

  res.final_epoch = disc.map ? disc.map->epoch() : 0;
  if (crash_shard != nullptr) {
    res.crash_bucket = res.win_start_bucket +
                       static_cast<size_t>(opt.crash_at_s);
    res.restored_bucket =
        res.crash_bucket + static_cast<size_t>(opt.downtime_s) +
        static_cast<size_t>(opt.readd_s) + 2 /* re-establish grace */;
  }
  res.finish(eng, wall_start);
  return res;
}

}  // namespace sgfs::fleet

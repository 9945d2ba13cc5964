#include "fleet/flashcrowd.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "net/network.hpp"
#include "nfs/wire_ops.hpp"
#include "sgfs/client_proxy.hpp"
#include "sgfs/replica.hpp"
#include "sgfs/server_proxy.hpp"
#include "vfs/vfs.hpp"

namespace sgfs::fleet {

namespace {

constexpr const char* kRoot = "/GFS/grid";
constexpr const char* kFileName = "dataset";
constexpr uint16_t kReplicaPort = 5049;
// Replica leaves are cache blocks; this must equal CacheConfig.block_size.
constexpr uint32_t kBlockBytes = 32 * 1024;

/// Shared state of the crowd; owned by run_flashcrowd's frame.
struct Crowd {
  sim::Engine& eng;
  const FlashcrowdOptions& opt;
  FlashcrowdResult& res;
  const Buffer& oracle;  // the published content, for byte-exact comparison
  size_t done = 0;

  Crowd(sim::Engine& e, const FlashcrowdOptions& o, FlashcrowdResult& r,
        const Buffer& body)
      : eng(e), opt(o), res(r), oracle(body) {}
};

/// One crowd member: mount through its own client proxy, pull the whole
/// published file block by block, compare every byte against the oracle.
sim::Task<void> client_actor(Crowd& c, const kit::ProxiedClient& client,
                             sim::SimDur phase) {
  co_await c.eng.sleep(phase);
  const rpc::AuthSys auth(kit::kUid, kit::kUid, client.host.name());
  try {
    auto ops = co_await nfs::V3WireOps::connect(client.host,
                                                client.loopback(), auth);
    nfs::Fh root = co_await ops->mount(kRoot);
    nfs::LookupRes file = co_await ops->lookup(root, kFileName);
    if (file.status != nfs::Status::kOk) {
      throw std::runtime_error("lookup dataset failed");
    }
    for (uint64_t b = 0; b < c.opt.file_blocks; ++b) {
      const uint64_t off = b * kBlockBytes;
      nfs::ReadRes r = co_await ops->read(file.fh, off, kBlockBytes);
      if (r.status != nfs::Status::kOk) {
        ++c.res.read_errors;
        continue;
      }
      Buffer scratch;
      ByteView got = linearize(r.data, scratch);
      // A short read is the wrong shape: it counts as corruption too.
      uint64_t bad =
          got.size() != std::min<uint64_t>(kBlockBytes, c.oracle.size() - off);
      // Whole-block compare first; count bytes one at a time only when
      // something differs.
      const bool same = got.empty() ||
                        (off + got.size() <= c.oracle.size() &&
                         std::memcmp(got.data(), c.oracle.data() + off,
                                     got.size()) == 0);
      for (size_t i = 0; !same && i < got.size(); ++i) {
        bad += off + i >= c.oracle.size() || got[i] != c.oracle[off + i];
      }
      c.res.corrupt_bytes += bad;
      c.res.bytes_read += got.size();
      ++c.res.reads_ok;
    }
    ops->close();
    ++c.res.clients_done;
  } catch (const std::exception&) {
    ++c.res.read_errors;
  }
  ++c.done;
}

/// The controller publishes the owner-signed catalog through the FSS; the
/// FSS checks the controller's envelope AND the owner's signature before
/// storing (it never re-signs — clients verify the embedded signature).
sim::Task<void> drive(Crowd& c, std::vector<kit::ProxiedClient>& clients,
                      net::Host& ctrl,
                      const crypto::Credential& controller_cred,
                      const std::string& catalog_hex) {
  if (c.opt.use_replicas) {
    co_await kit::fss_publish(
        ctrl, controller_cred, services::ServiceProc::kPutReplicaCatalog,
        "PutReplicaCatalog", "catalog", catalog_hex);
  }
  const size_t n = clients.size();
  kit::ramp(c.eng, n, sim::from_seconds(c.opt.ramp_s),
            [&](size_t i, sim::SimDur phase) {
              return client_actor(c, clients[i], phase);
            });
  co_await kit::wait_done(c.eng, c.done, n);
}

}  // namespace

uint64_t FlashcrowdResult::fingerprint() const {
  return digest({reads_ok, read_errors, bytes_read, corrupt_bytes,
                 clients_done, replica_blocks, origin_reads, verify_failures,
                 timeouts, fetch_errors, blacklists, probes, hedged,
                 hedge_wins, degraded, catalog_fetches, stale_catalogs,
                 byzantine_armed});
}

FlashcrowdResult run_flashcrowd(const FlashcrowdOptions& opt) {
  if (opt.clients < 1) throw std::invalid_argument("flashcrowd: clients < 1");
  if (opt.replicas < 1 && opt.use_replicas) {
    throw std::invalid_argument("flashcrowd: replicas < 1");
  }
  if (opt.file_blocks < 1) {
    throw std::invalid_argument("flashcrowd: file_blocks < 1");
  }

  const auto wall_start = std::chrono::steady_clock::now();
  FlashcrowdResult res;
  sim::Engine eng;
  net::Network net(eng);
  net.set_default_link(net::LinkParams::lan());

  // PKI: CA, origin's host credential (also the publication OWNER — the
  // fileserver signs the catalog), the crowd's shared user identity, the
  // FSS host credential and the controller identity the FSS obeys.
  kit::Pki pki(opt.seed, "CrowdCA");
  crypto::Credential origin_cred =
      pki.issue("fileserver", crypto::CertType::kHost);
  crypto::Credential user_cred =
      pki.issue("griduser", crypto::CertType::kIdentity);
  crypto::Credential fss_cred = pki.issue("fss", crypto::CertType::kHost);
  crypto::Credential controller_cred =
      pki.issue("controller", crypto::CertType::kIdentity);
  Rng rng(opt.seed);

  // Published content: deterministic, regenerable — the oracle every
  // client compares served bytes against.
  Buffer body(static_cast<size_t>(opt.file_blocks) * kBlockBytes);
  Rng content(opt.seed ^ 0xc0ffeeull);
  content.fill(MutByteView(body.data(), body.size()));

  // Origin: vfs + kernel NFS + the secure server proxy (the only party
  // with an identity; replicas are untrusted).
  auto fs = std::make_shared<vfs::FileSystem>();
  const uint64_t fileid = kit::add_owned_file(
      *fs, kRoot, kFileName, ByteView(body.data(), body.size()));

  core::ServerProxyConfig scfg;
  scfg.gridmap.add("/O=Grid/CN=griduser", "grid");
  scfg.security.credential = origin_cred;
  scfg.security.trusted = pki.trusted;
  scfg.security.cipher = crypto::Cipher::kAes128Cbc;
  scfg.cost.per_msg_cpu = 150 * sim::kMicrosecond;
  kit::FileServer origin(net.add_host("origin"), fs, scfg, rng.fork());

  // Replica fleet: dumb block servers, SAN-backed, no identity.
  std::vector<std::shared_ptr<ReplicaServer>> replicas;
  core::ReplicaCatalog catalog;
  catalog.epoch = 2;
  if (opt.use_replicas) {
    for (int i = 0; i < opt.replicas; ++i) {
      net::DiskParams san;
      san.seek = 300 * sim::kMicrosecond;
      san.bytes_per_sec = 400.0e6;
      auto& h = net.add_host("replica" + std::to_string(i), san);
      auto srv = std::make_shared<ReplicaServer>(h, h.name());
      srv->start(kReplicaPort);
      catalog.replicas.emplace_back(h.name(),
                                    net::Address(h.name(), kReplicaPort));
      replicas.push_back(std::move(srv));
    }
    core::ReplicaFileInfo fi;
    fi.path = std::string(kRoot) + "/" + kFileName;
    fi.fileid = fileid;
    fi.size = body.size();
    fi.block_size = kBlockBytes;
    const crypto::MerkleTree* tree = nullptr;
    for (auto& srv : replicas) {
      tree = &srv->publish_file(fileid, kBlockBytes,
                                ByteView(body.data(), body.size()));
    }
    fi.leaf_count = tree->leaf_count();
    fi.root = tree->root();
    catalog.files.push_back(std::move(fi));
  }
  core::ReplicaCatalog old_catalog = catalog;
  old_catalog.epoch = 1;
  const std::string old_hex =
      to_hex(core::sign_replica_catalog(old_catalog, origin_cred, 0)
                 .serialize());
  const std::string catalog_hex =
      to_hex(core::sign_replica_catalog(catalog, origin_cred, 0)
                 .serialize());
  for (auto& srv : replicas) {
    // Two signed epochs: the stale-catalog dial gossips the older one,
    // which adopters must reject as a rollback.
    srv->set_catalog(old_hex);
    srv->set_catalog(catalog_hex);
  }

  // FSS (catalog distribution) + controller.
  auto fss = kit::start_fss(net, fss_cred, pki, {"/O=Grid/CN=controller"},
                            rng.fork());
  net::Host& ctrl = net.add_host("ctrl");

  // Byzantine plan.
  core::ReplicaFaultInjector injector(eng, [&] {
    auto rf = opt.faults;
    if (rf.seed == 1) rf.seed = opt.seed ^ 0x5e91u;
    return rf;
  }());
  if (opt.use_replicas && opt.faults.enabled()) {
    std::vector<ReplicaServer*> ptrs;
    ptrs.reserve(replicas.size());
    for (auto& s : replicas) ptrs.push_back(s.get());
    injector.arm(ptrs);
  }
  res.byzantine_armed = injector.armed();

  // Crowd: one host + one client proxy each; a single shared user identity
  // (the flash crowd is many machines, one community account).
  std::vector<kit::ProxiedClient> clients;
  clients.reserve(static_cast<size_t>(opt.clients));
  for (int i = 0; i < opt.clients; ++i) {
    net::Host& h = net.add_host("c" + std::to_string(i));
    if (opt.origin_rtt > 0) {
      net.set_link(h.name(), "origin", net::LinkParams::wan(opt.origin_rtt));
    }
    core::ClientProxyConfig ccfg;
    ccfg.server_proxy = net::Address("origin", kit::kProxyPort);
    ccfg.security.credential = user_cred;
    ccfg.security.trusted = pki.trusted;
    ccfg.security.cipher = crypto::Cipher::kAes128Cbc;
    ccfg.cache.enabled = true;
    ccfg.cache.cache_data = false;  // one pass, nothing to re-hit
    ccfg.cache.write_back = false;
    if (opt.use_replicas) {
      ccfg.replica.enabled = true;
      ccfg.replica.catalog_service = kit::kFss;
      ccfg.replica.catalog_refresh = opt.catalog_refresh;
      ccfg.replica.blacklist_duration = opt.blacklist_duration;
      ccfg.replica.fetch_timeout = opt.fetch_timeout;
      ccfg.replica.hedge_delay = opt.hedge_delay;
    }
    clients.emplace_back(h, ccfg, rng.fork());
  }

  Crowd crowd(eng, opt, res, body);
  eng.run_task(drive(crowd, clients, ctrl, controller_cred, catalog_hex));

  for (kit::ProxiedClient& client : clients) {
    if (core::ReplicaSet* rs = client.proxy->replica_set()) {
      res.replica_blocks += rs->verified_blocks();
      res.verify_failures += rs->verify_failures();
      res.timeouts += rs->timeouts();
      res.fetch_errors += rs->fetch_errors();
      res.blacklists += rs->blacklists();
      res.probes += rs->probes();
      res.hedged += rs->hedged_fetches();
      res.hedge_wins += rs->hedge_wins();
      res.degraded += rs->degraded_to_origin();
      res.catalog_fetches += rs->catalog_fetches();
      res.stale_catalogs += rs->stale_catalogs();
    }
    client.proxy->stop();
  }
  origin.proxy->stop();
  for (auto& srv : replicas) srv->stop();
  fss->stop();

  res.origin_reads =
      res.reads_ok >= res.replica_blocks ? res.reads_ok - res.replica_blocks
                                         : 0;
  res.finish(eng, wall_start);
  res.goodput_bytes_per_s =
      res.sim_seconds > 0
          ? static_cast<double>(res.bytes_read) / res.sim_seconds
          : 0;
  return res;
}

}  // namespace sgfs::fleet

// Testbed: assembles the paper's experimental setups (§6.1).
//
// Two VMs (client 256MB, server 768MB) joined by an emulated network
// (NIST Net substitute), a kernel NFS server exporting /GFS, and one of:
//
//   nfs-v3   kernel NFSv3, client mounts the server directly
//   nfs-v4   NFSv4-lite COMPOUND protocol, same topology
//   sfs      SFS-like user-level daemons: the proxies' serialized
//            forwarding with SFS cost constants, aggressive in-memory
//            attr/name caching, no data caching, high daemon CPU cost (the
//            paper measured >30% utilization)
//   gfs      basic GFS: the SGFS proxies with security disabled
//   gfs-ssh  gfs + SSH tunnel (double user-level forwarding + tunnel crypto)
//   sgfs     the paper's contribution: SSL-secured proxies, GSI certs,
//            gridmap, optional per-session disk caching
//
// All timing constants carry the `calibrated2007` preset documented in
// DESIGN.md §3; absolute numbers model the paper's VMware/Xeon testbed and
// the *ratios* are what the benchmarks validate.
#pragma once

#include <memory>

#include "baselines/tunnel.hpp"
#include "net/fault.hpp"
#include "nfs/nfs3_client.hpp"
#include "nfs/nfs3_server.hpp"
#include "nfs/nfs4.hpp"
#include "sgfs/cache_fault.hpp"
#include "sgfs/client_proxy.hpp"
#include "sgfs/server_proxy.hpp"

namespace sgfs::baselines {

enum class SetupKind { kNfsV3, kNfsV4, kSfs, kGfs, kGfsSsh, kSgfs };

std::string to_string(SetupKind kind);

struct TestbedOptions {
  SetupKind kind = SetupKind::kSgfs;
  // sgfs security variant (§6.2.1): sgfs-sha = {kNull, kHmacSha1},
  // sgfs-rc = {kRc4_128, kHmacSha1}, sgfs-aes = {kAes256Cbc, kHmacSha1}.
  crypto::Cipher cipher = crypto::Cipher::kAes256Cbc;
  crypto::MacAlgo mac = crypto::MacAlgo::kHmacSha1;
  /// Client-proxy disk cache (the paper enables it for WAN runs; LAN runs
  /// of IOzone/PostMark/MAB have it off unless stated).
  bool proxy_disk_cache = false;
  bool proxy_write_back = true;
  core::Consistency consistency = core::Consistency::kSessionExclusive;
  /// 0 = LAN (0.3 ms RTT); otherwise the emulated WAN round-trip time.
  sim::SimDur wan_rtt = 0;
  uint64_t client_mem_bytes = 256ull << 20;  // paper: 256 MB client VM
  uint64_t seed = 42;
  /// Fault injection on the client<->server WAN link (0 = perfect network,
  /// the default).  When either probability is nonzero a deterministic
  /// net::FaultPlan (seeded from `seed`) is installed and the WAN-facing
  /// RPC clients get the standard retransmission policy.
  double loss_probability = 0;
  double corrupt_probability = 0;
  /// RFC 1813 §3.3.21 write-verifier replay in the kernel client and the
  /// client proxy.  Disable ONLY to demonstrate the resulting data loss
  /// (the chaos suite's deliberately-broken negative test).
  bool verifier_replay = true;
  /// WAN stream pool (gfs and sgfs setups).  pool.streams == 1 (the
  /// default) keeps the pool entirely inert: no extra RNG forks and no
  /// resumed-handshake negotiation, bit-identical to the pre-pool testbed.
  /// With K > 1 the sgfs server proxy's main listener also accepts
  /// abbreviated resumed handshakes (unified negotiation).
  core::StreamPoolConfig pool;
  /// Cross-session resumption tickets (sgfs only): the client proxy retains
  /// its ticket across disconnects and reconnects with an abbreviated
  /// handshake.  Off by default — the pre-change handshake sequence (and
  /// every golden pin) is preserved exactly.
  bool resume_sessions = false;
  /// Server-side ticket cache survives crash_restart (models an on-disk
  /// session cache).  Off = a restart wipes it and resumption falls back to
  /// full handshakes.
  bool durable_ticket_cache = false;
  /// Key regression for lazy revocation (sgfs server proxy).
  bool key_regression = false;
  /// Encrypt-and-MAC the client proxy's disk cache at rest (DESIGN.md §15).
  /// false = the paper's plaintext cache, bit-identical to every legacy run
  /// and the negative control that demonstrably serves poisoned bytes.
  bool cache_encryption = false;
  /// Disk-cache tuning overrides; 0 keeps the CacheConfig default.
  uint64_t cache_capacity_bytes = 0;
  int cache_poison_burst = 0;
  sim::SimDur cache_bypass = 0;
  /// Storage-fault injection against the proxy disk cache (cache_fault.hpp).
  /// rate_per_s == 0 (the default) spawns no injector.
  core::CacheFaultOptions cache_tamper;

  /// One gray-failure window (net/fault.hpp): the component keeps working,
  /// slower.  `delay`/`jitter` apply to link-slowdown windows, `factor`
  /// (>= 1.0) to host-degradation windows; unused fields are ignored.
  struct GrayWindow {
    sim::SimTime start = 0;
    sim::SimTime end = 0;
    sim::SimDur delay = 0;
    sim::SimDur jitter = 0;
    double factor = 1.0;

    GrayWindow() = default;
  };
  /// Added-delay windows on the client<->server link.  Any nonempty gray
  /// schedule installs a FaultPlan (even with zero loss) and enables the
  /// standard retransmission policy, since a slow-enough link is
  /// indistinguishable from loss.
  std::vector<GrayWindow> link_slowdowns;
  /// Degradation windows on the server host ("slow disk" / "slow CPU").
  std::vector<GrayWindow> server_slow_disk;
  std::vector<GrayWindow> server_slow_cpu;

  bool any_gray() const {
    return !link_slowdowns.empty() || !server_slow_disk.empty() ||
           !server_slow_cpu.empty();
  }

  TestbedOptions() = default;
};

class Testbed {
 public:
  explicit Testbed(TestbedOptions options);
  ~Testbed();

  sim::Engine& engine() { return eng_; }
  net::Network& network() { return net_; }
  net::Host& client_host() { return *client_; }
  net::Host& server_host() { return *server_; }
  vfs::FileSystem& server_fs() { return *fs_; }
  core::ClientProxy* client_proxy() { return client_proxy_.get(); }
  core::ServerProxy* server_proxy() { return server_proxy_.get(); }
  /// The storage-fault injector; nullptr unless cache_tamper is enabled.
  core::CacheTamperInjector* cache_injector() { return cache_injector_.get(); }
  const TestbedOptions& options() const { return options_; }

  /// The installed fault plan; nullptr on a perfect network.
  net::FaultPlan* fault_plan() { return net_.fault_plan(); }
  /// DRC activity on the server proxy's WAN-facing RPC service (where
  /// client-proxy retransmissions land).  0 for direct setups.
  uint64_t server_drc_hits() const;

  /// Mounts the grid filesystem the way this setup's client would.
  sim::Task<std::shared_ptr<nfs::MountPoint>> mount();

  /// Drains client-side state at the end of a run: flushes the kernel
  /// client (caller does that via MountPoint) and the proxy disk cache.
  /// Returns the simulated seconds spent writing back (Figures 9/10 report
  /// this separately).
  sim::Task<double> flush_session();

  /// Populates a server file directly (no network) and optionally preloads
  /// it into the server's page cache (the paper's IOzone setup).
  void preload_file(const std::string& path, uint64_t bytes, bool warm,
                    uint64_t content_seed = 1);

  /// Fraction-busy series (5s windows) of the user-level daemon on one
  /// side — Figures 5/6.  Includes the daemon's crypto work.
  enum class Side { kClient, kServer };
  std::vector<double> daemon_cpu_series(Side side) const;

  /// The path workloads operate in (owned by the grid user's account).
  static constexpr const char* kDataPath = "/GFS/grid";
  static constexpr uint32_t kGridUid = 1000;
  /// Effective end-to-end wire throughput of the virtualized GbE testbed.
  static constexpr double kWireBytesPerSec = 400.0e6 / 8.0;

 private:
  struct Pki;

  TestbedOptions options_;
  /// WAN-facing retransmission: the standard policy when a FaultPlan is
  /// installed, off otherwise.
  rpc::RetryPolicy retry_;
  sim::Engine eng_;
  net::Network net_;
  net::Host* client_;
  net::Host* server_;
  std::unique_ptr<Pki> pki_;  // sgfs setups only
  std::shared_ptr<vfs::FileSystem> fs_;
  std::shared_ptr<nfs::Nfs3Server> kernel_nfs_;
  std::unique_ptr<rpc::RpcServer> kernel_rpc_;
  std::shared_ptr<core::ServerProxy> server_proxy_;
  std::shared_ptr<core::ClientProxy> client_proxy_;
  std::unique_ptr<core::CacheTamperInjector> cache_injector_;
  std::shared_ptr<bool> injector_alive_;
  std::unique_ptr<SshTunnel> tunnel_;
  Rng rng_;
};

}  // namespace sgfs::baselines

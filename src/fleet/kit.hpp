// Scenario kit: what run_fleet and run_connstorm build their scenarios
// from.  No helper draws randomness or schedules an event the harness does
// not ask for, so fingerprints depend on options alone.
#pragma once

#include <chrono>
#include <cstdint>
#include <exception>
#include <initializer_list>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "crypto/cert.hpp"
#include "nfs/wire_ops.hpp"
#include "services/services.hpp"
#include "sim/engine.hpp"

namespace sgfs::fleet {

/// The fields every harness result carries, filled in by finish().
struct RunResult {
  double sim_seconds = 0;   // virtual end time
  double wall_seconds = 0;  // host wall clock spent inside the simulation
  uint64_t events = 0;      // sim::Engine::events_processed()
  uint64_t actors = 0;      // sim::Engine::actors_spawned()
  uint64_t sim_errors = 0;  // detached-actor exceptions (should be 0)
  std::map<std::string, double> metrics;  // engine registry snapshot

  /// The run epilogue: fills the fields above, wall time from `wall_start`.
  void finish(const sim::Engine& eng,
              std::chrono::steady_clock::time_point wall_start);

 protected:
  /// FNV-1a over `counts`, each series (length first), then the epilogue
  /// counts; wall time (nondeterministic) and metrics (derived) stay out.
  uint64_t digest(
      std::initializer_list<uint64_t> counts,
      std::initializer_list<const std::vector<uint64_t>*> series = {}) const;
};

/// A RunResult measured over a closed-loop window: ok/busy/giveups/errors
/// count only ops ARRIVING inside the window; bucket_ok counts every
/// success since the window's t0 (the recovery timeline).
struct WindowResult : RunResult {
  uint64_t ok = 0;
  uint64_t busy = 0;     // NFS3ERR_JUKEBOX surfaced after delayed retries
  uint64_t giveups = 0;  // client retransmission budget exhausted
  uint64_t errors = 0;   // session failures (stream loss, failover, ...)
  std::vector<uint64_t> bucket_ok;  // successes per virtual second
  size_t win_start_bucket = 0;
  size_t win_end_bucket = 0;
  size_t crash_bucket = 0;  // valid when the harness crashed a host

  /// Mean bucket_ok over [from, to).
  double mean_goodput(size_t from, size_t to) const;
};

namespace kit {

inline constexpr uint32_t kUid = 1000;  // the grid account's uid and gid
inline constexpr uint16_t kNfsPort = 2049;    // kernel NFS, client proxies
inline constexpr uint16_t kProxyPort = 3049;  // a file server's proxy
inline const net::Address kFss("fss", 6000);
inline constexpr uint32_t kIoBytes = 4096;   // closed-loop op size
inline constexpr uint64_t kFileBlocks = 16;  // closed-loop file: 16 x 4 KiB

/// A run's PKI: a CA drawn from the seed's PKI stream and the trust list
/// holding its root.  The CA name is in every certificate's bytes.
struct Pki {
  Pki(uint64_t seed, const std::string& ca_name);
  /// The next "/O=Grid/CN=<cn>" credential from the PKI stream.
  crypto::Credential issue(const std::string& cn, crypto::CertType type);

  Rng rng;
  crypto::CertificateAuthority ca;
  std::vector<crypto::Certificate> trusted;
};

/// Creates `dir` (with parents) and `dir`/`name` holding `body`, both
/// owned by kUid; returns the file's id.
vfs::FileId add_owned_file(vfs::FileSystem& fs, const std::string& dir,
                           const std::string& name, ByteView body);

/// A file-server host: a kernel NFS server exporting /GFS of `fs` on
/// kNfsPort and the server proxy `cfg` describes, plus the kUid grid
/// account, on kProxyPort (reading ACLs from `fs` if `cfg` wants them).
struct FileServer {
  FileServer(net::Host& host, std::shared_ptr<vfs::FileSystem> fs,
             core::ServerProxyConfig cfg, Rng rng);

  net::Host& host;
  std::shared_ptr<nfs::Nfs3Server> kernel;
  std::unique_ptr<rpc::RpcServer> kernel_rpc;
  std::shared_ptr<core::ServerProxy> proxy;
};

/// A client host whose actor mounts through the host's own client proxy.
struct ProxiedClient {
  ProxiedClient(net::Host& host, core::ClientProxyConfig cfg, Rng rng);
  net::Address loopback() const { return {host.name(), kNfsPort}; }

  net::Host& host;
  std::shared_ptr<core::ClientProxy> proxy;
};

/// Adds the "fss" host and starts an FSS on it at kFss.
std::shared_ptr<services::FileSystemService> start_fss(
    net::Network& net, const crypto::Credential& cred, const Pki& pki,
    std::vector<std::string> controllers, Rng rng);

/// A procedure and its body: a serialized signed envelope, or empty.
using FssRequest = std::pair<services::ServiceProc, BufChain>;

/// Sends `requests` in turn over one connection from `from` to the FSS and
/// returns the last reply's envelope.  Throws on failure.
sim::Task<services::Envelope> fss_call(net::Host& from,
                                       std::vector<FssRequest> requests);

/// Signs {key: value} as `action` and sends it as `proc`; throws unless the
/// FSS answers "<action>Response".
sim::Task<void> fss_publish(net::Host& ctrl, const crypto::Credential& cred,
                            services::ServiceProc proc, const char* action,
                            const char* key, std::string value);

/// Spawns `actor(i, phase)` for i < n, phases spread evenly over `over`.
template <typename Actor>
void ramp(sim::Engine& eng, size_t n, sim::SimDur over, Actor&& actor) {
  for (size_t i = 0; i < n; ++i) {
    eng.spawn(actor(i, over * static_cast<sim::SimDur>(i) /
                           static_cast<sim::SimDur>(n)));
  }
}

/// Closed-loop window accounting into a WindowResult.
class Window {
 public:
  Window(sim::Engine& eng, WindowResult& res) : eng_(eng), res_(res) {}

  /// Starts the clock: the window opens `warmup_s` from now and lasts
  /// `window_s`; sizes bucket_ok and sets the window's bucket landmarks.
  void open(double warmup_s, double window_s);
  bool contains(sim::SimTime t) const { return t >= start && t < end; }
  /// Runs and counts one op at a random block of the file: a GETATTR when
  /// the percentile drawn is below `getattr_pct`, else a READ below
  /// `read_pct`, else a FILE_SYNC WRITE of `payload`.  Returns the op's
  /// arrival time if it succeeded.
  sim::Task<std::optional<sim::SimTime>> op(nfs::V3WireOps& ops, nfs::Fh fh,
                                            Rng& rng, uint64_t getattr_pct,
                                            uint64_t read_pct,
                                            const BufChain& payload);
  /// Counts an op that ended in `e` now: a give-up when `e` is an RPC
  /// timeout (then returns true), an error otherwise.
  bool count_failure(const std::exception& e);
  /// Sleeps to the window's end, then waits until `n` actors are done.
  sim::Task<void> drain(size_t n);

  sim::SimTime t0 = 0;
  sim::SimTime start = 0;
  sim::SimTime end = 0;
  size_t done = 0;

 private:
  sim::Engine& eng_;
  WindowResult& res_;
};

}  // namespace kit
}  // namespace sgfs::fleet

// Fleet-scale serving harness: hundreds-to-thousands of concurrent client
// sessions against a sharded server-proxy fleet.
//
// This is the scale-out story the paper defers to its grid deployments
// (§6.3: one server proxy per exported filesystem, many sessions): the
// namespace is partitioned across N server proxies by the consistent-hash
// ShardMap, the map is published through the FSS (kPutShardMap) and
// discovered by sessions at establishment time (kGetShardMap), and a shard
// crash triggers a rebalance — the controller publishes a new epoch without
// the dead shard, sessions that lose their connection re-discover and
// re-establish against the surviving shards (through the PR-4/5 reconnect,
// retry-budget and admission-control machinery), and a later epoch folds the
// restarted shard back in.
//
// Everything is driven from a single deterministic simulation: run_fleet()
// builds the topology (shard hosts sharing one exported FileSystem — the
// shared-storage model, so file handles stay valid across shards — plus an
// FSS host, a controller host and one host per client session), runs the
// closed-loop workload and returns per-second goodput buckets, per-op
// latencies and a fingerprint that must be bit-identical across runs with
// the same options.  The bench (bench/fleet.cpp) and the 10k-actor
// determinism test both sit on top of this one entry point.
#pragma once

#include <cstdint>
#include <vector>

#include "fleet/kit.hpp"

namespace sgfs::fleet {

struct FleetOptions {
  int shards = 4;          // server-proxy fleet size
  int sessions = 250;      // concurrent client sessions (one host each)
  double warmup_s = 3.0;   // establishment ramp before the window opens
  double window_s = 20.0;  // measurement window
  double op_interval_s = 0.2;  // closed-loop think time per session
  uint64_t seed = 42;

  // Crash drill (rebalancing): disabled while crash_shard < 0.  Times are
  // relative to the start of the measurement window.
  int crash_shard = -1;
  double crash_at_s = 6.0;   // shard crashes (window-relative)
  double downtime_s = 4.0;   // host refuses connections for this long
  double detect_s = 0.5;     // controller publishes epoch+1 after this
  double readd_s = 1.0;      // epoch+2 re-adds the shard this long after
                             // its restart completes

  // Shard-map staleness bound: a shared periodic refresh on top of the
  // failure-triggered ones.
  double refresh_s = 5.0;

  // Server-proxy forwarding cost; 150 us/message puts one shard's capacity
  // near 3000 calls/s, so the default sweep stays comfortably underloaded
  // and the crash drill shifts load without collapsing the survivors.
  sim::SimDur proxy_msg_cpu = 150 * sim::kMicrosecond;

  FleetOptions() = default;
};

struct FleetResult : WindowResult {
  std::vector<uint64_t> lat_ns;  // latency of each in-window success

  // Session-lifecycle accounting.
  uint64_t establishes = 0;        // session (re-)establishments
  uint64_t reroutes = 0;           // re-established on a DIFFERENT shard
  uint64_t discovery_fetches = 0;  // kGetShardMap RPCs that parsed+verified
  uint64_t discovery_failures = 0;
  uint64_t final_epoch = 0;        // shard-map epoch clients ended on

  size_t restored_bucket = 0;  // crash drill: restart + readd + grace

  /// Digest of every observable count: two runs with identical options
  /// must produce identical fingerprints.
  uint64_t fingerprint() const;

  /// Latency percentile over the in-window successes, in milliseconds.
  double percentile_ms(double q) const;
};

/// Builds the fleet topology, runs the workload, returns the measurements.
/// Deterministic: same options => bit-identical FleetResult (fingerprint).
FleetResult run_fleet(const FleetOptions& opt);

}  // namespace sgfs::fleet

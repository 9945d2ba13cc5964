// Flash-crowd harness: hundreds of clients pulling one published read-only
// file, served either by the origin alone (secure channel to the server
// proxy) or by an untrusted replica fleet with end-to-end Merkle
// verification (DESIGN.md §16).
//
// The topology is the replication story end to end: the owner signs a
// catalog over the file's Merkle root and the replica endpoints, the
// controller publishes it through the FSS (kPutReplicaCatalog), every
// client's ReplicaSet discovers it (kGetReplicaCatalog — a raw, zero-RSA
// public read), and block fetches go to dumb plain-transport replicas,
// verified block by block against the signed root.  A seeded
// ReplicaFaultInjector turns a fraction of the fleet Byzantine; the gates
// the bench enforces on top:
//
//   - robust clients serve ZERO corrupt bytes at any Byzantine fraction
//     (an oracle regenerates the published content and compares);
//   - goodput with clean replicas beats the origin-only funnel;
//   - blacklist, half-open probe and degrade-to-origin demonstrably fire.
//
// Deterministic: same options => bit-identical FlashcrowdResult
// (fingerprint), same discipline as run_fleet().
#pragma once

#include <cstdint>

#include "fleet/kit.hpp"
#include "fleet/replica_server.hpp"

namespace sgfs::fleet {

struct FlashcrowdOptions {
  int clients = 120;       // one host + client proxy each
  int replicas = 4;        // untrusted replica servers
  bool use_replicas = true;  // false = origin-only baseline
  uint64_t file_blocks = 48;  // published file, in 32 KiB cache blocks
  double ramp_s = 1.0;     // client start ramp
  uint64_t seed = 42;
  /// RTT between the crowd and the distant origin fileserver.  Replicas sit
  /// on the crowd's LAN — the whole point of publication is moving bytes
  /// next to the flash crowd while trust stays anchored at the origin.
  sim::SimDur origin_rtt = 20 * sim::kMillisecond;

  // Byzantine plan (fraction == 0 keeps the fleet clean).
  core::ReplicaFaultOptions faults;

  // Client-side replica tuning knobs that matter at bench time scale.
  sim::SimDur blacklist_duration = 2 * sim::kSecond;
  sim::SimDur fetch_timeout = 1 * sim::kSecond;
  sim::SimDur hedge_delay = 250 * sim::kMillisecond;
  /// Catalog gossip cadence; short values make mid-run refreshes certain
  /// (the stale-catalog scenario's non-vacuity hinges on them).
  sim::SimDur catalog_refresh = 5 * sim::kSecond;

  FlashcrowdOptions() = default;
};

struct FlashcrowdResult : RunResult {
  // Workload outcomes.
  uint64_t reads_ok = 0;
  uint64_t read_errors = 0;
  uint64_t bytes_read = 0;
  /// Oracle mismatches between served bytes and the published content.
  /// The headline robustness gate: 0 for verified clients, always.
  uint64_t corrupt_bytes = 0;
  uint64_t clients_done = 0;

  // Replica-path accounting, summed over every client's ReplicaSet.
  uint64_t replica_blocks = 0;    // reads served from verified replica bytes
  uint64_t origin_reads = 0;      // reads that fell back to the origin
  uint64_t verify_failures = 0;   // Byzantine blocks caught by Merkle check
  uint64_t timeouts = 0;
  uint64_t fetch_errors = 0;
  uint64_t blacklists = 0;
  uint64_t probes = 0;            // half-open re-probe admissions
  uint64_t hedged = 0;
  uint64_t hedge_wins = 0;
  uint64_t degraded = 0;          // fetch_block gave up -> origin
  uint64_t catalog_fetches = 0;   // FSS/gossip catalog pulls that verified
  uint64_t stale_catalogs = 0;    // rollback attempts rejected
  uint64_t byzantine_armed = 0;   // replicas the injector actually turned

  double goodput_bytes_per_s = 0;  // bytes_read / sim_seconds

  /// Bit-identical across runs with identical options.
  uint64_t fingerprint() const;
};

/// Builds the topology, runs the crowd, returns the measurements.
FlashcrowdResult run_flashcrowd(const FlashcrowdOptions& opt);

}  // namespace sgfs::fleet

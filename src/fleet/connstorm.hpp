// Connection-storm harness: N secure client sessions against ONE server
// proxy, a server crash_restart in the middle of the measurement window,
// and the whole cohort reconnecting at once.
//
// This is the stress case the unified session lifecycle (SessionManager)
// exists for.  The sweep axes:
//
//   resumption  — cross-session tickets + durable server ticket cache: a
//                 reconnecting client redeems its ticket with an
//                 abbreviated handshake (0.5 ms-class server CPU) instead
//                 of joining a full-RSA herd (15 ms-class each, serialized
//                 on the one server CPU);
//   admission   — the server proxy's admission control sheds the
//                 post-restart call flood with JUKEBOX instead of letting
//                 queues and retransmission storms stretch recovery;
//   sso_cache   — the FSS's per-user SSO pass desk: reconnect
//                 authorization costs O(users) FSS signatures instead of
//                 O(reconnections).
//
// run_connstorm() is deterministic: same options => bit-identical
// ConnstormResult::fingerprint().  The bench (bench/connstorm.cpp) gates
// that resumption+admission recovers goodput >= 3x faster than the naive
// full-handshake herd and that FSS signatures stay O(users).
#pragma once

#include <cstdint>
#include <vector>

#include "fleet/kit.hpp"

namespace sgfs::fleet {

struct ConnstormOptions {
  int clients = 96;       // concurrent secure sessions (one host each)
  int users = 8;          // distinct grid identities the clients share
  double warmup_s = 5.0;  // establishment ramp before the window opens
  double window_s = 22.0;
  double op_interval_s = 0.25;  // closed-loop think time per session
  uint64_t seed = 42;

  // The storm: the server host (proxy + kernel NFS) restarts, every
  // session breaks, everyone reconnects.  Times are window-relative.
  double crash_at_s = 8.0;
  double downtime_s = 2.0;

  // Sweep axes (see header comment).
  bool resumption = true;
  bool admission = true;
  bool sso_cache = true;

  sim::SimDur proxy_msg_cpu = 150 * sim::kMicrosecond;

  ConnstormOptions() = default;
};

struct ConnstormResult : WindowResult {
  /// 250 ms-resolution ok series; recovery_s is computed on this so a herd
  /// that clears in well under a second is not rounded up to one.
  std::vector<uint64_t> sub_ok;
  size_t restart_bucket = 0;  // crash + downtime (server accepting again)

  // Session-lifecycle accounting.
  uint64_t establishes = 0;  // client-proxy upstream full/abbrev. sessions
  uint64_t reconnects = 0;   // forward()-level session re-establishments
  uint64_t full_handshakes = 0;      // sgfs.session.full_handshakes
  uint64_t resumed_sessions = 0;     // sgfs.session.resumed
  uint64_t fallback_handshakes = 0;  // sgfs.session.fallback_full
  uint64_t fss_signatures = 0;       // FSS RSA signatures (SSO desk)
  uint64_t fss_cache_hits = 0;
  uint64_t sso_authorizations = 0;   // actor-level authorization rounds

  // Derived recovery figures (deterministic functions of bucket_ok).
  double plateau = 0;            // mean goodput before the crash
  double recovery_s = 0;         // restart -> goodput back to 90% plateau

  /// Digest of every observable count; two runs with identical options
  /// must match bit-for-bit.
  uint64_t fingerprint() const;
};

/// Builds the topology, runs the storm, returns the measurements.
ConnstormResult run_connstorm(const ConnstormOptions& opt);

}  // namespace sgfs::fleet

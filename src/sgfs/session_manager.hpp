// Unified session lifecycle (ROADMAP item 3).
//
// Before this layer existed, session establishment logic was scattered
// across four call sites: the client proxy's NFS and MOUNT upstream
// creation, its reconnect loop, renegotiation/reload teardown, and the
// stream pool's sibling-stream setup.  SessionManager is now the one place
// that knows how this session's secure connections come into being:
//
//   full handshake        — mutual RSA exchange (15 ms-class CPU); the
//                           resulting ticket is retained when cross-session
//                           resumption is enabled;
//   ticket resumption     — abbreviated handshake (0.5 ms-class CPU) that
//                           redeems the retained ticket after a disconnect
//                           (crash_restart, breaker trip, retry give-up);
//                           each redemption uses a fresh resume index so key
//                           blocks never repeat across reconnects;
//   pool sibling streams  — the PR 7 abbreviated per-stream handshake,
//                           resumed off the live primary channel's ticket.
//
// Unknown/expired tickets fail closed on the server; the manager falls back
// to a full handshake and re-arms the ticket from it.  With resumption off
// (the default) establishment is byte-for-byte the pre-refactor code path:
// no ticket state, no extra RNG draws, no new metrics.
#pragma once

#include <memory>
#include <optional>

#include "rpc/rpc_client.hpp"
#include "sgfs/session.hpp"

namespace sgfs::core {

class SessionManager {
 public:
  /// Resume indices for cross-session redemptions live far above the pool's
  /// sibling-stream indices (1..K-1) so the two uses of one ticket can never
  /// collide on a key block.
  static constexpr uint32_t kSessionResumeBase = 0x80000000u;

  /// `config` and `rng` are borrowed (the client proxy's own members), so a
  /// reload() that swaps the config is seen here immediately.
  SessionManager(net::Host& host, const ClientProxyConfig& config, Rng& rng);

  /// Establishes one upstream connection for (prog, vers): plain transport,
  /// abbreviated ticket resumption (when enabled and a ticket is held), or
  /// a full handshake.  A full handshake on a secure transport re-arms the
  /// retained ticket; a refused resumption drops it and falls back.
  sim::Task<std::unique_ptr<rpc::RpcClient>> establish(uint32_t prog,
                                                       uint32_t vers);

  /// Opens pool sibling stream `index` of the session `primary` belongs to:
  /// abbreviated handshake off the primary channel's live ticket, full
  /// handshake as fallback when the server forgot the session.
  /// `*resumed_out` (optional) reports which flavour ran.  Throws when the
  /// primary is not a secure transport.
  sim::Task<std::unique_ptr<rpc::RpcClient>> establish_stream(
      rpc::RpcClient& primary, uint32_t prog, uint32_t vers, uint32_t index,
      bool* resumed_out);

  /// Forgets the retained ticket: the next establishment pays a full
  /// handshake (renegotiation wants genuinely fresh keys + re-validated
  /// certificates; a cipher-suite reload invalidates the ticket too).
  void invalidate_ticket() { ticket_.reset(); }

  // Stats (session-lifecycle accounting; only populated when cross-session
  // resumption is enabled, so opted-out runs register no new metrics).
  uint64_t full_handshakes() const { return full_handshakes_; }
  uint64_t resumed_sessions() const { return resumed_sessions_; }
  uint64_t fallback_handshakes() const { return fallback_handshakes_; }
  uint64_t disconnects() const { return disconnects_; }

 private:
  int64_t now_epoch() const;

  net::Host& host_;
  const ClientProxyConfig& config_;
  Rng& rng_;
  /// Ticket from the last full handshake (cross-session resumption only).
  std::optional<crypto::ResumptionTicket> ticket_;
  uint32_t next_resume_index_ = 0;

  obs::CounterHandle m_full_, m_resumed_, m_fallback_, m_disconnects_;
  uint64_t full_handshakes_ = 0;
  uint64_t resumed_sessions_ = 0;
  uint64_t fallback_handshakes_ = 0;
  uint64_t disconnects_ = 0;
};

}  // namespace sgfs::core

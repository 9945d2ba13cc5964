// RPC client with xid-matched concurrent calls, plus the TI-RPC-style
// creation API from the paper (§4.1): clnt_create / clnt_ssl_create.
//
// Calls may be issued concurrently from multiple coroutines (SFS-style
// asynchronous RPC); a single reader task demultiplexes replies by xid.
// Blocking behaviour (the paper's SGFS prototype) is simply a caller that
// awaits each call before issuing the next.
//
// With a RetryPolicy installed (see retry.hpp) a call retransmits on
// timeout, reusing its xid so the server's duplicate-request cache can
// suppress re-execution of non-idempotent procedures.
#pragma once

#include <exception>
#include <functional>
#include <map>
#include <memory>

#include "rpc/retry.hpp"
#include "rpc/rpc_msg.hpp"
#include "rpc/transport.hpp"
#include "sim/channel.hpp"
#include "sim/engine.hpp"

namespace sgfs::rpc {

class RpcClient {
 public:
  RpcClient(sim::Engine& eng, std::unique_ptr<MsgTransport> transport,
            uint32_t prog, uint32_t vers);
  ~RpcClient() { close(); }
  RpcClient(const RpcClient&) = delete;
  RpcClient& operator=(const RpcClient&) = delete;

  /// Sets AUTH_SYS credentials attached to every subsequent call.
  void set_auth(const AuthSys& cred) { cred_ = OpaqueAuth::sys(cred); }
  void clear_auth() { cred_ = OpaqueAuth::none(); }

  /// Retransmission policy for subsequent calls (default: disabled).
  /// Nonsensical fields are clamped (RetryPolicy::sanitized): backoff <= 1.0
  /// becomes 2.0 instead of silently retransmitting at a fixed interval.
  void set_retry(const RetryPolicy& retry) { retry_ = retry.sanitized(); }
  const RetryPolicy& retry() const { return retry_; }

  /// Shares a retry budget with this client (see RetryBudget): originals
  /// deposit, retransmissions withdraw, and a denied withdrawal suppresses
  /// the wire send while the attempt still counts toward give-up.  The
  /// budget is shared so it survives this client's teardown (session
  /// re-establishment replaces clients but must not refill the bucket).
  void set_retry_budget(std::shared_ptr<RetryBudget> budget) {
    state_->budget = std::move(budget);
  }

  /// Issues one call and awaits its reply payload.  Both directions are
  /// segment chains: args are grafted into the wire message without a copy
  /// and the reply payload is a shared slice of the received record.
  /// Throws RpcError / RpcAuthError / RpcTimeout / net::StreamClosed /
  /// crypto::SecurityError (secure transports).
  sim::Task<BufChain> call(uint32_t proc, BufChain args);

  /// Allocates an xid without sending anything.  Lets a caller keep one xid
  /// across session re-establishment so the server's duplicate-request
  /// cache still recognises the resend on a fresh connection.
  uint32_t reserve_xid() { return state_->next_xid++; }

  /// As call(), but with a caller-chosen xid (from reserve_xid()).
  sim::Task<BufChain> call_with_xid(uint32_t xid, uint32_t proc,
                                    BufChain args);

  /// Disconnect hook: invoked once when the connection breaks underneath
  /// the client (reader death — peer EOF, reset, record tamper), NOT on an
  /// orderly local close().  The session layer uses it to observe the
  /// disconnect and decide how the next establishment runs (e.g. attempt
  /// an abbreviated ticket resumption instead of a full handshake).
  void set_on_broken(std::function<void()> cb) {
    state_->on_broken = std::move(cb);
  }

  /// Idempotent; fails all outstanding calls with net::StreamClosed.
  void close();

  MsgTransport& transport() { return *transport_; }
  uint64_t calls_sent() const { return state_->calls_sent; }
  uint64_t retransmits() const { return state_->retransmits; }
  uint64_t timeouts() const { return state_->timeouts; }
  size_t pending_calls() const { return state_->pending.size(); }

 private:
  // One in-flight call.  It lives in the call's own frame; the pending map
  // points at it while the call waits for its reply.
  struct Pending {
    std::optional<ReplyMsg> reply;
    sim::SimEvent done;
    sim::Engine::Callback* timer = nullptr;  // queued retransmission timer
    explicit Pending(sim::Engine& eng) : done(eng) {}
  };

  // Shared between the client object and the detached reader task, so the
  // reader stays memory-safe if the client is destroyed while it sleeps.
  // In-flight call coroutines hold their own shared_ptr to it as well, so
  // destroying the client mid-call is safe.
  struct State {
    bool closed = false;
    uint32_t next_xid = 1;
    uint64_t calls_sent = 0;
    uint64_t retransmits = 0;
    uint64_t timeouts = 0;
    // Why the reader died, surfaced to callers (e.g. crypto::MacError so
    // the proxy layer can translate it into a re-handshake).
    std::exception_ptr broken;
    std::shared_ptr<RetryBudget> budget;
    // One-shot disconnect hook (see set_on_broken).
    std::function<void()> on_broken;
    std::map<uint32_t, Pending*, std::less<>,
             PoolAllocator<std::pair<const uint32_t, Pending*>>>
        pending;

    // Hot-path metric handles: resolved lazily on first event so snapshots
    // stay identical to the per-call registry-lookup code they replace.
    // Living in State (not the client object) keeps them valid for call
    // coroutines that outlive the client.
    obs::CounterHandle m_calls, m_bytes_sent, m_timeouts, m_giveups;
    obs::CounterHandle m_retransmits, m_suppressed_retransmits;
    obs::HistogramHandle m_call_ns;

    void fail_all() {
      for (auto& [xid, p] : pending) p->done.set();
      pending.clear();
    }
  };

  static sim::Task<void> reader_loop(std::shared_ptr<MsgTransport> transport,
                                     std::shared_ptr<State> state);

  sim::Engine& eng_;
  std::shared_ptr<MsgTransport> transport_;
  std::shared_ptr<State> state_;
  uint32_t prog_, vers_;
  OpaqueAuth cred_ = OpaqueAuth::none();
  RetryPolicy retry_;
};

/// Creates a plain RPC client (kernel-NFS-style TCP connection).
sim::Task<std::unique_ptr<RpcClient>> clnt_create(net::Host& from,
                                                  const net::Address& to,
                                                  uint32_t prog,
                                                  uint32_t vers);

/// Creates an SSL-secured RPC client — the paper's clnt_tli_ssl_create.
/// The extra parameter is the security configuration structure.
sim::Task<std::unique_ptr<RpcClient>> clnt_ssl_create(
    net::Host& from, const net::Address& to, uint32_t prog, uint32_t vers,
    const crypto::SecurityConfig& security, Rng& rng, int64_t now_epoch);

/// Opens stream `stream_index` of an established secure session: an
/// abbreviated handshake derives per-stream keys from `ticket` with no RSA
/// exchange.  Used by the proxy stream pool; throws SecurityError when the
/// server no longer honours the ticket (caller falls back to
/// clnt_ssl_create).
sim::Task<std::unique_ptr<RpcClient>> clnt_ssl_resume(
    net::Host& from, const net::Address& to, uint32_t prog, uint32_t vers,
    const crypto::SecurityConfig& security, Rng& rng, int64_t now_epoch,
    const crypto::ResumptionTicket& ticket, uint32_t stream_index);

}  // namespace sgfs::rpc

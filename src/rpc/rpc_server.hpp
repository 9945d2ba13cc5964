// RPC server: accept loop, per-connection dispatch, program registry.
//
// A server may listen plain (the kernel NFS server on the loopback, paper
// Figure 1) or secured (svc_tli_ssl_create, §4.1) — in the latter case every
// connection is mutually authenticated and the validated grid identity is
// handed to the program handlers for authorization decisions.
#pragma once

#include <coroutine>
#include <deque>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>

#include "rpc/rpc_msg.hpp"
#include "rpc/transport.hpp"
#include "sim/engine.hpp"

namespace sgfs::rpc {

/// Context a handler sees for one call.
struct CallContext {
  uint32_t xid = 0;
  uint32_t prog = 0;
  uint32_t vers = 0;
  uint32_t proc = 0;
  /// AUTH_SYS credentials, if the caller attached them.
  std::optional<AuthSys> auth_sys;
  /// Grid identity of the peer, if the connection is secure.
  std::optional<crypto::DistinguishedName> peer_identity;
  /// Host name on the other end of the connection.
  std::string peer_host;

  CallContext() = default;
};

/// A program implementation: maps (proc, args) to reply bytes.  Arguments
/// arrive and results leave as segment chains; a handler that forwards a
/// payload (proxies) can pass the slices through without copying them.
/// Throw RpcError(kProcUnavail/kGarbageArgs/...) to signal protocol errors;
/// throw RpcAuthError to deny authentication.
class RpcProgram {
 public:
  virtual ~RpcProgram() = default;
  virtual sim::Task<BufChain> handle(const CallContext& ctx,
                                     BufChain args) = 0;

  /// Whether the server's duplicate-request cache should retain this call's
  /// reply so a retransmission replays it instead of re-executing the
  /// handler.  Return true for non-idempotent procedures (NFS CREATE,
  /// REMOVE, RENAME, ...); the default keeps the cache off, which is safe
  /// for read-style programs and avoids pinning large replies.
  virtual bool cache_reply(const CallContext& ctx) const {
    (void)ctx;
    return false;
  }

  /// Serialized "overloaded, try later" result for this call, used when the
  /// server sheds it under admission control with `busy_replies` on.  NFS
  /// programs return the procedure's result shape with NFS3ERR_JUKEBOX
  /// (nfs::busy_status_reply); the default — or an empty chain — makes the
  /// server shed by dropping, so the client's retransmission timer recovers.
  virtual std::optional<BufChain> busy_reply(const CallContext& ctx) const {
    (void)ctx;
    return std::nullopt;
  }
};

/// Server-side admission control: a bounded request queue in front of the
/// dispatcher.  Up to `max_concurrency` calls execute at once; up to
/// `max_queue` more wait FIFO; beyond that the server sheds — silently
/// (drop; the client's retransmission recovers) or, with `busy_replies`,
/// with the program's "try later" reply (NFS3ERR_JUKEBOX-style), which
/// costs one cheap send but saves the client a full retransmission timeout.
/// Disabled by default (max_concurrency == 0): dispatch is unbounded and
/// timing is bit-identical to servers that predate admission control.
struct AdmissionControl {
  size_t max_concurrency = 0;  // 0 = unlimited (admission control off)
  size_t max_queue = 0;
  bool busy_replies = false;

  AdmissionControl() = default;
  AdmissionControl(size_t concurrency, size_t queue, bool busy)
      : max_concurrency(concurrency), max_queue(queue), busy_replies(busy) {}

  bool enabled() const { return max_concurrency > 0; }
};

class RpcServer {
 public:
  /// Plain server.
  RpcServer(net::Host& host, uint16_t port);
  /// SSL-enabled server (svc_tli_ssl_create): all inbound connections must
  /// complete the mutual handshake.
  RpcServer(net::Host& host, uint16_t port,
            crypto::SecurityConfig security, Rng rng, int64_t now_epoch);
  ~RpcServer();
  RpcServer(const RpcServer&) = delete;
  RpcServer& operator=(const RpcServer&) = delete;

  void register_program(uint32_t prog, uint32_t vers,
                        std::shared_ptr<RpcProgram> program);

  /// Starts the accept loop (idempotent).
  void start();
  void stop();

  net::Host& host() { return *host_; }
  uint16_t port() const { return port_; }
  uint64_t calls_served() const { return state_->served; }

  /// Duplicate-request cache stats: replayed cached replies, and
  /// retransmissions dropped because the original call was still executing.
  uint64_t drc_hits() const { return state_->drc_hits; }
  uint64_t drc_inflight_drops() const { return state_->drc_inflight_drops; }
  /// Completed-entry capacity of the duplicate-request cache (LRU).
  void set_drc_capacity(size_t n) { state_->drc_capacity = n; }

  /// Installs (or reconfigures) admission control.  Safe to call before
  /// start(); reconfiguring while calls are queued only affects new arrivals.
  void set_admission(const AdmissionControl& admission) {
    state_->admission = admission;
  }
  /// Calls shed by admission control (dropped or answered with a busy reply).
  uint64_t calls_shed() const { return state_->shed; }
  /// Shed calls that got a program-provided "try later" reply.
  uint64_t busy_replies_sent() const { return state_->busy_replies; }

 private:
  // Duplicate-request cache: (peer host, xid, prog, vers, proc) -> reply.
  // Entries are inserted when a call starts (in-progress marker) and either
  // retained with the serialized reply (cache_reply() == true) or dropped
  // once the reply is sent.  Completed entries age out oldest first: a hit
  // does not refresh one, so the order is completion order (FIFO).
  // Nothing iterates the hash table, so its order never reaches a result.
  struct DrcKey {
    std::string peer;
    uint32_t xid = 0, prog = 0, vers = 0, proc = 0;

    // Not an aggregate: it lives in a coroutine frame (GCC 12 bug).
    DrcKey(std::string p, const CallMsg& call)
        : peer(std::move(p)),
          xid(call.xid),
          prog(call.prog),
          vers(call.vers),
          proc(call.proc) {}
    bool operator==(const DrcKey&) const = default;
  };
  struct DrcKeyHash {
    size_t operator()(const DrcKey& k) const;
  };
  struct DrcEntry {
    bool done = false;
    BufChain reply;  // shared with the original send; replay is copy-free

    DrcEntry() = default;
  };

  struct State {
    bool stopped = false;
    uint64_t served = 0;
    uint64_t drc_hits = 0;
    uint64_t drc_inflight_drops = 0;
    // Crash generation: bumped by the host crash handler.  A call that was
    // dispatched before a crash must not publish its reply (or a DRC entry)
    // into the restarted instance — serve_one compares epochs around the
    // handler await and discards the reply on mismatch.
    uint64_t epoch = 0;
    size_t drc_capacity = 512;
    // Admission control (inert while admission.enabled() is false): calls
    // holding an execution slot, and FIFO waiters parked for one.
    AdmissionControl admission;
    size_t active_calls = 0;
    std::deque<std::coroutine_handle<>> admit_waiters;
    uint64_t shed = 0;
    uint64_t busy_replies = 0;
    std::unordered_map<DrcKey, DrcEntry, DrcKeyHash, std::equal_to<>,
                       PoolAllocator<std::pair<const DrcKey, DrcEntry>>>
        drc;
    // Keys of the completed entries, in completion order (oldest first).
    // A list, not a deque: libstdc++'s deque allocates a first block when
    // it is built, for every server, even one that never caches a reply.
    std::list<DrcKey, PoolAllocator<DrcKey>> drc_done;
    std::map<std::pair<uint32_t, uint32_t>, std::shared_ptr<RpcProgram>>
        programs;
    std::optional<crypto::SecurityConfig> security;
    Rng rng{0};
    int64_t now_epoch = 0;

    // Hot-path metric handles (lazy first-use resolution keeps snapshots
    // identical to per-call registry lookups); in State so detached serve
    // tasks outliving the server object stay safe.
    obs::CounterHandle m_connections, m_malformed, m_calls, m_shed;
    obs::CounterHandle m_jukebox_replies, m_admitted;
    obs::CounterHandle m_drc_inflight_drops, m_drc_hits;
    obs::GaugeHandle m_queue_depth;
    obs::HistogramHandle m_queue_wait_ns, m_handle_ns;
  };

  static sim::Task<void> accept_loop(
      std::shared_ptr<net::Network::Listener> listener,
      std::shared_ptr<State> state);
  static sim::Task<void> serve_connection(
      sim::Engine& eng, std::shared_ptr<MsgTransport> transport,
      std::shared_ptr<State> state);
  static sim::Task<void> serve_one(sim::Engine& eng,
                                   std::shared_ptr<MsgTransport> transport,
                                   std::shared_ptr<State> state,
                                   BufChain msg);

  net::Host* host_;
  uint16_t port_;
  std::shared_ptr<net::Network::Listener> listener_;
  std::shared_ptr<State> state_;
  bool started_ = false;
};

}  // namespace sgfs::rpc

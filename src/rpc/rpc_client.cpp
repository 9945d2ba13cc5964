#include "rpc/rpc_client.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace sgfs::rpc {

namespace {

// Per-client xid base.  Each client gets its own slice of the 32-bit xid
// space so the server's duplicate-request cache key (peer host, xid, ...)
// cannot collide across two clients on the same host.  A plain counter
// keeps it deterministic run-to-run.
uint32_t client_xid_base() {
  static uint32_t count = 0;
  return ++count * 0x9e3779b9u | 1u;
}

// RAII scope guard: runs its function on every way out of a frame.
template <typename F>
class ScopeGuard {
 public:
  explicit ScopeGuard(F f) : f_(std::move(f)) {}
  ~ScopeGuard() { f_(); }
  ScopeGuard(const ScopeGuard&) = delete;
  ScopeGuard& operator=(const ScopeGuard&) = delete;

 private:
  F f_;
};

// Frame-local span recorder: fills in the end time and hands the span to
// the engine's tracer on every exit path (reply, timeout, stream death) —
// coroutine locals are destroyed whichever way the frame unwinds.
struct SpanRecorder {
  sim::Engine& eng;
  bool active;
  obs::RpcSpan span;

  explicit SpanRecorder(sim::Engine& e)
      : eng(e), active(e.tracer().enabled()) {}
  ~SpanRecorder() {
    if (!active) return;
    span.end = eng.now();
    eng.tracer().record(std::move(span));
  }
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;
};

}  // namespace

RpcClient::RpcClient(sim::Engine& eng,
                     std::unique_ptr<MsgTransport> transport, uint32_t prog,
                     uint32_t vers)
    : eng_(eng),
      transport_(std::move(transport)),
      state_(std::make_shared<State>()),
      prog_(prog),
      vers_(vers) {
  state_->next_xid = client_xid_base();
  auto& m = eng_.metrics();
  state_->m_calls = {m, "rpc.client.calls"};
  state_->m_bytes_sent = {m, "rpc.client.bytes_sent"};
  state_->m_timeouts = {m, "rpc.client.timeouts"};
  state_->m_giveups = {m, "rpc.client.giveups"};
  state_->m_retransmits = {m, "rpc.client.retransmits"};
  state_->m_suppressed_retransmits = {m, "rpc.client.suppressed_retransmits"};
  state_->m_call_ns = {m, "rpc.client.call_ns"};
  eng_.spawn(reader_loop(transport_, state_));
}

void RpcClient::close() {
  if (state_->closed) return;
  state_->closed = true;
  transport_->close();
  state_->fail_all();
}

sim::Task<void> RpcClient::reader_loop(
    std::shared_ptr<MsgTransport> transport, std::shared_ptr<State> state) {
  while (!state->closed) {
    BufChain msg;
    try {
      msg = co_await transport->recv();
    } catch (const std::exception&) {
      // EOF or tamper: remember why so callers get the real error (a MAC
      // failure must look different from an orderly close upstream).
      if (!state->broken) state->broken = std::current_exception();
      // Fire the disconnect hook exactly once, and only for a genuine
      // broken connection (an orderly local close() sets `closed` first
      // and must not look like a peer failure).
      if (!state->closed && state->on_broken) {
        auto cb = std::move(state->on_broken);
        state->on_broken = nullptr;
        cb();
      }
      break;
    }
    ReplyMsg reply;
    try {
      reply = ReplyMsg::deserialize(msg);
    } catch (const std::exception& e) {
      SGFS_WARN("rpc", "dropping malformed reply: ", e.what());
      continue;
    }
    auto it = state->pending.find(reply.xid);
    if (it == state->pending.end()) {
      SGFS_WARN("rpc", "reply for unknown xid ", reply.xid);
      continue;
    }
    Pending* p = it->second;
    state->pending.erase(it);
    p->reply = std::move(reply);
    p->done.set();
  }
  state->closed = true;
  state->fail_all();
}

sim::Task<BufChain> RpcClient::call(uint32_t proc, BufChain args) {
  co_return co_await call_with_xid(state_->next_xid++, proc,
                                   std::move(args));
}

sim::Task<BufChain> RpcClient::call_with_xid(uint32_t xid, uint32_t proc,
                                             BufChain args) {
  // Local copies: the client object may be destroyed while this coroutine
  // is suspended (proxy teardown during recovery); everything used after
  // the first co_await must be owned by the frame.
  auto state = state_;
  auto transport = transport_;
  sim::Engine& eng = eng_;
  const RetryPolicy retry = retry_;

  if (state->closed) {
    if (state->broken) std::rethrow_exception(state->broken);
    throw net::StreamClosed();
  }
  if (state->pending.count(xid)) {
    throw RpcError(AcceptStat::kSystemErr, "xid already in flight");
  }
  // The serialized chain outlives the first send: retransmissions resend
  // the identical bytes, so only the descriptor vector is duplicated.
  const BufChain wire = CallMsg::serialize(xid, prog_, vers_, proc, cred_,
                                           OpaqueAuth::none(),
                                           std::move(args));

  Pending pending(eng);
  state->pending.emplace(xid, &pending);
  ++state->calls_sent;
  if (state->budget) state->budget->deposit();

  state->m_calls.inc();
  const sim::SimTime t0 = eng.now();
  SpanRecorder span_rec(eng);
  span_rec.span.side = "client";
  span_rec.span.prog = prog_;
  span_rec.span.vers = vers_;
  span_rec.span.proc = proc;
  span_rec.span.xid = xid;
  span_rec.span.start = t0;
  span_rec.span.bytes_out = wire.size();
  span_rec.span.status = "error";
  if (span_rec.active) span_rec.span.peer = transport->peer_host();

  // On every way out (reply, give-up, fail_all, a throwing send): cancel
  // the timer still queued, and erase the map entry while it is still ours
  // — the reader erased it if a reply landed, fail_all may have cleared it,
  // and after xid wraparound the slot could belong to a newer call.
  ScopeGuard guard([&eng, &state, &pending, xid] {
    if (pending.timer != nullptr) eng.cancel(pending.timer);
    if (pending.reply) return;
    auto it = state->pending.find(xid);
    if (it != state->pending.end() && it->second == &pending) {
      state->pending.erase(it);
    }
  });

  sim::SimDur timeout = retry.initial_timeout;
  bool send_this_attempt = true;
  for (int attempt = 0;; ++attempt) {
    if (retry.enabled()) {
      // Retransmission timer.  An attempt ends by its timer firing or by
      // leaving the loop, which cancels it, so only the live attempt's
      // timer is ever queued.
      pending.timer = eng.call_at(eng.now() + timeout, [p = &pending] {
        p->timer = nullptr;
        p->done.set();
      });
    }
    if (send_this_attempt) {
      co_await transport->send(wire);
      state->m_bytes_sent.inc(wire.size());
    }
    co_await pending.done.wait();
    if (pending.reply) break;
    auto it = state->pending.find(xid);
    if (it == state->pending.end() || it->second != &pending) {
      // fail_all ran: close() or reader death.
      span_rec.span.status = "closed";
      if (state->broken) std::rethrow_exception(state->broken);
      throw net::StreamClosed();
    }
    // Timed out: retransmit with the same xid, or give up.
    if (attempt >= retry.max_retransmits) {
      ++state->timeouts;
      state->m_timeouts.inc();
      state->m_giveups.inc();
      span_rec.span.status = "timeout";
      throw RpcTimeout(attempt);
    }
    // A denied retry-budget withdrawal suppresses the wire send but still
    // consumes the attempt: the timer re-arms with the backed-off timeout,
    // so a black-holed call terminates at the same virtual time whether or
    // not the budget let its retransmissions out.
    send_this_attempt = !state->budget || state->budget->try_withdraw();
    if (send_this_attempt) {
      ++state->retransmits;
      state->m_retransmits.inc();
      ++span_rec.span.retransmits;
    } else {
      state->m_suppressed_retransmits.inc();
    }
    pending.done.reset();
    timeout = std::min(
        static_cast<sim::SimDur>(static_cast<double>(timeout) * retry.backoff),
        retry.max_timeout);
  }
  ReplyMsg& reply = *pending.reply;
  span_rec.span.bytes_in = reply.results.size();
  span_rec.span.status = "ok";
  state->m_call_ns.observe(eng.now() - t0);
  if (reply.stat == ReplyStat::kDenied) {
    span_rec.span.status = "denied";
    throw RpcAuthError(reply.auth_stat);
  }
  if (reply.accept_stat != AcceptStat::kSuccess) {
    span_rec.span.status = "rpc_error";
  }
  switch (reply.accept_stat) {
    case AcceptStat::kSuccess:
      co_return std::move(reply.results);
    case AcceptStat::kProgUnavail:
      throw RpcError(reply.accept_stat, "program unavailable");
    case AcceptStat::kProgMismatch:
      throw RpcError(reply.accept_stat, "program version mismatch");
    case AcceptStat::kProcUnavail:
      throw RpcError(reply.accept_stat, "procedure unavailable");
    case AcceptStat::kGarbageArgs:
      throw RpcError(reply.accept_stat, "garbage arguments");
    case AcceptStat::kSystemErr:
      throw RpcError(reply.accept_stat, "server system error");
  }
  throw RpcError(reply.accept_stat, "unknown accept status");
}

sim::Task<std::unique_ptr<RpcClient>> clnt_create(net::Host& from,
                                                  const net::Address& to,
                                                  uint32_t prog,
                                                  uint32_t vers) {
  net::StreamPtr stream = co_await from.network().connect(from, to);
  co_return std::make_unique<RpcClient>(
      from.engine(), std::make_unique<StreamTransport>(std::move(stream)),
      prog, vers);
}

sim::Task<std::unique_ptr<RpcClient>> clnt_ssl_create(
    net::Host& from, const net::Address& to, uint32_t prog, uint32_t vers,
    const crypto::SecurityConfig& security, Rng& rng, int64_t now_epoch) {
  net::StreamPtr stream = co_await from.network().connect(from, to);
  auto channel = co_await crypto::SecureChannel::connect(
      std::move(stream), security, rng, now_epoch);
  co_return std::make_unique<RpcClient>(
      from.engine(), std::make_unique<SecureTransport>(std::move(channel)),
      prog, vers);
}

sim::Task<std::unique_ptr<RpcClient>> clnt_ssl_resume(
    net::Host& from, const net::Address& to, uint32_t prog, uint32_t vers,
    const crypto::SecurityConfig& security, Rng& rng, int64_t now_epoch,
    const crypto::ResumptionTicket& ticket, uint32_t stream_index) {
  net::StreamPtr stream = co_await from.network().connect(from, to);
  auto channel = co_await crypto::SecureChannel::connect_resumed(
      std::move(stream), security, rng, now_epoch, ticket, stream_index);
  co_return std::make_unique<RpcClient>(
      from.engine(), std::make_unique<SecureTransport>(std::move(channel)),
      prog, vers);
}

}  // namespace sgfs::rpc

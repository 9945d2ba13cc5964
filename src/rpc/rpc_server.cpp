#include "rpc/rpc_server.hpp"

#include "common/log.hpp"

namespace sgfs::rpc {

size_t RpcServer::DrcKeyHash::operator()(const DrcKey& k) const {
  size_t h = std::hash<std::string>()(k.peer);
  for (uint32_t v : {k.xid, k.prog, k.vers, k.proc}) {
    h = (h ^ v) * 0x100000001b3ull;  // FNV-1a step per field
  }
  return h;
}

RpcServer::RpcServer(net::Host& host, uint16_t port)
    : host_(&host),
      port_(port),
      listener_(host.network().listen(host, port)),
      state_(std::make_shared<State>()) {
  // The DRC is volatile: a real server reboot loses it, so retransmissions
  // of pre-crash calls re-execute (this is why NFSv3 needs write verifiers).
  // Gated on state_: the handler dies with the server, no deregistration.
  host.add_crash_handler(state_, [state = state_.get()]() {
    state->drc.clear();
    state->drc_done.clear();
    ++state->epoch;
  });
  auto& m = host.engine().metrics();
  state_->m_connections = {m, "rpc.server.connections"};
  state_->m_malformed = {m, "rpc.server.malformed"};
  state_->m_calls = {m, "rpc.server.calls"};
  state_->m_shed = {m, "rpc.server.shed"};
  state_->m_jukebox_replies = {m, "rpc.server.jukebox_replies"};
  state_->m_admitted = {m, "rpc.server.admitted"};
  state_->m_drc_inflight_drops = {m, "rpc.server.drc.inflight_drops"};
  state_->m_drc_hits = {m, "rpc.server.drc.hits"};
  state_->m_queue_depth = {m, "rpc.server.queue_depth"};
  state_->m_queue_wait_ns = {m, "rpc.server.queue_wait_ns"};
  state_->m_handle_ns = {m, "rpc.server.handle_ns"};
}

RpcServer::RpcServer(net::Host& host, uint16_t port,
                     crypto::SecurityConfig security, Rng rng,
                     int64_t now_epoch)
    : RpcServer(host, port) {
  state_->security = std::move(security);
  state_->rng = rng;
  state_->now_epoch = now_epoch;
}

RpcServer::~RpcServer() { stop(); }

void RpcServer::register_program(uint32_t prog, uint32_t vers,
                                 std::shared_ptr<RpcProgram> program) {
  state_->programs[{prog, vers}] = std::move(program);
}

void RpcServer::start() {
  if (started_) return;
  started_ = true;
  host_->engine().spawn(accept_loop(listener_, state_));
}

void RpcServer::stop() {
  if (!state_->stopped) {
    state_->stopped = true;
    listener_->close();
  }
}

sim::Task<void> RpcServer::accept_loop(
    std::shared_ptr<net::Network::Listener> listener,
    std::shared_ptr<State> state) {
  for (;;) {
    net::StreamPtr stream = co_await listener->accept();
    if (!stream || state->stopped) co_return;
    sim::Engine& eng = stream->local_host().engine();
    state->m_connections.inc();
    if (state->security) {
      // Complete the SSL handshake before serving; reject on failure.
      eng.spawn([](net::StreamPtr s, std::shared_ptr<State> st)
                    -> sim::Task<void> {
        std::unique_ptr<crypto::SecureChannel> channel;
        try {
          channel = co_await crypto::SecureChannel::accept(
              s, *st->security, st->rng,
              st->now_epoch);
        } catch (const std::exception& e) {
          SGFS_INFO("rpc", "secure handshake rejected: ", e.what());
          co_return;
        }
        co_await serve_connection(
            s->local_host().engine(),
            std::make_shared<SecureTransport>(std::move(channel)), st);
      }(std::move(stream), state));
    } else {
      eng.spawn(serve_connection(
          eng, std::make_shared<StreamTransport>(std::move(stream)), state));
    }
  }
}

sim::Task<void> RpcServer::serve_connection(
    sim::Engine& eng, std::shared_ptr<MsgTransport> transport,
    std::shared_ptr<State> state) {
  while (!state->stopped) {
    BufChain msg;
    try {
      msg = co_await transport->recv();
    } catch (const std::exception&) {
      // Connection closed (or the secure channel failed).  Close our side
      // too so a peer blocked on this transport sees EOF promptly and can
      // re-establish instead of retransmitting into a dead session.
      transport->close();
      co_return;
    }
    // Each call runs in its own task so slow handlers do not block the
    // connection (clients match replies by xid).
    eng.spawn(serve_one(eng, transport, state, std::move(msg)));
  }
}

sim::Task<void> RpcServer::serve_one(sim::Engine& eng,
                                     std::shared_ptr<MsgTransport> transport,
                                     std::shared_ptr<State> state,
                                     BufChain msg) {
  const sim::SimTime t0 = eng.now();
  CallMsg call;
  try {
    call = CallMsg::deserialize(msg);
  } catch (const std::exception& e) {
    SGFS_WARN("rpc", "malformed call dropped: ", e.what());
    state->m_malformed.inc();
    co_return;
  }
  state->m_calls.inc();
  const uint64_t epoch0 = state->epoch;
  const DrcKey key(transport->peer_host(), call);

  obs::RpcSpan span;
  const bool tracing = eng.tracer().enabled();
  if (tracing) {
    span.side = "server";
    span.peer = key.peer;
    span.prog = call.prog;
    span.vers = call.vers;
    span.proc = call.proc;
    span.xid = call.xid;
    span.start = t0;
    span.bytes_in = msg.size();
  }

  // Admission gate (before the DRC so shed calls leave no in-progress
  // marker): bounded concurrency with a bounded FIFO queue in front.  At
  // capacity the call is shed — dropped, or answered with the program's
  // "try later" reply when busy_replies is on — instead of queueing
  // unboundedly until every queued call's client has already given up.
  struct SlotRelease {
    sim::Engine* eng = nullptr;
    State* st = nullptr;
    bool held = false;

    SlotRelease() = default;
    SlotRelease(const SlotRelease&) = delete;
    SlotRelease& operator=(const SlotRelease&) = delete;
    ~SlotRelease() {
      if (!held) return;
      --st->active_calls;
      if (!st->admit_waiters.empty()) {
        eng->schedule_now(st->admit_waiters.front());
        st->admit_waiters.pop_front();
      }
    }
  };
  SlotRelease slot;
  if (state->admission.enabled()) {
    if (state->active_calls >= state->admission.max_concurrency &&
        state->admit_waiters.size() >= state->admission.max_queue) {
      ++state->shed;
      state->m_shed.inc();
      BufChain busy;
      if (state->admission.busy_replies) {
        auto prog = state->programs.find({call.prog, call.vers});
        if (prog != state->programs.end()) {
          CallContext bctx;
          bctx.xid = call.xid;
          bctx.prog = call.prog;
          bctx.vers = call.vers;
          bctx.proc = call.proc;
          bctx.peer_host = key.peer;
          if (auto body = prog->second->busy_reply(bctx);
              body && !body->empty()) {
            busy = ReplyMsg::success(call.xid, std::move(*body)).serialize();
          }
        }
      }
      if (tracing) {
        span.end = eng.now();
        span.status = busy.empty() ? "shed" : "shed_busy";
        span.bytes_out = busy.size();
        eng.tracer().record(std::move(span));
      }
      if (!busy.empty()) {
        ++state->busy_replies;
        state->m_jukebox_replies.inc();
        try {
          co_await transport->send(busy);
        } catch (const std::exception&) {
          // Peer went away; nothing to do.
        }
      }
      co_return;
    }
    if (state->active_calls >= state->admission.max_concurrency) {
      // Park FIFO for a slot; a released slot may be stolen by a new
      // arrival that ran first, so re-check on wake (SimMutex semantics).
      struct AdmitWaiter {
        State& st;
        bool await_ready() const noexcept { return false; }
        void await_suspend(std::coroutine_handle<> h) {
          st.admit_waiters.push_back(h);
        }
        void await_resume() const noexcept {}
      };
      const sim::SimTime q0 = eng.now();
      while (state->active_calls >= state->admission.max_concurrency) {
        state->m_queue_depth.set(
            static_cast<int64_t>(state->admit_waiters.size() + 1));
        co_await AdmitWaiter{*state};
      }
      state->m_queue_wait_ns.observe(eng.now() - q0);
    }
    ++state->active_calls;
    state->m_admitted.inc();
    slot.eng = &eng;
    slot.st = state.get();
    slot.held = true;
  }

  // Duplicate-request cache lookup: a retransmission (same peer, xid and
  // procedure) must not re-execute a non-idempotent handler.  A miss leaves
  // an in-progress marker.
  const auto [dup, fresh] = state->drc.try_emplace(key);
  if (!fresh) {
    if (!dup->second.done) {
      // Original call still executing: drop, the client will retry.
      ++state->drc_inflight_drops;
      state->m_drc_inflight_drops.inc();
      if (tracing) {
        span.end = eng.now();
        span.status = "drc_inflight_drop";
        eng.tracer().record(std::move(span));
      }
      co_return;
    }
    ++state->drc_hits;
    state->m_drc_hits.inc();
    if (tracing) {
      span.end = eng.now();
      span.cache_hit = true;
      span.bytes_out = dup->second.reply.size();
      eng.tracer().record(std::move(span));
    }
    try {
      co_await transport->send(dup->second.reply);
    } catch (const std::exception&) {
      // Peer went away; nothing to do.
    }
    co_return;
  }

  ReplyMsg reply;
  CallContext ctx;
  ctx.xid = call.xid;
  ctx.prog = call.prog;
  ctx.vers = call.vers;
  ctx.proc = call.proc;
  ctx.peer_identity = transport->peer_identity();
  ctx.peer_host = key.peer;
  auto it = state->programs.find({call.prog, call.vers});
  if (it == state->programs.end()) {
    // Distinguish unknown program from wrong version.
    bool prog_known = false;
    for (const auto& [key, prog] : state->programs) {
      if (key.first == call.prog) prog_known = true;
    }
    reply = ReplyMsg::error(
        call.xid,
        prog_known ? AcceptStat::kProgMismatch : AcceptStat::kProgUnavail);
  } else {
    bool bad_cred = false;
    if (call.cred.flavor == AuthFlavor::kSys) {
      try {
        ctx.auth_sys = AuthSys::deserialize(call.cred.body);
      } catch (const std::exception&) {
        bad_cred = true;
      }
    }
    if (bad_cred) {
      reply = ReplyMsg::auth_error(call.xid, AuthStat::kBadCred);
    } else {
      try {
        BufChain results = co_await it->second->handle(ctx, call.args);
        reply = ReplyMsg::success(call.xid, std::move(results));
      } catch (const RpcAuthError& e) {
        reply = ReplyMsg::auth_error(call.xid, e.stat());
      } catch (const RpcError& e) {
        reply = ReplyMsg::error(call.xid, e.stat());
      } catch (const xdr::XdrError&) {
        reply = ReplyMsg::error(call.xid, AcceptStat::kGarbageArgs);
      } catch (const net::StreamClosed&) {
        // Upstream connection went away mid-call (e.g. session teardown).
        reply = ReplyMsg::error(call.xid, AcceptStat::kSystemErr);
      } catch (const std::exception& e) {
        SGFS_WARN("rpc", "handler error: ", e.what());
        reply = ReplyMsg::error(call.xid, AcceptStat::kSystemErr);
      }
    }
  }
  // A crash hit mid-call: the process that accepted this call is gone.  Its
  // reply must neither be sent nor pollute the restarted instance's DRC
  // (the crash handler already wiped our in-progress marker).
  if (state->epoch != epoch0) co_return;
  ++state->served;
  BufChain wire = reply.serialize();
  state->m_handle_ns.observe(eng.now() - t0);
  if (tracing) {
    span.end = eng.now();
    span.bytes_out = wire.size();
    eng.tracer().record(std::move(span));
  }

  // Resolve the in-progress DRC entry BEFORE sending: if the reply is lost
  // in flight, the retransmission must find the cached copy.
  auto self = state->drc.find(key);
  const bool cache = it != state->programs.end() &&
                     it->second->cache_reply(ctx);
  if (self != state->drc.end()) {
    if (cache) {
      self->second.done = true;
      self->second.reply = wire;
      state->drc_done.push_back(key);
      while (state->drc_done.size() > state->drc_capacity) {
        state->drc.erase(state->drc_done.front());
        state->drc_done.pop_front();
      }
    } else {
      state->drc.erase(self);
    }
  }

  try {
    co_await transport->send(wire);
  } catch (const std::exception&) {
    // Peer went away; nothing to do.
  }
}

}  // namespace sgfs::rpc

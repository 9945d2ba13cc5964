#include <gtest/gtest.h>

#include <thread>

#include "net/fault.hpp"
#include "rpc/rpc_client.hpp"
#include "rpc/rpc_server.hpp"
#include "sim/channel.hpp"

namespace sgfs::rpc {
namespace {

using namespace sgfs::sim::literals;
using sim::Engine;
using sim::Task;

constexpr uint32_t kProg = 100099;
constexpr uint32_t kVers = 3;

// --- wire-format unit tests -------------------------------------------------

TEST(RpcMsg, AuthSysRoundTrip) {
  AuthSys a(501, 100, "compute1");
  a.stamp = 7;
  a.gids = {100, 200};
  AuthSys b = AuthSys::deserialize(a.serialize());
  EXPECT_EQ(a, b);
}

TEST(RpcMsg, AuthSysRejectsTooManyGroups) {
  xdr::Encoder enc;
  enc.put_u32(0);
  enc.put_string("m");
  enc.put_u32(0);
  enc.put_u32(0);
  enc.put_u32(17);  // > 16 groups
  for (int i = 0; i < 17; ++i) enc.put_u32(i);
  EXPECT_THROW(AuthSys::deserialize(enc.data()), std::runtime_error);
}

TEST(RpcMsg, CallRoundTrip) {
  CallMsg c;
  c.xid = 42;
  c.prog = kProg;
  c.vers = kVers;
  c.proc = 6;
  c.cred = OpaqueAuth::sys(AuthSys(1000, 1000));
  c.args = to_bytes("argument bytes");
  CallMsg d = CallMsg::deserialize(c.serialize());
  EXPECT_EQ(d.xid, 42u);
  EXPECT_EQ(d.prog, kProg);
  EXPECT_EQ(d.vers, kVers);
  EXPECT_EQ(d.proc, 6u);
  EXPECT_EQ(d.cred, c.cred);
  EXPECT_EQ(d.args, c.args);
}

TEST(RpcMsg, ReplySuccessRoundTrip) {
  ReplyMsg r = ReplyMsg::success(7, to_bytes("result"));
  ReplyMsg d = ReplyMsg::deserialize(r.serialize());
  EXPECT_EQ(d.xid, 7u);
  EXPECT_EQ(d.stat, ReplyStat::kAccepted);
  EXPECT_EQ(d.accept_stat, AcceptStat::kSuccess);
  EXPECT_EQ(sgfs::to_string(d.results), "result");
}

TEST(RpcMsg, ReplyErrorRoundTrip) {
  for (auto stat : {AcceptStat::kProgUnavail, AcceptStat::kProcUnavail,
                    AcceptStat::kGarbageArgs, AcceptStat::kSystemErr}) {
    ReplyMsg d = ReplyMsg::deserialize(ReplyMsg::error(9, stat).serialize());
    EXPECT_EQ(d.accept_stat, stat);
  }
}

TEST(RpcMsg, ReplyAuthErrorRoundTrip) {
  ReplyMsg d = ReplyMsg::deserialize(
      ReplyMsg::auth_error(3, AuthStat::kTooWeak).serialize());
  EXPECT_EQ(d.stat, ReplyStat::kDenied);
  EXPECT_EQ(d.auth_stat, AuthStat::kTooWeak);
}

TEST(RpcMsg, PeekType) {
  CallMsg c;
  c.xid = 1;
  EXPECT_EQ(peek_type(c.serialize()), MsgType::kCall);
  EXPECT_EQ(peek_type(ReplyMsg::success(1, {}).serialize()), MsgType::kReply);
}

TEST(RpcMsg, DeserializeCallRejectsReply) {
  EXPECT_THROW(CallMsg::deserialize(ReplyMsg::success(1, {}).serialize()),
               std::runtime_error);
}

// --- end-to-end client/server tests ------------------------------------------

// Echo program: proc 1 echoes args; proc 2 returns uid as u32; proc 3
// requires auth; proc 4 sleeps; proc 5 throws.
class EchoProgram : public RpcProgram {
 public:
  sim::Task<BufChain> handle(const CallContext& ctx,
                             BufChain args) override {
    switch (ctx.proc) {
      case 1:
        co_return std::move(args);  // echo: the reply shares the args' store
      case 2: {
        xdr::Encoder enc;
        enc.put_u32(ctx.auth_sys ? ctx.auth_sys->uid : 0xffffffffu);
        co_return enc.take();
      }
      case 3:
        if (!ctx.auth_sys) throw RpcAuthError(AuthStat::kTooWeak);
        co_return BufChain{};
      case 5:
        throw std::runtime_error("handler exploded");
      default:
        throw RpcError(AcceptStat::kProcUnavail, "no such proc");
    }
  }
};

struct Fixture {
  Engine eng;
  net::Network net{eng};
  net::Host* client_host;
  net::Host* server_host;
  std::unique_ptr<RpcServer> server;

  Fixture() {
    client_host = &net.add_host("client");
    server_host = &net.add_host("server");
    server = std::make_unique<RpcServer>(*server_host, 2049);
    server->register_program(kProg, kVers, std::make_shared<EchoProgram>());
    server->start();
  }
};

TEST(Rpc, EchoCall) {
  Fixture f;
  std::string got;
  f.eng.run_task([](Fixture& f, std::string* out) -> Task<void> {
    net::Address addr("server", 2049);
    auto client = co_await clnt_create(*f.client_host, addr, kProg, kVers);
    BufChain r = co_await client->call(1, to_bytes("ping"));
    *out = sgfs::to_string(r);
  }(f, &got));
  EXPECT_EQ(got, "ping");
  EXPECT_EQ(f.server->calls_served(), 1u);
}

TEST(Rpc, AuthSysCredentialsDelivered) {
  Fixture f;
  uint32_t uid = 0;
  f.eng.run_task([](Fixture& f, uint32_t* out) -> Task<void> {
    net::Address addr("server", 2049);
    auto client = co_await clnt_create(*f.client_host, addr, kProg, kVers);
    client->set_auth(AuthSys(501, 100, "compute1"));
    BufChain r = co_await client->call(2, {});
    xdr::Decoder dec(r);
    *out = dec.get_u32();
  }(f, &uid));
  EXPECT_EQ(uid, 501u);
}

TEST(Rpc, MissingAuthDenied) {
  Fixture f;
  bool denied = false;
  f.eng.run_task([](Fixture& f, bool* out) -> Task<void> {
    net::Address addr("server", 2049);
    auto client = co_await clnt_create(*f.client_host, addr, kProg, kVers);
    try {
      co_await client->call(3, {});
    } catch (const RpcAuthError& e) {
      *out = e.stat() == AuthStat::kTooWeak;
    }
  }(f, &denied));
  EXPECT_TRUE(denied);
}

TEST(Rpc, ProcUnavail) {
  Fixture f;
  bool thrown = false;
  f.eng.run_task([](Fixture& f, bool* out) -> Task<void> {
    net::Address addr("server", 2049);
    auto client = co_await clnt_create(*f.client_host, addr, kProg, kVers);
    try {
      co_await client->call(99, {});
    } catch (const RpcError& e) {
      *out = e.stat() == AcceptStat::kProcUnavail;
    }
  }(f, &thrown));
  EXPECT_TRUE(thrown);
}

TEST(Rpc, ProgUnavailAndMismatch) {
  Fixture f;
  int result = 0;
  f.eng.run_task([](Fixture& f, int* out) -> Task<void> {
    net::Address addr("server", 2049);
    auto c1 = co_await clnt_create(*f.client_host, addr, 999999, 1);
    try {
      co_await c1->call(1, {});
    } catch (const RpcError& e) {
      if (e.stat() == AcceptStat::kProgUnavail) *out += 1;
    }
    auto c2 = co_await clnt_create(*f.client_host, addr, kProg, kVers + 1);
    try {
      co_await c2->call(1, {});
    } catch (const RpcError& e) {
      if (e.stat() == AcceptStat::kProgMismatch) *out += 2;
    }
  }(f, &result));
  EXPECT_EQ(result, 3);
}

TEST(Rpc, HandlerExceptionBecomesSystemErr) {
  Fixture f;
  bool got = false;
  f.eng.run_task([](Fixture& f, bool* out) -> Task<void> {
    net::Address addr("server", 2049);
    auto client = co_await clnt_create(*f.client_host, addr, kProg, kVers);
    try {
      co_await client->call(5, {});
    } catch (const RpcError& e) {
      *out = e.stat() == AcceptStat::kSystemErr;
    }
  }(f, &got));
  EXPECT_TRUE(got);
}

TEST(Rpc, ConcurrentCallsMatchedByXid) {
  Fixture f;
  std::vector<std::string> replies(10);
  f.eng.run_task([](Fixture& f, std::vector<std::string>* out) -> Task<void> {
    net::Address addr("server", 2049);
    auto client = co_await clnt_create(*f.client_host, addr, kProg, kVers);
    // Issue 10 echo calls concurrently (async RPC, SFS-style).
    sim::SimEvent all_done(f.eng);
    int remaining = 10;
    for (int i = 0; i < 10; ++i) {
      f.eng.spawn([](RpcClient& c, std::vector<std::string>* out, int i,
                     int* remaining, sim::SimEvent* done) -> Task<void> {
        BufChain r =
            co_await c.call(1, to_bytes("msg" + std::to_string(i)));
        (*out)[i] = sgfs::to_string(r);
        if (--*remaining == 0) done->set();
      }(*client, out, i, &remaining, &all_done));
    }
    co_await all_done.wait();
  }(f, &replies));
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(replies[i], "msg" + std::to_string(i));
  }
}

TEST(Rpc, LargeMessageFragmentation) {
  Fixture f;
  bool equal = false;
  f.eng.run_task([](Fixture& f, bool* out) -> Task<void> {
    net::Address addr("server", 2049);
    auto client = co_await clnt_create(*f.client_host, addr, kProg, kVers);
    Rng rng(55);
    Buffer big = rng.bytes(3 * 1024 * 1024);  // > 1 MiB fragment size
    BufChain r = co_await client->call(1, big);
    *out = (r == big);
  }(f, &equal));
  EXPECT_TRUE(equal);
}

TEST(Rpc, ServerStopUnblocksClients) {
  Fixture f;
  bool failed = false;
  f.eng.spawn([](Fixture& f) -> Task<void> {
    co_await f.eng.sleep(50_ms);
    f.server->stop();
  }(f));
  f.eng.run_task([](Fixture& f, bool* out) -> Task<void> {
    co_await f.eng.sleep(60_ms);
    try {
      net::Address addr("server", 2049);
      auto client = co_await clnt_create(*f.client_host, addr, kProg, kVers);
      co_await client->call(1, to_bytes("x"));
    } catch (const std::exception&) {
      *out = true;
    }
  }(f, &failed));
  EXPECT_TRUE(failed);
}

// --- failure paths: send errors, malformed replies, close races ---------------

// Scripted transport test double: outbound messages are recorded; inbound
// messages are fed by the test through a channel.
class ScriptedTransport final : public MsgTransport {
 public:
  explicit ScriptedTransport(sim::Engine& eng) : inbound(eng) {}

  sim::Task<void> send(BufChain message) override {
    if (fail_sends) throw std::runtime_error("injected send failure");
    sent.push_back(std::move(message));
    co_return;
  }
  sim::Task<BufChain> recv() override {
    auto msg = co_await inbound.recv();
    if (!msg) throw net::StreamClosed();
    co_return std::move(*msg);
  }
  void close() override { inbound.close(); }
  std::string peer_host() const override { return "peer"; }

  sim::Channel<BufChain> inbound;
  std::vector<BufChain> sent;
  bool fail_sends = false;
};

TEST(Rpc, SendFailureLeavesPendingEmpty) {
  Engine eng;
  auto transport = std::make_unique<ScriptedTransport>(eng);
  auto* t = transport.get();
  RpcClient client(eng, std::move(transport), kProg, kVers);
  t->fail_sends = true;
  bool threw = false;
  eng.run_task([](RpcClient& c, bool* out) -> Task<void> {
    try {
      co_await c.call(1, to_bytes("x"));
    } catch (const std::runtime_error&) {
      *out = true;
    }
  }(client, &threw));
  EXPECT_TRUE(threw);
  EXPECT_EQ(client.pending_calls(), 0u);

  // The client survives the send failure: once the transport recovers, a
  // new call goes through.
  t->fail_sends = false;
  std::string got;
  eng.run_task([](Engine& eng, RpcClient& c, ScriptedTransport& t,
                  std::string* out) -> Task<void> {
    sim::SimEvent done(eng);
    eng.spawn([](RpcClient& c, std::string* out,
                 sim::SimEvent* done) -> Task<void> {
      BufChain r = co_await c.call(1, to_bytes("ping"));
      *out = sgfs::to_string(r);
      done->set();
    }(c, out, &done));
    co_await eng.sleep(1_ms);
    CallMsg call = CallMsg::deserialize(t.sent.back());
    t.inbound.send(ReplyMsg::success(call.xid, to_bytes("pong")).serialize());
    co_await done.wait();
  }(eng, client, *t, &got));
  EXPECT_EQ(got, "pong");
}

TEST(Rpc, MalformedReplyDroppedWithoutKillingOtherCalls) {
  Engine eng;
  auto transport = std::make_unique<ScriptedTransport>(eng);
  auto* t = transport.get();
  RpcClient client(eng, std::move(transport), kProg, kVers);
  std::string got;
  eng.run_task([](Engine& eng, RpcClient& c, ScriptedTransport& t,
                  std::string* out) -> Task<void> {
    sim::SimEvent done(eng);
    eng.spawn([](RpcClient& c, std::string* out,
                 sim::SimEvent* done) -> Task<void> {
      BufChain r = co_await c.call(1, to_bytes("ping"));
      *out = sgfs::to_string(r);
      done->set();
    }(c, out, &done));
    co_await eng.sleep(1_ms);
    t.inbound.send(Buffer{0x01, 0x02, 0x03});  // not a ReplyMsg
    co_await eng.sleep(1_ms);
    CallMsg call = CallMsg::deserialize(t.sent.back());
    t.inbound.send(ReplyMsg::success(call.xid, to_bytes("pong")).serialize());
    co_await done.wait();
  }(eng, client, *t, &got));
  EXPECT_EQ(got, "pong");
  EXPECT_EQ(client.pending_calls(), 0u);
}

TEST(Rpc, ReplyForUnknownXidIgnored) {
  Engine eng;
  auto transport = std::make_unique<ScriptedTransport>(eng);
  auto* t = transport.get();
  RpcClient client(eng, std::move(transport), kProg, kVers);
  std::string got;
  eng.run_task([](Engine& eng, RpcClient& c, ScriptedTransport& t,
                  std::string* out) -> Task<void> {
    sim::SimEvent done(eng);
    eng.spawn([](RpcClient& c, std::string* out,
                 sim::SimEvent* done) -> Task<void> {
      BufChain r = co_await c.call(1, to_bytes("ping"));
      *out = sgfs::to_string(r);
      done->set();
    }(c, out, &done));
    co_await eng.sleep(1_ms);
    CallMsg call = CallMsg::deserialize(t.sent.back());
    // A well-formed reply for an xid that was never issued.
    t.inbound.send(
        ReplyMsg::success(call.xid ^ 0x55555555u, to_bytes("stray"))
            .serialize());
    co_await eng.sleep(1_ms);
    t.inbound.send(ReplyMsg::success(call.xid, to_bytes("pong")).serialize());
    co_await done.wait();
  }(eng, client, *t, &got));
  EXPECT_EQ(got, "pong");
  EXPECT_EQ(client.pending_calls(), 0u);
}

TEST(Rpc, CloseIdempotentWithOutstandingCall) {
  Engine eng;
  auto transport = std::make_unique<ScriptedTransport>(eng);
  RpcClient client(eng, std::move(transport), kProg, kVers);
  bool failed = false;
  eng.run_task([](Engine& eng, RpcClient& c, bool* out) -> Task<void> {
    sim::SimEvent done(eng);
    eng.spawn([](RpcClient& c, bool* out, sim::SimEvent* done) -> Task<void> {
      try {
        co_await c.call(1, to_bytes("never answered"));
      } catch (const net::StreamClosed&) {
        *out = true;
      }
      done->set();
    }(c, out, &done));
    co_await eng.sleep(1_ms);
    c.close();
    c.close();  // second close must be a no-op
    co_await done.wait();
    c.close();  // and after the failure propagated, still a no-op
  }(eng, client, &failed));
  EXPECT_TRUE(failed);
  EXPECT_EQ(client.pending_calls(), 0u);
}

// --- retransmission + duplicate-request cache ---------------------------------

TEST(Rpc, RetransmissionRecoversFromLoss) {
  Fixture f;
  auto plan = std::make_shared<net::FaultPlan>(99);
  // Both the first send and the 1s retransmission fall into the blackout;
  // the second retransmission (t=3s) gets through.
  plan->add_link_blackout("client", "server", 0, 1500 * sim::kMillisecond);
  f.net.set_fault_plan(plan);
  std::string got;
  uint64_t retransmits = 0;
  f.eng.run_task([](Fixture& f, std::string* out,
                    uint64_t* rexmit) -> Task<void> {
    net::Address addr("server", 2049);
    auto client = co_await clnt_create(*f.client_host, addr, kProg, kVers);
    client->set_retry(RetryPolicy::standard());
    BufChain r = co_await client->call(1, to_bytes("are you there"));
    *out = sgfs::to_string(r);
    *rexmit = client->retransmits();
    client->close();
  }(f, &got, &retransmits));
  EXPECT_EQ(got, "are you there");
  EXPECT_GE(retransmits, 1u);
  EXPECT_GT(plan->blackout_drops(), 0u);
}

TEST(Rpc, AnsweredCallLeavesNoTimerQueued) {
  // The reply cancels the retransmission timer: the queue holds what it
  // held before the call, long before the timer would have fired.
  Fixture f;
  size_t before = 0, after = 0;
  f.eng.run_task([](Fixture& f, size_t* before,
                    size_t* after) -> Task<void> {
    net::Address addr("server", 2049);
    auto client = co_await clnt_create(*f.client_host, addr, kProg, kVers);
    client->set_retry(RetryPolicy::standard());
    co_await f.eng.sleep(1_ms);  // let the connection setup settle
    *before = f.eng.pending_events();
    BufChain r = co_await client->call(1, to_bytes("ping"));
    EXPECT_EQ(sgfs::to_string(r), "ping");
    EXPECT_LT(f.eng.now(), RetryPolicy::standard().initial_timeout);
    *after = f.eng.pending_events();
    client->close();
  }(f, &before, &after));
  EXPECT_EQ(after, before);
}

TEST(Rpc, GiveUpPolicyRaisesRpcTimeout) {
  Fixture f;
  auto plan = std::make_shared<net::FaultPlan>(100);
  plan->set_link_faults("client", "server", net::LinkFaults(1.0, 0.0));
  f.net.set_fault_plan(plan);
  bool timed_out = false;
  f.eng.run_task([](Fixture& f, bool* out) -> Task<void> {
    net::Address addr("server", 2049);
    auto client = co_await clnt_create(*f.client_host, addr, kProg, kVers);
    RetryPolicy retry = RetryPolicy::standard();
    retry.max_retransmits = 2;
    client->set_retry(retry);
    try {
      co_await client->call(1, to_bytes("void"));
    } catch (const RpcTimeout&) {
      *out = true;
    }
    client->close();
  }(f, &timed_out));
  EXPECT_TRUE(timed_out);
  // The give-up is visible as a counter, not only as the thrown error.
  EXPECT_EQ(f.eng.metrics().counter("rpc.client.giveups").value(), 1u);
  EXPECT_EQ(f.eng.metrics().counter("rpc.client.retransmits").value(), 2u);
}

TEST(Rpc, RetryPolicySanitizedClampsNonsense) {
  RetryPolicy p;
  p.initial_timeout = 10 * sim::kSecond;
  p.backoff = 0.5;                     // would shrink forever
  p.max_timeout = 2 * sim::kSecond;    // below the initial interval
  p.max_retransmits = -3;
  RetryPolicy s = p.sanitized();
  EXPECT_EQ(s.backoff, 2.0);
  EXPECT_EQ(s.max_timeout, s.initial_timeout);
  EXPECT_EQ(s.max_retransmits, 0);
  // A sane policy round-trips untouched.
  RetryPolicy std_policy = RetryPolicy::standard().sanitized();
  EXPECT_EQ(std_policy.initial_timeout, sim::kSecond);
  EXPECT_EQ(std_policy.backoff, 2.0);
  EXPECT_EQ(std_policy.max_retransmits, 8);
}

// Exact virtual-time schedule under the backoff cap: initial 10 s with a 4x
// multiplier would go 10, 40, 160, ... — the 20 s cap pins every interval
// from the second on, so 3 resends give up at exactly 10+20+20+20 = 70 s.
TEST(Rpc, RetryBackoffCapRespectedExactly) {
  Fixture f;
  auto plan = std::make_shared<net::FaultPlan>(101);
  plan->set_link_faults("client", "server", net::LinkFaults(1.0, 0.0));
  f.net.set_fault_plan(plan);
  sim::SimDur elapsed = 0;
  f.eng.run_task([](Fixture& f, sim::SimDur* out) -> Task<void> {
    net::Address addr("server", 2049);
    auto client = co_await clnt_create(*f.client_host, addr, kProg, kVers);
    RetryPolicy retry;
    retry.initial_timeout = 10 * sim::kSecond;
    retry.backoff = 4.0;
    retry.max_timeout = 20 * sim::kSecond;
    retry.max_retransmits = 3;
    client->set_retry(retry);
    const sim::SimTime t0 = f.eng.now();
    try {
      co_await client->call(1, to_bytes("void"));
    } catch (const RpcTimeout&) {
      *out = f.eng.now() - t0;
    }
    client->close();
  }(f, &elapsed));
  EXPECT_EQ(elapsed, 70 * sim::kSecond);
}

// set_retry sanitizes: a backoff multiplier below 1.0 becomes the default
// 2.0 instead of silently retransmitting on a shrinking interval forever.
// 1 s initial, 2 resends: give-up at exactly 1+2+4 = 7 s (a fixed-interval
// bug would give up at 3 s, an unclamped 0.5x one at 1.75 s).
TEST(Rpc, RetryBackoffBelowOneClampedByInstall) {
  Fixture f;
  auto plan = std::make_shared<net::FaultPlan>(102);
  plan->set_link_faults("client", "server", net::LinkFaults(1.0, 0.0));
  f.net.set_fault_plan(plan);
  sim::SimDur elapsed = 0;
  f.eng.run_task([](Fixture& f, sim::SimDur* out) -> Task<void> {
    net::Address addr("server", 2049);
    auto client = co_await clnt_create(*f.client_host, addr, kProg, kVers);
    RetryPolicy retry;
    retry.initial_timeout = sim::kSecond;
    retry.backoff = 0.5;
    retry.max_retransmits = 2;
    client->set_retry(retry);
    const sim::SimTime t0 = f.eng.now();
    try {
      co_await client->call(1, to_bytes("void"));
    } catch (const RpcTimeout&) {
      *out = f.eng.now() - t0;
    }
    client->close();
  }(f, &elapsed));
  EXPECT_EQ(elapsed, 7 * sim::kSecond);
}

// Counts executions; replies carry the execution ordinal, so a replayed
// reply is distinguishable from a re-execution.
class CountingProgram : public RpcProgram {
 public:
  sim::Task<BufChain> handle(const CallContext&, BufChain) override {
    xdr::Encoder enc;
    enc.put_u32(++count_);
    co_return enc.take();
  }
  bool cache_reply(const CallContext&) const override { return true; }
  uint32_t count() const { return count_; }

 private:
  uint32_t count_ = 0;
};

// A record fragment arrives as a slice of the delivery that carried it; a
// fragment split across deliveries is reassembled into one segment.
TEST(Rpc, StreamTransportReadsEachFragmentInOnePiece) {
  Engine eng;
  net::Network net(eng);
  net::Host& ch = net.add_host("client");
  net::Host& sh = net.add_host("server");
  auto listener = net.listen(sh, 9);
  std::vector<BufChain> got;
  eng.spawn([](net::Network::Listener& l,
               std::vector<BufChain>* out) -> Task<void> {
    net::StreamPtr s = co_await l.accept();
    StreamTransport t(std::move(s));
    for (int i = 0; i < 2; ++i) {
      BufChain message = co_await t.recv();
      out->push_back(std::move(message));
    }
  }(*listener, &got));
  eng.run_task([](net::Network& net, net::Host& h) -> Task<void> {
    net::StreamPtr s = co_await net.connect(h, net::Address("server", 9));
    Buffer split_head = {0x80, 0, 0, 6, 'a', 'b'};  // last fragment, 6 bytes
    Buffer split_tail = to_bytes("cdef");
    Buffer whole = {0x80, 0, 0, 6, 'g', 'h', 'i', 'j', 'k', 'l'};
    co_await s->write(std::move(split_head));
    co_await s->write(std::move(split_tail));
    co_await s->write(std::move(whole));
    s->close();
  }(net, ch));
  eng.run();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(to_string(got[0]), "abcdef");
  EXPECT_EQ(got[0].segments().size(), 1u);
  EXPECT_EQ(to_string(got[1]), "ghijkl");
  ASSERT_EQ(got[1].segments().size(), 1u);
  EXPECT_EQ(got[1].segments()[0].offset, 4u);  // behind the mark: a slice
}

TEST(Rpc, DuplicateRequestCacheReplaysReply) {
  Engine eng;
  net::Network net(eng);
  net::Host& ch = net.add_host("client");
  net::Host& sh = net.add_host("server");
  auto program = std::make_shared<CountingProgram>();
  RpcServer server(sh, 2049);
  server.register_program(kProg, kVers, program);
  server.start();
  BufChain first, second;
  eng.run_task([](net::Network& net, net::Host& chost, BufChain* r1,
                  BufChain* r2) -> Task<void> {
    net::StreamPtr s = co_await net.connect(chost, net::Address("server",
                                                                2049));
    StreamTransport t(std::move(s));
    CallMsg call;
    call.xid = 7777;
    call.prog = kProg;
    call.vers = kVers;
    call.proc = 1;
    const BufChain wire = call.serialize();
    co_await t.send(wire);
    *r1 = co_await t.recv();
    // Byte-identical retransmission: the server must replay the cached
    // reply, not run the handler a second time.
    co_await t.send(wire);
    *r2 = co_await t.recv();
    t.close();
  }(net, ch, &first, &second));
  EXPECT_EQ(first, second);
  EXPECT_EQ(program->count(), 1u);
  EXPECT_EQ(server.drc_hits(), 1u);
}

// The DRC evicts in publish order (FIFO by completion, untouched by hits):
// under eviction pressure the oldest replies fall out first, and a
// retransmission arriving after its entry was evicted re-executes — the
// documented at-most-once window.
TEST(Rpc, DrcEvictionOrderAndAtMostOnceWindow) {
  Engine eng;
  net::Network net(eng);
  net::Host& ch = net.add_host("client");
  net::Host& sh = net.add_host("server");
  auto program = std::make_shared<CountingProgram>();
  RpcServer server(sh, 2049);
  server.register_program(kProg, kVers, program);
  server.set_drc_capacity(2);
  server.start();
  eng.run_task([](net::Network& net, net::Host& chost) -> Task<void> {
    net::StreamPtr s =
        co_await net.connect(chost, net::Address("server", 2049));
    StreamTransport t(std::move(s));
    auto wire = [](uint32_t xid) {
      CallMsg c;
      c.xid = xid;
      c.prog = kProg;
      c.vers = kVers;
      c.proc = 1;
      return c.serialize();
    };
    for (uint32_t xid : {1u, 2u, 3u}) {  // publish order: 1, 2, 3
      co_await t.send(wire(xid));
      co_await t.recv();
    }
    // Capacity 2: publishing 3 evicted 1.  The survivors replay...
    co_await t.send(wire(3));
    co_await t.recv();
    co_await t.send(wire(2));
    co_await t.recv();
    // ...the evicted one re-executes (publishing it evicts 2, the oldest
    // survivor — hits do not refresh eviction order).
    co_await t.send(wire(1));
    co_await t.recv();
    co_await t.send(wire(2));
    co_await t.recv();
    t.close();
  }(net, ch));
  EXPECT_EQ(program->count(), 5u);   // 1,2,3 + re-executed 1 + re-executed 2
  EXPECT_EQ(server.drc_hits(), 2u);  // resent 3 and first resend of 2
}

// Handler that parks for a fixed simulated time (a slow disk behind the
// server), so admission-control slots stay occupied long enough to observe
// queueing and shedding deterministically.
class SlowCountingProgram : public RpcProgram {
 public:
  explicit SlowCountingProgram(sim::SimDur delay) : delay_(delay) {}
  sim::Task<BufChain> handle(const CallContext&, BufChain) override {
    co_await eng_->sleep(delay_);
    xdr::Encoder enc;
    enc.put_u32(++count_);
    co_return enc.take();
  }
  bool cache_reply(const CallContext&) const override { return true; }
  uint32_t count() const { return count_; }
  void bind(sim::Engine& eng) { eng_ = &eng; }

 private:
  sim::SimDur delay_;
  sim::Engine* eng_ = nullptr;
  uint32_t count_ = 0;
};

// Admission control: one slot, one queue entry.  Three simultaneous calls =
// one active, one queued, one shed (dropped).  The queued call runs after
// the active one releases its slot; a later retransmission of the shed call
// executes normally and is then deduplicated by the DRC — and once eviction
// pressure pushes its reply out, a further retransmission re-executes.
TEST(Rpc, AdmissionShedsQueuedCallsRunAndShedRetransmitDedupes) {
  Engine eng;
  net::Network net(eng);
  net::Host& ch = net.add_host("client");
  net::Host& sh = net.add_host("server");
  auto program = std::make_shared<SlowCountingProgram>(sim::kSecond);
  program->bind(eng);
  RpcServer server(sh, 2049);
  server.register_program(kProg, kVers, program);
  server.set_admission(AdmissionControl(1, 1, /*busy=*/false));
  server.set_drc_capacity(2);
  server.start();
  int replies_in_burst = 0;
  eng.run_task([](net::Network& net, net::Host& chost,
                  int* burst_replies) -> Task<void> {
    net::StreamPtr s =
        co_await net.connect(chost, net::Address("server", 2049));
    StreamTransport t(std::move(s));
    auto wire = [](uint32_t xid) {
      CallMsg c;
      c.xid = xid;
      c.prog = kProg;
      c.vers = kVers;
      c.proc = 1;
      return c.serialize();
    };
    // Burst of three: xid 1 takes the slot, 2 queues, 3 is shed silently.
    co_await t.send(wire(1));
    co_await t.send(wire(2));
    co_await t.send(wire(3));
    co_await t.recv();  // xid 1 after ~1 s
    co_await t.recv();  // xid 2 after ~2 s (ran only once 1 released)
    ++*burst_replies;
    ++*burst_replies;
    // Retransmission of the shed call finds a free server: it executes
    // (there was never an in-progress marker to confuse it with).
    co_await t.send(wire(3));
    co_await t.recv();
    // ...and a duplicate of that retransmission replays from the DRC.
    co_await t.send(wire(3));
    co_await t.recv();
    // Eviction pressure (capacity 2): two fresh publishes push xid 3 out;
    // the next retransmission of 3 re-executes (at-most-once window).
    co_await t.send(wire(4));
    co_await t.recv();
    co_await t.send(wire(5));
    co_await t.recv();
    co_await t.send(wire(3));
    co_await t.recv();
    t.close();
  }(net, ch, &replies_in_burst));
  EXPECT_EQ(replies_in_burst, 2);
  EXPECT_EQ(server.calls_shed(), 1u);
  EXPECT_EQ(program->count(), 6u);  // 1, 2, 3, 4, 5, re-executed 3
  EXPECT_EQ(server.drc_hits(), 1u);
  EXPECT_EQ(eng.metrics().counter("rpc.server.shed").value(), 1u);
  // Every non-shed call is admitted, including the DRC-hit duplicate.
  EXPECT_EQ(eng.metrics().counter("rpc.server.admitted").value(), 7u);
}

// With busy replies enabled, a shed call is answered immediately with the
// program's busy body instead of being dropped.
class BusyTagProgram : public CountingProgram {
 public:
  std::optional<BufChain> busy_reply(const CallContext&) const override {
    return BufChain(to_bytes("busy"));
  }
};

TEST(Rpc, AdmissionBusyReplyAnswersShedCalls) {
  Engine eng;
  net::Network net(eng);
  net::Host& ch = net.add_host("client");
  net::Host& sh = net.add_host("server");
  auto slow = std::make_shared<SlowCountingProgram>(sim::kSecond);
  slow->bind(eng);
  RpcServer server(sh, 2049);
  server.register_program(kProg, kVers, slow);
  server.set_admission(AdmissionControl(1, 0, /*busy=*/true));
  server.start();
  // A second program whose busy_reply is defined lives at vers+1.
  auto busy_prog = std::make_shared<BusyTagProgram>();
  server.register_program(kProg, kVers + 1, busy_prog);
  BufChain shed_reply;
  eng.run_task([](net::Network& net, net::Host& chost,
                  BufChain* out) -> Task<void> {
    net::StreamPtr s =
        co_await net.connect(chost, net::Address("server", 2049));
    StreamTransport t(std::move(s));
    CallMsg slow_call;
    slow_call.xid = 10;
    slow_call.prog = kProg;
    slow_call.vers = kVers;
    slow_call.proc = 1;
    co_await t.send(slow_call.serialize());  // occupies the only slot
    CallMsg busy_call;
    busy_call.xid = 11;
    busy_call.prog = kProg;
    busy_call.vers = kVers + 1;
    busy_call.proc = 1;
    co_await t.send(busy_call.serialize());  // shed -> busy reply
    *out = co_await t.recv();                // busy reply beats the slow one
    co_await t.recv();                       // slow call's real reply
    t.close();
  }(net, ch, &shed_reply));
  EXPECT_EQ(shed_reply,
            ReplyMsg::success(11, BufChain(to_bytes("busy"))).serialize());
  EXPECT_EQ(server.calls_shed(), 1u);
  EXPECT_EQ(server.busy_replies_sent(), 1u);
  EXPECT_EQ(busy_prog->count(), 0u);  // shed: the handler never ran
}

// The retry budget bounds retransmissions: with ratio 0 and an empty burst
// allowance... (budget unit semantics live in RetryBudgetAccounting below);
// end-to-end, a black-holed call under a zero-token budget sends its
// original message, suppresses every retransmission, and still gives up at
// the same virtual time as an unsuppressed client would.
TEST(Rpc, RetryBudgetSuppressesRetransmitsButGiveUpTimeUnchanged) {
  Fixture f;
  auto plan = std::make_shared<net::FaultPlan>(103);
  plan->set_link_faults("client", "server", net::LinkFaults(1.0, 0.0));
  f.net.set_fault_plan(plan);
  sim::SimDur elapsed = 0;
  f.eng.run_task([](Fixture& f, sim::SimDur* out) -> Task<void> {
    net::Address addr("server", 2049);
    auto client = co_await clnt_create(*f.client_host, addr, kProg, kVers);
    RetryPolicy retry;
    retry.initial_timeout = sim::kSecond;
    retry.max_retransmits = 2;
    client->set_retry(retry);
    auto budget = std::make_shared<RetryBudget>(0.05, /*burst=*/1.0);
    (void)budget->try_withdraw();  // drain the single burst token
    client->set_retry_budget(budget);
    const sim::SimTime t0 = f.eng.now();
    try {
      co_await client->call(1, to_bytes("void"));
    } catch (const RpcTimeout&) {
      *out = f.eng.now() - t0;
    }
    client->close();
  }(f, &elapsed));
  EXPECT_EQ(elapsed, 7 * sim::kSecond);  // 1+2+4, same as without a budget
  EXPECT_EQ(f.eng.metrics().counter("rpc.client.retransmits").value(), 0u);
  EXPECT_EQ(
      f.eng.metrics().counter("rpc.client.suppressed_retransmits").value(),
      2u);
  EXPECT_EQ(f.eng.metrics().counter("rpc.client.giveups").value(), 1u);
}

TEST(Rpc, RetryBudgetAccounting) {
  RetryBudget budget(0.5, /*burst=*/2.0);
  EXPECT_TRUE(budget.enabled());
  // Starts full: two retransmissions spend the burst.
  EXPECT_TRUE(budget.try_withdraw());
  EXPECT_TRUE(budget.try_withdraw());
  EXPECT_FALSE(budget.try_withdraw());
  EXPECT_EQ(budget.suppressed(), 1u);
  // Each original call deposits `ratio`; two deposits buy one retransmit.
  budget.deposit();
  EXPECT_FALSE(budget.try_withdraw());
  budget.deposit();
  EXPECT_TRUE(budget.try_withdraw());
  // Deposits cap at the burst.
  for (int i = 0; i < 100; ++i) budget.deposit();
  EXPECT_EQ(budget.tokens(), 2.0);
  // Disabled budget never withholds.
  RetryBudget off(0.0);
  EXPECT_FALSE(off.enabled());
  EXPECT_TRUE(off.try_withdraw());
}

// --- record-marking fragment boundaries (RFC 5531 §11) -----------------------

// Round-trips one message of `bytes` through a StreamTransport echo pair and
// checks it reassembles byte-identically after fragmentation on both hops.
void roundtrip_fragmented(size_t bytes) {
  Engine eng;
  net::Network net(eng);
  net::Host& ch = net.add_host("client");
  net::Host& sh = net.add_host("server");
  auto listener = net.listen(sh, 2049);
  Rng rng(0xF7A6 + bytes);
  const BufChain msg{rng.bytes(bytes)};
  eng.spawn([](net::Network::Listener& l) -> Task<void> {
    net::StreamPtr s = co_await l.accept();
    StreamTransport t(std::move(s));
    BufChain m = co_await t.recv();
    co_await t.send(std::move(m));  // echo re-frames the received chain
    t.close();
  }(*listener));
  BufChain back;
  eng.run_task([](net::Network& net, net::Host& chost, BufChain msg,
                  BufChain* out) -> Task<void> {
    net::StreamPtr s =
        co_await net.connect(chost, net::Address("server", 2049));
    StreamTransport t(std::move(s));
    co_await t.send(msg);
    *out = co_await t.recv();
    t.close();
  }(net, ch, msg, &back));
  ASSERT_EQ(back.size(), bytes);
  EXPECT_EQ(back, msg);
  EXPECT_TRUE(eng.errors().empty());
}

TEST(StreamFraming, MessageOfExactlyOneFragment) {
  // Exactly kMaxFragment: one full fragment with the last-fragment bit set.
  roundtrip_fragmented(StreamTransport::kMaxFragment);
}

TEST(StreamFraming, MessageOneByteOverFragmentLimit) {
  // kMaxFragment + 1: a full non-final fragment followed by a 1-byte final
  // fragment — the classic off-by-one in record-marking reassembly.
  roundtrip_fragmented(StreamTransport::kMaxFragment + 1);
}

TEST(StreamFraming, MessageSpanningThreeFragments) {
  roundtrip_fragmented(2 * StreamTransport::kMaxFragment + 12345);
}

// --- secure RPC (clnt_ssl_create / svc_tli_ssl_create analogue) --------------

struct SecurePki {
  Rng rng{400};
  crypto::CertificateAuthority ca{
      rng, crypto::DistinguishedName("Grid", "RootCA"), 0, 1000000};
  crypto::Credential user{
      ca.issue(rng, crypto::DistinguishedName("UFL", "alice"),
               crypto::CertType::kIdentity, 0, 500000)};
  crypto::Credential host{
      ca.issue(rng, crypto::DistinguishedName("UFL", "server1"),
               crypto::CertType::kHost, 0, 500000)};
};

SecurePki& spki() {
  static SecurePki p;
  return p;
}

TEST(SecureRpc, EndToEndWithIdentity) {
  Engine eng;
  net::Network net(eng);
  net::Host& ch = net.add_host("client");
  net::Host& sh = net.add_host("server");

  crypto::SecurityConfig server_cfg;
  server_cfg.credential = spki().host;
  server_cfg.trusted = {spki().ca.root()};

  // Identity-checking program: returns the peer DN string.
  class WhoAmI : public RpcProgram {
   public:
    sim::Task<BufChain> handle(const CallContext& ctx, BufChain) override {
      xdr::Encoder enc;
      enc.put_string(ctx.peer_identity ? ctx.peer_identity->to_string()
                                       : "<none>");
      co_return enc.take();
    }
  };

  RpcServer server(sh, 2049, server_cfg, Rng(401), 0);
  server.register_program(kProg, kVers, std::make_shared<WhoAmI>());
  server.start();

  crypto::SecurityConfig client_cfg;
  client_cfg.credential = spki().user;
  client_cfg.trusted = {spki().ca.root()};

  std::string dn;
  eng.run_task([](net::Host& host, crypto::SecurityConfig& cfg,
                  std::string* out) -> Task<void> {
    Rng rng(402);
    net::Address addr("server", 2049);
    auto client = co_await clnt_ssl_create(host, addr, kProg, kVers, cfg,
                                           rng, 0);
    BufChain r = co_await client->call(0, {});
    xdr::Decoder dec(r);
    *out = dec.get_string();
  }(ch, client_cfg, &dn));
  EXPECT_EQ(dn, "/O=UFL/CN=alice");
}

TEST(SecureRpc, PlainClientCannotTalkToSecureServer) {
  Engine eng;
  net::Network net(eng);
  net::Host& ch = net.add_host("client");
  net::Host& sh = net.add_host("server");

  crypto::SecurityConfig server_cfg;
  server_cfg.credential = spki().host;
  server_cfg.trusted = {spki().ca.root()};
  RpcServer server(sh, 2049, server_cfg, Rng(403), 0);
  server.register_program(kProg, kVers, std::make_shared<EchoProgram>());
  server.start();

  bool failed = false;
  eng.run_task([](net::Host& host, bool* out) -> Task<void> {
    try {
      net::Address addr("server", 2049);
      auto client = co_await clnt_create(host, addr, kProg, kVers);
      co_await client->call(1, to_bytes("plaintext"));
    } catch (const std::exception&) {
      *out = true;
    }
  }(ch, &failed));
  eng.run();
  EXPECT_TRUE(failed);
}

// Pooled blocks are per thread: a worker thread that runs a testbed and
// exits frees the blocks it cached.  Leak-checked under ASan.
TEST(PoolThreadExit, WorkerRunsAnRpcRoundTripAndExits) {
  std::string got;
  std::thread worker([&got] {
    Fixture f;
    f.eng.run_task([](Fixture& f, std::string* out) -> Task<void> {
      net::Address addr("server", 2049);
      auto client = co_await clnt_create(*f.client_host, addr, kProg, kVers);
      client->set_retry(RetryPolicy::standard());
      BufChain r = co_await client->call(1, to_bytes("from a worker"));
      *out = sgfs::to_string(r);
      client->close();
    }(f, &got));
  });
  worker.join();
  EXPECT_EQ(got, "from a worker");
}

}  // namespace
}  // namespace sgfs::rpc

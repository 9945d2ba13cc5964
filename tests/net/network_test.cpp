#include "net/network.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "net/fault.hpp"

namespace sgfs::net {
namespace {

using namespace sgfs::sim::literals;
using sim::Engine;
using sim::SimTime;
using sim::Task;

struct Fixture {
  Engine eng;
  Network net{eng};
  Host* client;
  Host* server;

  Fixture() {
    client = &net.add_host("client");
    server = &net.add_host("server");
  }
};

Task<void> echo_server(Network::Listener& listener) {
  for (;;) {
    StreamPtr s = co_await listener.accept();
    if (!s) co_return;
    for (;;) {
      Buffer buf(4096);
      size_t n = co_await s->read_some(buf);
      if (n == 0) break;
      co_await s->write(ByteView(buf.data(), n));
    }
    s->close();
  }
}

// Waits until n bytes are buffered (or EOF) and takes them.
Task<BufChain> take_n(Stream& s, size_t n) {
  while (!s.readable_now(n)) co_await s.readable(n);
  co_return s.take(n);
}

TEST(Network, ConnectCostsOneRtt) {
  Fixture f;
  f.net.set_default_link(LinkParams::wan(40_ms));
  auto listener = f.net.listen(*f.server, 2049);
  SimTime connected = -1;
  f.eng.spawn(echo_server(*listener));
  f.eng.run_task([](Fixture& f, SimTime* out) -> Task<void> {
    auto s = co_await f.net.connect(*f.client, {"server", 2049});
    *out = f.eng.now();
    s->close();
  }(f, &connected));
  EXPECT_EQ(connected, 40_ms);
}

TEST(Network, ConnectionRefusedWithoutListener) {
  Fixture f;
  EXPECT_THROW(f.eng.run_task([](Fixture& f) -> Task<void> {
    co_await f.net.connect(*f.client, {"server", 9999});
  }(f)),
               std::runtime_error);
}

TEST(Network, EchoRoundTrip) {
  Fixture f;
  auto listener = f.net.listen(*f.server, 2049);
  f.eng.spawn(echo_server(*listener));
  std::string reply;
  f.eng.run_task([](Fixture& f, std::string* out) -> Task<void> {
    auto s = co_await f.net.connect(*f.client, {"server", 2049});
    co_await s->write(to_bytes("ping"));
    BufChain got = co_await take_n(*s, 4);
    *out = to_string(got);
    s->close();
  }(f, &reply));
  EXPECT_EQ(reply, "ping");
}

TEST(Network, LatencyChargedEachDirection) {
  Fixture f;
  f.net.set_default_link({20_ms, 1e12});  // 40 ms RTT, infinite bandwidth
  auto listener = f.net.listen(*f.server, 2049);
  f.eng.spawn(echo_server(*listener));
  SimTime elapsed = -1;
  f.eng.run_task([](Fixture& f, SimTime* out) -> Task<void> {
    auto s = co_await f.net.connect(*f.client, {"server", 2049});
    SimTime start = f.eng.now();
    co_await s->write(to_bytes("x"));
    (void)co_await take_n(*s, 1);
    *out = f.eng.now() - start;
    s->close();
  }(f, &elapsed));
  // One request + one response = one RTT.
  EXPECT_EQ(elapsed, 40_ms);
}

TEST(Network, BandwidthBoundsThroughput) {
  Fixture f;
  // 1 MB/s, negligible latency: 1 MB transfer ~ 1 s on the wire.
  f.net.set_default_link({1_us, 1024.0 * 1024.0});
  auto listener = f.net.listen(*f.server, 2049);
  f.eng.spawn(echo_server(*listener));
  const size_t kSize = 1024 * 1024;
  SimTime elapsed = -1;
  f.eng.run_task([](Fixture& f, size_t size, SimTime* out) -> Task<void> {
    auto s = co_await f.net.connect(*f.client, {"server", 2049});
    SimTime start = f.eng.now();
    Buffer data(size, 0xAB);
    co_await s->write(data);
    BufChain back = co_await take_n(*s, size);
    EXPECT_EQ(back, data);
    *out = f.eng.now() - start;
    s->close();
  }(f, kSize, &elapsed));
  // Request + echo: two 1-second serializations (directions independent).
  EXPECT_NEAR(sim::to_seconds(elapsed), 2.0, 0.05);
}

TEST(Network, DataArrivesInOrder) {
  Fixture f;
  auto listener = f.net.listen(*f.server, 7);
  f.eng.spawn(echo_server(*listener));
  std::string got;
  f.eng.run_task([](Fixture& f, std::string* out) -> Task<void> {
    auto s = co_await f.net.connect(*f.client, {"server", 7});
    co_await s->write(to_bytes("abc"));
    co_await s->write(to_bytes("def"));
    co_await s->write(to_bytes("ghi"));
    BufChain all = co_await take_n(*s, 9);
    *out = to_string(all);
    s->close();
  }(f, &got));
  EXPECT_EQ(got, "abcdefghi");
}

TEST(Network, EofAfterInFlightData) {
  Fixture f;
  auto listener = f.net.listen(*f.server, 7);
  // Server reads until EOF and records everything it saw.
  std::string seen;
  f.eng.spawn([](Network::Listener& l, std::string* out) -> Task<void> {
    auto s = co_await l.accept();
    for (;;) {
      Buffer buf(64);
      size_t n = co_await s->read_some(buf);
      if (n == 0) break;
      out->append(reinterpret_cast<char*>(buf.data()), n);
    }
  }(*listener, &seen));
  f.eng.run_task([](Fixture& f) -> Task<void> {
    auto s = co_await f.net.connect(*f.client, {"server", 7});
    co_await s->write(to_bytes("last words"));
    s->close();  // EOF must not beat the data
  }(f));
  f.eng.run();
  EXPECT_EQ(seen, "last words");
}

TEST(Network, TakeIsShortAtEof) {
  Fixture f;
  auto listener = f.net.listen(*f.server, 7);
  f.eng.spawn([](Network::Listener& l) -> Task<void> {
    auto s = co_await l.accept();
    co_await s->write(to_bytes("xy"));
    s->close();
  }(*listener));
  std::string got = "unset";
  f.eng.run_task([](Fixture& f, std::string* out) -> Task<void> {
    auto s = co_await f.net.connect(*f.client, {"server", 7});
    const BufChain got = co_await take_n(*s, 10);  // EOF after 2 of 10
    *out = to_string(got);
    EXPECT_TRUE(s->take(10).empty());
  }(f, &got));
  EXPECT_EQ(got, "xy");
}

TEST(Network, TakeSpansSeveralDeliveries) {
  Fixture f;
  auto listener = f.net.listen(*f.server, 7);
  f.eng.spawn([](Network::Listener& l) -> Task<void> {
    auto s = co_await l.accept();
    co_await s->write(to_bytes("abc"));
    co_await s->write(to_bytes("defg"));
    co_await s->write(to_bytes("hij"));
    s->close();
  }(*listener));
  f.eng.run_task([](Fixture& f) -> Task<void> {
    auto s = co_await f.net.connect(*f.client, {"server", 7});
    const BufChain got = co_await take_n(*s, 9);  // ends inside the third
    EXPECT_EQ(to_string(got), "abcdefghi");
    EXPECT_EQ(got.segments().size(), 3u);
    const BufChain rest = co_await take_n(*s, 1);
    EXPECT_EQ(to_string(rest), "j");
  }(f));
}

TEST(Network, PartialTakesShareOneDelivery) {
  Fixture f;
  auto listener = f.net.listen(*f.server, 7);
  f.eng.spawn([](Network::Listener& l) -> Task<void> {
    auto s = co_await l.accept();
    co_await s->write(to_bytes("0123456789"));
    s->close();
  }(*listener));
  f.eng.run_task([](Fixture& f) -> Task<void> {
    auto s = co_await f.net.connect(*f.client, {"server", 7});
    const BufChain a = co_await take_n(*s, 3);
    uint8_t b[4];
    EXPECT_EQ(s->try_read(b), 4u);  // copies out of the same delivery
    const BufChain c = co_await take_n(*s, 3);
    EXPECT_EQ(to_string(a), "012");
    EXPECT_EQ(to_string(ByteView(b, 4)), "3456");
    EXPECT_EQ(to_string(c), "789");
    EXPECT_EQ(a.segments().size(), 1u);
    EXPECT_EQ(c.segments().size(), 1u);
    EXPECT_EQ(a.segments().front().store, c.segments().front().store);
    EXPECT_TRUE(s->take(1).empty());
  }(f));
}

TEST(Network, ResetDiscardsQueuedSlices) {
  Fixture f;
  auto listener = f.net.listen(*f.server, 7);
  f.eng.spawn([](Network::Listener& l) -> Task<void> {
    auto s = co_await l.accept();
    co_await s->write(to_bytes("kept"));
    co_await s->write(to_bytes("queued"));
    co_await l.accept();  // parks until the test ends
  }(*listener));
  f.eng.run_task([](Fixture& f) -> Task<void> {
    auto s = co_await f.net.connect(*f.client, {"server", 7});
    const BufChain kept = co_await take_n(*s, 4);
    while (!s->readable_now(6)) co_await s->readable(6);
    f.net.reset_host_streams("server");
    EXPECT_TRUE(s->readable_now(1));  // reset reads as EOF
    EXPECT_TRUE(s->take(6).empty());  // "queued" is gone
    EXPECT_EQ(to_string(kept), "kept");  // a taken slice owns its store
  }(f));
  listener->close();
  f.eng.run();
}

TEST(Network, OneSegmentWriteArrivesAsTheSendersStore) {
  Fixture f;
  auto listener = f.net.listen(*f.server, 7);
  const Buffer payload = to_bytes("shared, not copied");
  BufChain sent(payload);
  const Buffer* sender_store = sent.segments()[0].store.get();
  f.eng.spawn([](Network::Listener& l, const BufChain& sent) -> Task<void> {
    auto s = co_await l.accept();
    co_await s->write(sent);
    s->close();
  }(*listener, sent));
  const uint64_t copied_before = buf_stats().bytes_copied;
  f.eng.run_task([](Fixture& f, const Buffer* sender_store,
                    const Buffer& payload) -> Task<void> {
    auto s = co_await f.net.connect(*f.client, {"server", 7});
    const BufChain got = co_await take_n(*s, payload.size());
    EXPECT_EQ(got, payload);
    EXPECT_EQ(got.segments().size(), 1u);
    EXPECT_EQ(got.segments().front().store.get(), sender_store);
  }(f, sender_store, payload));
  EXPECT_EQ(buf_stats().bytes_copied, copied_before);
}

TEST(Network, WriteAfterCloseThrows) {
  Fixture f;
  auto listener = f.net.listen(*f.server, 7);
  f.eng.spawn(echo_server(*listener));
  EXPECT_THROW(f.eng.run_task([](Fixture& f) -> Task<void> {
    auto s = co_await f.net.connect(*f.client, {"server", 7});
    s->close();
    co_await s->write(to_bytes("zombie"));
  }(f)),
               StreamClosed);
}

TEST(Network, PerPairLinkOverride) {
  Engine eng;
  Network net(eng);
  Host& a = net.add_host("a");
  Host& b = net.add_host("b");
  net.add_host("c");
  net.set_default_link({1_ms, 1e12});
  net.set_link("a", "b", {50_ms, 1e12});
  EXPECT_EQ(net.link_params("a", "b").latency_one_way, 50_ms);
  EXPECT_EQ(net.link_params("b", "a").latency_one_way, 50_ms);
  EXPECT_EQ(net.link_params("a", "c").latency_one_way, 1_ms);
  (void)a;
  (void)b;
}

TEST(Network, SetLinkAppliesToOpenStreamsOnNextWrite) {
  // Streams cache their link state at connect; a later set_link must still
  // reach them, starting with the next write.
  Fixture f;
  f.net.set_default_link({1_ms, 1e12});
  auto listener = f.net.listen(*f.server, 2049);
  f.eng.spawn(echo_server(*listener));
  std::vector<SimTime> rtts;
  f.eng.run_task([](Fixture& f, std::vector<SimTime>* out) -> Task<void> {
    auto s = co_await f.net.connect(*f.client, {"server", 2049});
    for (int round = 0; round < 3; ++round) {
      if (round == 1) f.net.set_link("client", "server", {20_ms, 1e12});
      if (round == 2) f.net.set_default_link({3_ms, 1e12});  // overridden
      const SimTime start = f.eng.now();
      co_await s->write(to_bytes("x"));
      (void)co_await take_n(*s, 1);
      out->push_back(f.eng.now() - start);
    }
    s->close();
  }(f, &rtts));
  EXPECT_EQ(rtts, (std::vector<SimTime>{2_ms, 40_ms, 40_ms}));
}

TEST(Network, LoopbackIsFast) {
  Engine eng;
  Network net(eng);
  net.add_host("x");
  EXPECT_LT(net.link_params("x", "x").latency_one_way, 100_us);
}

TEST(Network, DuplicateHostRejected) {
  Engine eng;
  Network net(eng);
  net.add_host("dup");
  EXPECT_THROW(net.add_host("dup"), std::runtime_error);
}

TEST(Network, DuplicateListenRejected) {
  Fixture f;
  auto l1 = f.net.listen(*f.server, 2049);
  EXPECT_THROW(f.net.listen(*f.server, 2049), std::runtime_error);
}

TEST(Network, ListenerCloseUnblocksAccept) {
  Fixture f;
  auto listener = f.net.listen(*f.server, 2049);
  bool got_null = false;
  f.eng.spawn([](Network::Listener& l, bool* out) -> Task<void> {
    auto s = co_await l.accept();
    *out = (s == nullptr);
  }(*listener, &got_null));
  f.eng.spawn([](Engine& e, Network::Listener& l) -> Task<void> {
    co_await e.sleep(1_ms);
    l.close();
  }(f.eng, *listener));
  f.eng.run();
  EXPECT_TRUE(got_null);
}

TEST(Network, StreamByteCounters) {
  Fixture f;
  auto listener = f.net.listen(*f.server, 7);
  f.eng.spawn(echo_server(*listener));
  uint64_t sent = 0, received = 0;
  f.eng.run_task([](Fixture& f, uint64_t* s_out,
                    uint64_t* r_out) -> Task<void> {
    auto s = co_await f.net.connect(*f.client, {"server", 7});
    co_await s->write(Buffer(100, 1));
    (void)co_await take_n(*s, 100);
    *s_out = s->bytes_sent();
    *r_out = s->bytes_received();
    s->close();
  }(f, &sent, &received));
  EXPECT_EQ(sent, 100u);
  EXPECT_EQ(received, 100u);
}

TEST(Network, LoopbackConnectSameHost) {
  Engine eng;
  Network net(eng);
  Host& h = net.add_host("solo");
  auto listener = net.listen(h, 111);
  eng.spawn(echo_server(*listener));
  std::string got;
  eng.run_task([](Network& net, Host& h, std::string* out) -> Task<void> {
    auto s = co_await net.connect(h, {"solo", 111});
    co_await s->write(to_bytes("local"));
    BufChain b = co_await take_n(*s, 5);
    *out = to_string(b);
    s->close();
  }(net, h, &got));
  EXPECT_EQ(got, "local");
}

// --- fault plan ---------------------------------------------------------------

TEST(FaultPlan, DeterministicReplay) {
  auto run = [] {
    FaultPlan plan(7);
    plan.set_link_faults("a", "b", LinkFaults(0.3, 0.2));
    std::vector<uint64_t> trace;
    for (int i = 0; i < 200; ++i) {
      trace.push_back(
          static_cast<uint64_t>(plan.on_message("a", "b", i)));
    }
    trace.push_back(plan.delivered());
    trace.push_back(plan.dropped());
    trace.push_back(plan.corrupted());
    return trace;
  };
  EXPECT_EQ(run(), run());
}

TEST(FaultPlan, LoopbackExemptUnlessConfigured) {
  FaultPlan plan(1);
  plan.set_default_faults(LinkFaults(1.0, 0.0));
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(plan.on_message("h", "h", i), FaultPlan::Action::kDeliver);
  }
  EXPECT_EQ(plan.on_message("h", "other", 0), FaultPlan::Action::kDrop);
  plan.set_link_faults("h", "h", LinkFaults(1.0, 0.0));
  EXPECT_EQ(plan.on_message("h", "h", 0), FaultPlan::Action::kDrop);
}

TEST(FaultPlan, LinkBlackoutWindow) {
  FaultPlan plan(2);
  plan.add_link_blackout("client", "server", 10, 20);
  EXPECT_EQ(plan.on_message("client", "server", 9),
            FaultPlan::Action::kDeliver);
  EXPECT_EQ(plan.on_message("server", "client", 10),
            FaultPlan::Action::kDrop);
  EXPECT_EQ(plan.on_message("client", "server", 19),
            FaultPlan::Action::kDrop);
  EXPECT_EQ(plan.on_message("client", "server", 20),
            FaultPlan::Action::kDeliver);
  EXPECT_EQ(plan.on_message("client", "third", 15),
            FaultPlan::Action::kDeliver);
  EXPECT_EQ(plan.blackout_drops(), 2u);
  EXPECT_EQ(plan.dropped(), 2u);
}

TEST(FaultPlan, HostBlackoutCoversAllTraffic) {
  FaultPlan plan(3);
  plan.add_host_blackout("server", 100, 200);
  EXPECT_EQ(plan.on_message("client", "server", 150),
            FaultPlan::Action::kDrop);
  EXPECT_EQ(plan.on_message("server", "client", 150),
            FaultPlan::Action::kDrop);
  EXPECT_EQ(plan.on_message("client", "other", 150),
            FaultPlan::Action::kDeliver);
  EXPECT_EQ(plan.on_message("client", "server", 250),
            FaultPlan::Action::kDeliver);
}

TEST(FaultPlan, CertainCorruption) {
  FaultPlan plan(4);
  plan.set_link_faults("a", "b", LinkFaults(0.0, 1.0));
  EXPECT_EQ(plan.on_message("a", "b", 0), FaultPlan::Action::kCorrupt);
  EXPECT_EQ(plan.corrupted(), 1u);
  EXPECT_EQ(plan.delivered(), 0u);
}

}  // namespace
}  // namespace sgfs::net

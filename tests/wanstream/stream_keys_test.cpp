// Per-stream key separation (ISSUE "WAN parallel secure streams").
//
// Invariants:
//   - opening K streams of one session costs exactly ONE RSA handshake —
//     siblings use abbreviated resumes ("crypto.stream_resumptions"),
//     never a second "crypto.handshakes" increment;
//   - every stream's derived key block is distinct (per-stream key
//     separation), yet both ends of one stream agree on it;
//   - a MAC failure on one stream fails THAT channel closed and leaves its
//     siblings healthy (independent keys, independent failure domains);
//   - a forgotten/unknown ticket is refused (fails closed), which is what
//     the pool's full-handshake fallback rides on;
//   - a listener negotiates the handshake flavour exactly when its config
//     holds a ticket store; without one a resumed hello fails closed.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "baselines/testbed.hpp"
#include "common/rng.hpp"
#include "crypto/secure_channel.hpp"
#include "nfs/nfs3_client.hpp"

namespace sgfs::crypto {
namespace {

using net::StreamPtr;
using sim::Engine;
using sim::Task;

// One CA + two leaf credentials, shared across tests (keygen dominates).
struct Pki {
  Rng rng{300};
  CertificateAuthority ca{rng, DistinguishedName("Grid", "RootCA"), 0,
                          1000000};
  Credential user{ca.issue(rng, DistinguishedName("UFL", "alice"),
                           CertType::kIdentity, 0, 500000)};
  Credential host{ca.issue(rng, DistinguishedName("UFL", "fs1"),
                           CertType::kHost, 0, 500000)};
};

Pki& pki() {
  static Pki p;
  return p;
}

// A server with one negotiating listener on 4433: full and resumed
// handshakes share the port, tickets live in one ResumptionCache.
struct Fixture {
  Engine eng;
  net::Network net{eng};
  net::Host* client;
  net::Host* server;
  Rng client_rng{1000};
  Rng server_rng{2000};
  SecurityConfig client_cfg;
  SecurityConfig server_cfg;
  std::unique_ptr<net::Network::Listener> listener;

  Fixture() {
    client = &net.add_host("client");
    server = &net.add_host("server");
    client_cfg.cipher = Cipher::kAes256Cbc;
    client_cfg.mac = MacAlgo::kHmacSha1;
    client_cfg.credential = pki().user;
    client_cfg.trusted = {pki().ca.root()};
    server_cfg = client_cfg;
    server_cfg.credential = pki().host;
    server_cfg.resumption = std::make_shared<ResumptionCache>();
    listener = net.listen(*server, 4433);
    // Detached accept loop, like the proxy's RpcServer.
    eng.spawn(accept_loop(*this, *listener, server_cfg));
  }

  std::vector<std::unique_ptr<SecureChannel>> accepted;

  static Task<void> accept_loop(Fixture& f, net::Network::Listener& l,
                                SecurityConfig cfg) {
    for (;;) {
      StreamPtr s = co_await l.accept();
      auto ch = co_await SecureChannel::accept(s, cfg, f.server_rng, 0);
      f.accepted.push_back(std::move(ch));
    }
  }

  Task<std::unique_ptr<SecureChannel>> dial_full() {
    StreamPtr s =
        co_await net.connect(*client, net::Address("server", 4433));
    co_return co_await SecureChannel::connect(s, client_cfg, client_rng, 0);
  }

  Task<std::unique_ptr<SecureChannel>> dial_resumed(
      const ResumptionTicket& ticket, uint32_t index, uint16_t port = 4433) {
    StreamPtr s =
        co_await net.connect(*client, net::Address("server", port));
    co_return co_await SecureChannel::connect_resumed(s, client_cfg,
                                                      client_rng, 0, ticket,
                                                      index);
  }

  uint64_t counter(const std::string& name) const {
    return eng.metrics().counter_value(name);
  }
};

TEST(StreamKeys, OneHandshakeManyStreamsDistinctKeys) {
  Fixture f;
  f.eng.run_task([](Fixture& f) -> Task<void> {
    auto primary = co_await f.dial_full();
    EXPECT_EQ(f.counter("crypto.handshakes"), 2u);  // one per side
    const ResumptionTicket ticket = primary->ticket();

    std::vector<std::unique_ptr<SecureChannel>> streams;
    for (uint32_t i = 1; i <= 3; ++i) {
      streams.push_back(co_await f.dial_resumed(ticket, i));
    }
    // Still exactly ONE RSA handshake; three abbreviated resumes, both
    // sides counted.
    EXPECT_EQ(f.counter("crypto.handshakes"), 2u);
    EXPECT_EQ(f.counter("crypto.stream_resumptions"), 6u);

    // Key separation: primary + 3 streams = 4 distinct key blocks.
    std::set<uint64_t> fingerprints;
    fingerprints.insert(primary->key_fingerprint());
    for (auto& ch : streams) {
      EXPECT_TRUE(ch->resumed());
      fingerprints.insert(ch->key_fingerprint());
    }
    EXPECT_EQ(fingerprints.size(), 4u);

    // Agreement: each client stream's fingerprint appears on exactly one
    // accepted server channel.
    EXPECT_EQ(f.accepted.size(), 4u);
    if (f.accepted.size() != 4u) co_return;
    std::set<uint64_t> server_fps;
    for (auto& ch : f.accepted) server_fps.insert(ch->key_fingerprint());
    EXPECT_EQ(server_fps, fingerprints);

    // And the streams actually carry traffic under those keys.
    for (auto& ch : streams) co_await ch->send(to_bytes("ping"));
  }(f));
  f.eng.run();
  EXPECT_TRUE(f.eng.errors().empty())
      << (f.eng.errors().empty() ? "" : f.eng.errors()[0]);
}

TEST(StreamKeys, MacFailureFailsOneStreamClosedSiblingsSurvive) {
  Fixture f;
  f.eng.run_task([](Fixture& f) -> Task<void> {
    auto primary = co_await f.dial_full();
    const ResumptionTicket ticket = primary->ticket();
    auto s1 = co_await f.dial_resumed(ticket, 1);
    auto s2 = co_await f.dial_resumed(ticket, 2);
    EXPECT_EQ(f.accepted.size(), 3u);
    if (f.accepted.size() != 3u) co_return;
    SecureChannel& srv_s1 = *f.accepted[1];
    SecureChannel& srv_s2 = *f.accepted[2];

    // Tamper with stream 1's next record: the server MAC-rejects it and
    // that channel fails closed.
    s1->corrupt_next_record();
    co_await s1->send(to_bytes("poisoned"));
    bool failed_closed = false;
    try {
      (void)co_await srv_s1.recv();
    } catch (const SecurityError&) {
      failed_closed = true;
    }
    EXPECT_TRUE(failed_closed);
    EXPECT_TRUE(srv_s1.failed());

    // Sibling stream and primary still work in both directions.
    co_await s2->send(to_bytes("hello"));
    Buffer got = co_await srv_s2.recv();
    EXPECT_EQ(got, to_bytes("hello"));
    co_await primary->send(to_bytes("still fine"));
    Buffer got2 = co_await f.accepted[0]->recv();
    EXPECT_EQ(got2, to_bytes("still fine"));
    EXPECT_FALSE(srv_s2.failed());
  }(f));
  f.eng.run();
  EXPECT_TRUE(f.eng.errors().empty())
      << (f.eng.errors().empty() ? "" : f.eng.errors()[0]);
}

TEST(StreamKeys, UnknownTicketFailsClosed) {
  Fixture f;
  f.eng.run_task([](Fixture& f) -> Task<void> {
    auto primary = co_await f.dial_full();
    ResumptionTicket bogus = primary->ticket();
    bogus.session_id[0] ^= 0xff;  // a session the server never issued
    // The server aborts its side with a SecurityError ("unknown session
    // ticket"); the client just sees the transport die mid-handshake.
    bool refused = false;
    try {
      (void)co_await f.dial_resumed(bogus, 1);
    } catch (const std::exception&) {
      refused = true;
    }
    EXPECT_TRUE(refused);
    EXPECT_EQ(f.accepted.size(), 1u);  // only the full handshake succeeded
  }(f));
  f.eng.run();
  // Fail-closed on the server side: the accept actor died on the bad
  // ticket instead of silently downgrading to an unauthenticated channel.
  bool server_refused = false;
  for (const std::string& err : f.eng.errors()) {
    if (err.find("unknown session ticket") != std::string::npos) {
      server_refused = true;
    }
  }
  EXPECT_TRUE(server_refused);
}

TEST(StreamKeys, ListenerWithTicketStoreAcceptsFullAndResumedHello) {
  Fixture f;
  f.eng.run_task([](Fixture& f) -> Task<void> {
    // Both flavours on ONE listener: the first message's magic decides.
    auto primary = co_await f.dial_full();
    auto sibling = co_await f.dial_resumed(primary->ticket(), 1);
    EXPECT_FALSE(primary->resumed());
    EXPECT_TRUE(sibling->resumed());
    EXPECT_EQ(f.counter("crypto.handshakes"), 2u);
    EXPECT_EQ(f.counter("crypto.stream_resumptions"), 2u);
    EXPECT_EQ(f.accepted.size(), 2u);
    if (f.accepted.size() != 2u) co_return;
    EXPECT_FALSE(f.accepted[0]->resumed());
    EXPECT_TRUE(f.accepted[1]->resumed());
    co_await sibling->send(to_bytes("ping"));
    Buffer got = co_await f.accepted[1]->recv();
    EXPECT_EQ(got, to_bytes("ping"));
  }(f));
  f.eng.run();
  EXPECT_TRUE(f.eng.errors().empty())
      << (f.eng.errors().empty() ? "" : f.eng.errors()[0]);
}

TEST(StreamKeys, ListenerWithoutTicketStoreRejectsResumedHello) {
  Fixture f;
  SecurityConfig strict_cfg = f.server_cfg;
  strict_cfg.resumption = nullptr;
  auto strict_listener = f.net.listen(*f.server, 4434);
  bool security_error = false;
  StreamPtr server_end;
  f.eng.spawn([](Fixture& f, net::Network::Listener& l, SecurityConfig cfg,
                 bool& security_error, StreamPtr& server_end) -> Task<void> {
    server_end = co_await l.accept();
    try {
      (void)co_await SecureChannel::accept(server_end, cfg, f.server_rng, 0);
    } catch (const SecurityError&) {
      security_error = true;
    }
  }(f, *strict_listener, strict_cfg, security_error, server_end));
  f.eng.run_task([](Fixture& f) -> Task<void> {
    // A valid ticket from the negotiating listener, redeemed at one that
    // holds no ticket store.
    auto primary = co_await f.dial_full();
    bool refused = false;
    try {
      (void)co_await f.dial_resumed(primary->ticket(), 1, 4434);
    } catch (const std::exception&) {
      refused = true;
    }
    EXPECT_TRUE(refused);
  }(f));
  f.eng.run();
  EXPECT_TRUE(security_error);
  ASSERT_NE(server_end, nullptr);
  EXPECT_TRUE(server_end->write_closed());
  EXPECT_EQ(f.counter("crypto.stream_resumptions"), 1u);  // client side only
  EXPECT_TRUE(f.eng.errors().empty())
      << (f.eng.errors().empty() ? "" : f.eng.errors()[0]);
}

// Proxy-level cross-check on the full testbed: a K=4 session costs the
// same number of RSA handshakes as K=1 (one per upstream client), plus
// 2·(K-1) stream resumptions — K streams ≠ K RSA exchanges.
TEST(StreamKeys, ProxyPoolCostsNoExtraRsaHandshakes) {
  using baselines::SetupKind;
  using baselines::Testbed;
  using baselines::TestbedOptions;

  auto run = [](int streams, uint64_t* handshakes, uint64_t* resumptions) {
    TestbedOptions opt;
    opt.kind = SetupKind::kSgfs;
    opt.cipher = Cipher::kNull;
    opt.mac = MacAlgo::kHmacSha1;
    opt.proxy_disk_cache = true;
    opt.wan_rtt = 10 * sim::kMillisecond;
    opt.pool.streams = streams;
    Testbed tb(opt);
    tb.preload_file("bulk.bin", 2ull << 20, /*warm=*/true);
    tb.engine().run_task([](Testbed& tb) -> Task<void> {
      auto mp = co_await tb.mount();
      int fd = co_await mp->open("bulk.bin", nfs::kRdOnly);
      Buffer buf(2ull << 20);
      uint64_t off = 0;
      while (off < buf.size()) {
        const size_t got = co_await mp->pread(
            fd, off, MutByteView(buf.data() + off, 256 * 1024));
        if (got == 0) break;
        off += got;
      }
      co_await mp->close(fd);
    }(tb));
    EXPECT_TRUE(tb.engine().errors().empty());
    *handshakes = tb.engine().metrics().counter_value("crypto.handshakes");
    *resumptions =
        tb.engine().metrics().counter_value("crypto.stream_resumptions");
  };

  uint64_t hs1 = 0, rs1 = 0, hs4 = 0, rs4 = 0;
  run(1, &hs1, &rs1);
  run(4, &hs4, &rs4);
  EXPECT_EQ(hs4, hs1) << "K=4 paid extra RSA handshakes";
  EXPECT_EQ(rs1, 0u);
  EXPECT_EQ(rs4, 6u);  // 2 sides x (K-1) streams
}

}  // namespace
}  // namespace sgfs::crypto

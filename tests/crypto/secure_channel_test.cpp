#include "crypto/secure_channel.hpp"

#include <gtest/gtest.h>

namespace sgfs::crypto {

struct SecureChannelTestPeer {
  static void set_send_seq(SecureChannel& ch, uint64_t seq) {
    ch.send_seq_ = seq;
  }
  static void set_recv_seq(SecureChannel& ch, uint64_t seq) {
    ch.recv_seq_ = seq;
  }
};

namespace {

using namespace sgfs::sim::literals;
using net::StreamPtr;
using sim::Engine;
using sim::Task;

// One CA, one user (client side), one host (server side), shared by all
// tests — keygen is the expensive part.
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

struct Fixture {
  Engine eng;
  net::Network net{eng};
  net::Host* client;
  net::Host* server;
  Rng client_rng{1000};
  Rng server_rng{2000};
  SecurityConfig client_cfg;
  SecurityConfig server_cfg;

  explicit Fixture(Cipher cipher = Cipher::kAes256Cbc,
                   MacAlgo mac = MacAlgo::kHmacSha1) {
    client = &net.add_host("client");
    server = &net.add_host("server");
    client_cfg.cipher = cipher;
    client_cfg.mac = mac;
    client_cfg.credential = pki().user;
    client_cfg.trusted = {pki().ca.root()};
    server_cfg = client_cfg;
    server_cfg.credential = pki().host;
  }
};

using ChannelPtr = std::unique_ptr<SecureChannel>;

// Runs client_fn and server_fn against an established channel pair.
template <typename C, typename S>
void run_pair(Fixture& f, C&& client_fn, S&& server_fn) {
  auto listener = f.net.listen(*f.server, 4433);
  f.eng.spawn([](Fixture& f, net::Network::Listener& l,
                 S server_fn) -> Task<void> {
    StreamPtr s = co_await l.accept();
    auto ch = co_await SecureChannel::accept(s, f.server_cfg, f.server_rng, 0);
    co_await server_fn(*ch);
  }(f, *listener, std::forward<S>(server_fn)));
  f.eng.run_task([](Fixture& f, C client_fn) -> Task<void> {
    net::Address addr("server", 4433);
    StreamPtr s = co_await f.net.connect(*f.client, addr);
    auto ch = co_await SecureChannel::connect(s, f.client_cfg, f.client_rng, 0);
    co_await client_fn(*ch);
  }(f, std::forward<C>(client_fn)));
  f.eng.run();
  EXPECT_TRUE(f.eng.errors().empty())
      << (f.eng.errors().empty() ? "" : f.eng.errors()[0]);
}

class SecureChannelSuiteTest
    : public ::testing::TestWithParam<std::pair<Cipher, MacAlgo>> {};

TEST_P(SecureChannelSuiteTest, EchoAcrossAllSuites) {
  auto [cipher, mac] = GetParam();
  Fixture f(cipher, mac);
  run_pair(
      f,
      [](SecureChannel& ch) -> Task<void> {
        co_await ch.send(to_bytes("hello over TLS"));
        Buffer reply = co_await ch.recv();
        EXPECT_EQ(sgfs::to_string(reply), "HELLO OVER TLS");
        ch.close();
      },
      [](SecureChannel& ch) -> Task<void> {
        Buffer msg = co_await ch.recv();
        std::string s = sgfs::to_string(msg);
        for (auto& c : s) c = static_cast<char>(std::toupper(c));
        co_await ch.send(to_bytes(s));
      });
}

INSTANTIATE_TEST_SUITE_P(
    Suites, SecureChannelSuiteTest,
    ::testing::Values(
        std::make_pair(Cipher::kNull, MacAlgo::kHmacSha1),     // sgfs-sha
        std::make_pair(Cipher::kRc4_128, MacAlgo::kHmacSha1),  // sgfs-rc
        std::make_pair(Cipher::kAes128Cbc, MacAlgo::kHmacSha1),
        std::make_pair(Cipher::kAes256Cbc, MacAlgo::kHmacSha1),  // sgfs-aes
        std::make_pair(Cipher::kNull, MacAlgo::kNull)));  // gfs-like

TEST(SecureChannel, MutualIdentitiesExchanged) {
  Fixture f;
  run_pair(
      f,
      [](SecureChannel& ch) -> Task<void> {
        EXPECT_EQ(ch.peer_identity().to_string(), "/O=UFL/CN=fs1");
        EXPECT_EQ(ch.peer_certificate().type, CertType::kHost);
        co_await ch.send(to_bytes("x"));
        ch.close();
      },
      [](SecureChannel& ch) -> Task<void> {
        (void)co_await ch.recv();
        EXPECT_EQ(ch.peer_identity().to_string(), "/O=UFL/CN=alice");
      });
}

TEST(SecureChannel, ProxyCertificateUnwrapsToUser) {
  Fixture f;
  Rng rng(301);
  Credential proxy = issue_proxy(rng, pki().user, 0, 400000);
  f.client_cfg.credential = proxy;
  run_pair(
      f,
      [](SecureChannel& ch) -> Task<void> {
        co_await ch.send(to_bytes("delegated"));
        ch.close();
      },
      [](SecureChannel& ch) -> Task<void> {
        (void)co_await ch.recv();
        // Server sees the *base* identity, not the proxy subject.
        EXPECT_EQ(ch.peer_identity().to_string(), "/O=UFL/CN=alice");
        EXPECT_EQ(ch.peer_certificate().type, CertType::kProxy);
      });
}

TEST(SecureChannel, UntrustedClientRejected) {
  Fixture f;
  Rng rng(302);
  CertificateAuthority rogue(rng, DistinguishedName("Evil", "CA"), 0,
                             1000000);
  f.client_cfg.credential = rogue.issue(
      rng, DistinguishedName("Evil", "mallory"), CertType::kIdentity, 0,
      500000);

  auto listener = f.net.listen(*f.server, 4433);
  bool server_rejected = false;
  f.eng.spawn([](Fixture& f, net::Network::Listener& l,
                 bool* rejected) -> Task<void> {
    StreamPtr s = co_await l.accept();
    try {
      auto ch =
          co_await SecureChannel::accept(s, f.server_cfg, f.server_rng, 0);
    } catch (const SecurityError&) {
      *rejected = true;
    }
  }(f, *listener, &server_rejected));
  bool client_failed = false;
  f.eng.run_task([](Fixture& f, bool* failed) -> Task<void> {
    net::Address addr("server", 4433);
    StreamPtr s = co_await f.net.connect(*f.client, addr);
    try {
      auto ch =
          co_await SecureChannel::connect(s, f.client_cfg, f.client_rng, 0);
      co_await ch->send(to_bytes("should not get a reply"));
      (void)co_await ch->recv();
    } catch (const std::exception&) {
      *failed = true;
    }
  }(f, &client_failed));
  f.eng.run();
  EXPECT_TRUE(server_rejected);
  EXPECT_TRUE(client_failed);
}

TEST(SecureChannel, ExpiredServerCertRejectedByClient) {
  Fixture f;
  // Validation time far beyond the host cert's not_after.
  auto listener = f.net.listen(*f.server, 4433);
  f.eng.spawn([](Fixture& f, net::Network::Listener& l) -> Task<void> {
    StreamPtr s = co_await l.accept();
    try {
      auto ch =
          co_await SecureChannel::accept(s, f.server_cfg, f.server_rng,
                                         600000);
    } catch (const std::exception&) {
    }
  }(f, *listener));
  bool rejected = false;
  f.eng.run_task([](Fixture& f, bool* rejected) -> Task<void> {
    net::Address addr("server", 4433);
    StreamPtr s = co_await f.net.connect(*f.client, addr);
    try {
      auto ch = co_await SecureChannel::connect(s, f.client_cfg,
                                                f.client_rng, 600000);
    } catch (const SecurityError& e) {
      *rejected = std::string(e.what()).find("rejected") !=
                  std::string::npos;
    }
  }(f, &rejected));
  f.eng.run();
  EXPECT_TRUE(rejected);
}

TEST(SecureChannel, CipherSuiteMismatchFailsHandshake) {
  Fixture f;
  f.server_cfg.cipher = Cipher::kRc4_128;  // client wants AES-256
  auto listener = f.net.listen(*f.server, 4433);
  f.eng.spawn([](Fixture& f, net::Network::Listener& l) -> Task<void> {
    StreamPtr s = co_await l.accept();
    try {
      auto ch =
          co_await SecureChannel::accept(s, f.server_cfg, f.server_rng, 0);
    } catch (const SecurityError&) {
    }
  }(f, *listener));
  bool failed = false;
  f.eng.run_task([](Fixture& f, bool* failed) -> Task<void> {
    net::Address addr("server", 4433);
    StreamPtr s = co_await f.net.connect(*f.client, addr);
    try {
      auto ch =
          co_await SecureChannel::connect(s, f.client_cfg, f.client_rng, 0);
    } catch (const std::exception&) {
      *failed = true;
    }
  }(f, &failed));
  f.eng.run();
  EXPECT_TRUE(failed);
}

TEST(SecureChannel, LargePayloadRoundTrip) {
  Fixture f;
  run_pair(
      f,
      [](SecureChannel& ch) -> Task<void> {
        Rng rng(303);
        Buffer big = rng.bytes(256 * 1024);
        co_await ch.send(big);
        Buffer back = co_await ch.recv();
        EXPECT_EQ(back, big);
        ch.close();
      },
      [](SecureChannel& ch) -> Task<void> {
        Buffer msg = co_await ch.recv();
        co_await ch.send(msg);
      });
}

TEST(SecureChannel, ManyMessagesKeepSequence) {
  Fixture f(Cipher::kRc4_128, MacAlgo::kHmacSha1);
  run_pair(
      f,
      [](SecureChannel& ch) -> Task<void> {
        for (int i = 0; i < 50; ++i) {
          co_await ch.send(to_bytes("msg " + std::to_string(i)));
          Buffer r = co_await ch.recv();
          EXPECT_EQ(sgfs::to_string(r), "ack " + std::to_string(i));
        }
        EXPECT_GE(ch.records_sent(), 50u);
        ch.close();
      },
      [](SecureChannel& ch) -> Task<void> {
        for (int i = 0; i < 50; ++i) {
          Buffer m = co_await ch.recv();
          EXPECT_EQ(sgfs::to_string(m), "msg " + std::to_string(i));
          co_await ch.send(to_bytes("ack " + std::to_string(i)));
        }
      });
}

TEST(SecureChannel, RenegotiationRefreshesKeys) {
  Fixture f;
  run_pair(
      f,
      [](SecureChannel& ch) -> Task<void> {
        co_await ch.send(to_bytes("before"));
        (void)co_await ch.recv();
        EXPECT_EQ(ch.key_generation(), 1u);
        co_await ch.renegotiate();
        EXPECT_EQ(ch.key_generation(), 2u);
        co_await ch.send(to_bytes("after"));
        Buffer r = co_await ch.recv();
        EXPECT_EQ(sgfs::to_string(r), "got: after");
        ch.close();
      },
      [](SecureChannel& ch) -> Task<void> {
        // Server handles the renegotiation transparently inside recv().
        for (int i = 0; i < 2; ++i) {
          Buffer m = co_await ch.recv();
          co_await ch.send(to_bytes("got: " + sgfs::to_string(m)));
        }
        EXPECT_EQ(ch.key_generation(), 2u);
      });
}

TEST(SecureChannel, TamperedRecordRaisesMacErrorAndFailsClosed) {
  Fixture f;
  run_pair(
      f,
      [](SecureChannel& ch) -> Task<void> {
        // Flip a ciphertext bit in flight (what a corrupting WAN link does).
        ch.corrupt_next_record();
        co_await ch.send(to_bytes("tampered in flight"));
      },
      [](SecureChannel& ch) -> Task<void> {
        bool mac_error = false;
        try {
          (void)co_await ch.recv();
        } catch (const MacError&) {
          mac_error = true;
        }
        EXPECT_TRUE(mac_error);
        EXPECT_TRUE(ch.failed());
        // Fail-closed: the channel refuses further traffic in both
        // directions.
        bool send_refused = false;
        try {
          co_await ch.send(to_bytes("x"));
        } catch (const SecurityError&) {
          send_refused = true;
        }
        EXPECT_TRUE(send_refused);
        bool recv_refused = false;
        try {
          (void)co_await ch.recv();
        } catch (const SecurityError&) {
          recv_refused = true;
        }
        EXPECT_TRUE(recv_refused);
      });
}

TEST(SecureChannel, NullMacCannotDetectTampering) {
  // Without a MAC (gfs-like suite) the corruption goes unnoticed — the
  // paper's argument for the integrity-protected suites.
  Fixture f(Cipher::kNull, MacAlgo::kNull);
  run_pair(
      f,
      [](SecureChannel& ch) -> Task<void> {
        ch.corrupt_next_record();
        co_await ch.send(to_bytes("tampered in flight"));
        ch.close();
      },
      [](SecureChannel& ch) -> Task<void> {
        Buffer msg = co_await ch.recv();
        EXPECT_EQ(msg.size(), std::string("tampered in flight").size());
        EXPECT_NE(sgfs::to_string(msg), "tampered in flight");
      });
}

TEST(SecureChannel, WireBytesAreNotPlaintext) {
  // Sniff the link: with AES enabled, the plaintext must not appear on the
  // wire.  We check by inspecting total bytes and a plaintext marker.
  Fixture f;
  const std::string kSecret = "TOP-SECRET-GRID-DATA-1234567890";
  run_pair(
      f,
      [&kSecret](SecureChannel& ch) -> Task<void> {
        co_await ch.send(to_bytes(kSecret));
        // Ciphertext expands: record bytes > plaintext bytes.
        EXPECT_GT(ch.stream().bytes_sent(), kSecret.size());
        ch.close();
      },
      [](SecureChannel& ch) -> Task<void> {
        (void)co_await ch.recv();
      });
}

TEST(SecureChannel, CryptoCostChargedOnCpu) {
  Fixture f;
  run_pair(
      f,
      [](SecureChannel& ch) -> Task<void> {
        co_await ch.send(Buffer(32 * 1024, 0x7));
        ch.close();
      },
      [](SecureChannel& ch) -> Task<void> {
        (void)co_await ch.recv();
      });
  // Handshake + record costs must appear on both hosts' CPUs.
  EXPECT_GT(f.client->cpu().busy_for("crypto"), 0);
  EXPECT_GT(f.server->cpu().busy_for("crypto"), 0);
}

// --- record bytes on the wire ---------------------------------------------

// Payload lengths on both sides of the AES block (16 bytes) and SHA-1 window
// (64 bytes) edges, once the record's type byte, CBC padding and the 8-byte
// sequence number in front of the MAC stream are counted in.
constexpr size_t kEdgeLengths[] = {0,  1,  15, 16, 39,   40,    47,   48,
                                   55, 56, 63, 64, 4095, 16384, 32775};
constexpr uint64_t kHighSeq = (uint64_t{1} << 32) + 5;

// Every edge length, a three-segment payload, then two records numbered
// past 2^32; all payload bytes come from `rng`.
Task<void> send_edge_records(SecureChannel& ch, Rng& rng) {
  for (size_t n : kEdgeLengths) co_await ch.send(rng.bytes(n));
  BufChain multi(rng.bytes(5));
  multi.append(rng.bytes(4096));
  multi.append(rng.bytes(11));
  co_await ch.send_chain(std::move(multi));
  SecureChannelTestPeer::set_send_seq(ch, kHighSeq);
  co_await ch.send(rng.bytes(40));
  co_await ch.send(rng.bytes(100));
}

// Appends the raw stream bytes to `out` until the peer closes.
Task<void> read_raw_to_eof(net::Stream& s, Buffer* out) {
  for (;;) {
    while (!s.readable_now(1)) co_await s.readable(1);
    uint8_t buf[4096];
    const size_t n = s.try_read(buf);
    if (n == 0) co_return;
    out->insert(out->end(), buf, buf + n);
  }
}

struct GoldenSuite {
  Cipher cipher;
  MacAlgo mac;
  const char* sha256;  // of every byte the client sent after the handshake
};

// The literals were recorded before the one-pass AES + HMAC-SHA1 seal
// replaced the two-pass one; never edit them to make a change pass.
TEST(SecureChannel, GoldenRecordBytes) {
  const GoldenSuite suites[] = {
      {Cipher::kNull, MacAlgo::kHmacSha1,
       "f672ba728e1a2ab388f86166ba10391a6c69b91da236e88562c5f42034d9652d"},
      {Cipher::kRc4_128, MacAlgo::kHmacSha1,
       "60ea598135b1ba04a3e3cb2fb1d92290bd9b4587bcd442fa68f20412c217d740"},
      {Cipher::kAes128Cbc, MacAlgo::kHmacSha1,
       "bbec011fcf989c2c3dd011731d00b6dd1417701c3d4ed7c60b13a3c834ddc983"},
      {Cipher::kAes256Cbc, MacAlgo::kHmacSha1,
       "4acda8a996914069724534cd31aa855b56acf445de434fb18c381259b0515fea"},
      {Cipher::kNull, MacAlgo::kNull,
       "2c188f44ea1693561df2983aff2457835273ba65ef4dd966735c0518d25b24e9"},
  };
  for (const auto& suite : suites) {
    SCOPED_TRACE(to_string(suite.cipher) + "/" + to_string(suite.mac));
    Fixture f(suite.cipher, suite.mac);
    Buffer raw;
    run_pair(
        f,
        [](SecureChannel& ch) -> Task<void> {
          Rng rng(77);
          co_await send_edge_records(ch, rng);
          // Fault injection flips its bit in the sealed record.
          ch.corrupt_next_record();
          co_await ch.send(rng.bytes(48));
          ch.close();
        },
        [&raw](SecureChannel& ch) -> Task<void> {
          co_await read_raw_to_eof(ch.stream(), &raw);
        });
    std::vector<size_t> payloads(std::begin(kEdgeLengths),
                                 std::end(kEdgeLengths));
    payloads.insert(payloads.end(), {5 + 4096 + 11, 40, 100, 48});
    size_t expect_size = 0;
    for (size_t n : payloads) {
      const size_t plain = 1 + n;  // the record type byte leads
      const bool cbc = suite.cipher == Cipher::kAes128Cbc ||
                       suite.cipher == Cipher::kAes256Cbc;
      expect_size += 4 + (cbc ? plain + 16 - plain % 16 : plain) +
                     (suite.mac == MacAlgo::kHmacSha1 ? 20 : 0);
    }
    EXPECT_EQ(raw.size(), expect_size);
    EXPECT_EQ(to_hex(digest_bytes(Sha256::hash(raw))), suite.sha256);
  }
}

class SecureChannelEdgeTest
    : public ::testing::TestWithParam<std::pair<Cipher, MacAlgo>> {};

TEST_P(SecureChannelEdgeTest, EdgeLengthRecordsRoundTrip) {
  auto [cipher, mac] = GetParam();
  Fixture f(cipher, mac);
  run_pair(
      f,
      [](SecureChannel& ch) -> Task<void> {
        Rng rng(78);
        co_await send_edge_records(ch, rng);
        ch.close();
      },
      [](SecureChannel& ch) -> Task<void> {
        Rng rng(78);
        for (size_t n : kEdgeLengths) {
          Buffer got = co_await ch.recv();
          EXPECT_EQ(got, rng.bytes(n)) << n << " bytes";
        }
        Buffer multi = rng.bytes(5);
        append(multi, rng.bytes(4096));
        append(multi, rng.bytes(11));
        const Buffer got_multi = co_await ch.recv();
        EXPECT_EQ(got_multi, multi);
        SecureChannelTestPeer::set_recv_seq(ch, kHighSeq);
        const Buffer high = co_await ch.recv();
        EXPECT_EQ(high, rng.bytes(40));
        const Buffer higher = co_await ch.recv();
        EXPECT_EQ(higher, rng.bytes(100));
        EXPECT_EQ(ch.records_received(), kHighSeq + 2);
      });
}

INSTANTIATE_TEST_SUITE_P(
    Suites, SecureChannelEdgeTest,
    ::testing::Values(
        std::make_pair(Cipher::kNull, MacAlgo::kHmacSha1),
        std::make_pair(Cipher::kRc4_128, MacAlgo::kHmacSha1),
        std::make_pair(Cipher::kAes128Cbc, MacAlgo::kHmacSha1),
        std::make_pair(Cipher::kAes256Cbc, MacAlgo::kHmacSha1),
        std::make_pair(Cipher::kNull, MacAlgo::kNull)));

TEST(CryptoCostModel, StrongerCipherCostsMore) {
  CryptoCostModel m;
  const size_t bytes = 32 * 1024;
  auto none = m.record_cost(Cipher::kNull, MacAlgo::kNull, bytes);
  auto sha = m.record_cost(Cipher::kNull, MacAlgo::kHmacSha1, bytes);
  auto rc4 = m.record_cost(Cipher::kRc4_128, MacAlgo::kHmacSha1, bytes);
  auto aes = m.record_cost(Cipher::kAes256Cbc, MacAlgo::kHmacSha1, bytes);
  EXPECT_LT(none, sha);
  EXPECT_LT(sha, rc4);
  EXPECT_LT(rc4, aes);
}

TEST(CipherNames, RoundTrip) {
  for (Cipher c : {Cipher::kNull, Cipher::kRc4_128, Cipher::kAes128Cbc,
                   Cipher::kAes256Cbc}) {
    EXPECT_EQ(cipher_from_string(to_string(c)), c);
  }
  for (MacAlgo m : {MacAlgo::kNull, MacAlgo::kHmacSha1}) {
    EXPECT_EQ(mac_from_string(to_string(m)), m);
  }
  EXPECT_THROW(cipher_from_string("des"), std::invalid_argument);
  EXPECT_THROW(mac_from_string("md5"), std::invalid_argument);
}

}  // namespace
}  // namespace sgfs::crypto

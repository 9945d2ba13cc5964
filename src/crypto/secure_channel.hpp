// TLS/SSL-style secure channel over a net::Stream.
//
// This is the repo's OpenSSL substitute (paper §4.1): SGFS protects NFS RPC
// traffic by running it over a mutually-authenticated, encrypted and MAC'd
// connection between the client- and server-side proxies.  The handshake is
// a simplified TLS-RSA exchange:
//
//   C -> S  ClientHello   { random, offered cipher+mac }
//   S -> C  ServerHello   { random, chosen cipher+mac, server cert chain }
//   C -> S  ClientKey     { client cert chain, RSA(premaster),
//                           CertificateVerify = sign(transcript) }
//   C <-> S Finished      { HMAC(master, transcript) both directions }
//
// Keys are derived from the premaster + both randoms; records are
// encrypt-then-MAC with per-direction sequence numbers (anti-replay).
// Renegotiation (paper §4.2: refresh session keys on long-lived sessions,
// reload certificates) runs the same handshake in-band, protected by the
// current keys.
//
// Real bytes are really transformed by our AES/RC4/HMAC implementations;
// simulated CPU cost is charged against the local host's CPU resource via
// the CryptoCostModel so benchmarks see the paper's security/performance
// tradeoff.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "common/bufchain.hpp"
#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "crypto/aes.hpp"
#include "crypto/cert.hpp"
#include "crypto/hmac.hpp"
#include "crypto/rc4.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "sim/task.hpp"

namespace sgfs::crypto {

class SecurityError : public std::runtime_error {
 public:
  explicit SecurityError(const std::string& what)
      : std::runtime_error("security: " + what) {}
};

/// Record authentication (MAC) failure: the record was tampered with or
/// corrupted in flight.  Distinct from generic SecurityError so the proxy
/// layer can translate it into a session re-establishment instead of a
/// fatal error.  The channel fails closed after raising this.
class MacError : public SecurityError {
 public:
  MacError() : SecurityError("record MAC verification failed") {}
};

enum class Cipher : int32_t {
  kNull = 0,     // integrity only (sgfs-sha)
  kRc4_128 = 1,  // medium strength (sgfs-rc)
  kAes128Cbc = 2,
  kAes256Cbc = 3,  // strong (sgfs-aes)
};

enum class MacAlgo : int32_t {
  kNull = 0,
  kHmacSha1 = 1,
};

std::string to_string(Cipher c);
std::string to_string(MacAlgo m);
Cipher cipher_from_string(const std::string& s);
MacAlgo mac_from_string(const std::string& s);

/// Simulated CPU cost of cryptographic work, charged per byte/operation.
/// Default values model 2007-era Xeon software crypto (see DESIGN.md §3).
struct CryptoCostModel {
  // "Effective" per-byte throughputs calibrated against the paper's
  // measured overheads (sgfs-sha +9%, sgfs-rc +15%, sgfs-aes +50% over
  // gfs on IOzone) — they fold in the pipeline overlap of the original
  // OpenSSL deployment, hence higher than raw 2007 cipher speeds.
  double aes256_bytes_per_sec = 95.0e6;
  double aes128_bytes_per_sec = 130.0e6;
  double rc4_bytes_per_sec = 650.0e6;
  double sha1_bytes_per_sec = 390.0e6;
  sim::SimDur per_record_cpu = 3 * sim::kMicrosecond;
  sim::SimDur handshake_cpu = 15 * sim::kMillisecond;  // RSA ops, 2007 HW
  /// Abbreviated (resumed) handshake: symmetric key schedule only, no RSA.
  sim::SimDur resume_cpu = 500 * sim::kMicrosecond;

  CryptoCostModel() = default;

  sim::SimDur record_cost(Cipher c, MacAlgo m, size_t bytes) const;
};

/// Everything a full handshake established, packaged so sibling streams of
/// the same session can skip the RSA exchange (DotDFS-style stream pools):
/// per-stream keys are derived from `secret` + the stream index, so K
/// streams share one RSA handshake yet never share record keys.
struct ResumptionTicket {
  Buffer session_id;  // 16 bytes, derived from the master secret
  Buffer secret;      // 48-byte resumption secret (never sent on the wire)
  Cipher cipher = Cipher::kNull;
  MacAlgo mac = MacAlgo::kNull;
  Certificate peer_cert;  // peer identity carried over from the full shake
  DistinguishedName peer_identity;

  ResumptionTicket() = default;
};

/// Server-side ticket store, shared (via SecurityConfig) between the
/// handshakes that issue tickets and the abbreviated handshakes that redeem
/// them — both pool sibling streams and cross-session reconnects.  Bounded:
/// `capacity` live tickets with LRU eviction (a find() refreshes recency),
/// and an optional TTL after which a ticket fails closed exactly like an
/// unknown one.  Volatile by design — a server restart wipes it and clients
/// fall back to a full handshake.
class ResumptionCache {
 public:
  static constexpr size_t kDefaultCapacity = 1024;

  ResumptionCache() = default;
  explicit ResumptionCache(size_t capacity, int64_t ttl_seconds = 0)
      : capacity_(capacity ? capacity : 1), ttl_s_(ttl_seconds) {}

  /// Stores (or refreshes) a ticket.  `now_s` is the wall-clock epoch used
  /// for TTL accounting; callers without a clock may pass 0 (tickets then
  /// only age relative to other 0-stamped puts).
  void put(const ResumptionTicket& ticket, int64_t now_s = 0);
  /// Looks a ticket up, touching its LRU recency.  Expired tickets are
  /// erased and reported as absent (fail closed).
  std::optional<ResumptionTicket> find(const Buffer& session_id,
                                       int64_t now_s = 0);
  /// Revocation purge: drops every ticket minted for `dn` so a revoked
  /// reader cannot resume its way back in.  Returns tickets dropped.
  size_t erase_identity(const DistinguishedName& dn);
  void clear() {
    by_id_.clear();
    lru_.clear();
  }
  size_t size() const { return by_id_.size(); }
  int64_t ttl_seconds() const { return ttl_s_; }
  size_t capacity() const { return capacity_; }
  uint64_t evictions() const { return evictions_; }
  uint64_t expirations() const { return expirations_; }

 private:
  struct Entry {
    ResumptionTicket ticket;
    int64_t stored_at = 0;
    uint64_t stamp = 0;

    Entry() = default;
  };

  size_t capacity_ = kDefaultCapacity;
  int64_t ttl_s_ = 0;  // 0 = tickets never expire
  uint64_t clock_ = 0;
  uint64_t evictions_ = 0;
  uint64_t expirations_ = 0;
  std::map<Buffer, Entry> by_id_;
  std::map<uint64_t, Buffer> lru_;  // stamp -> id, oldest first
};

/// Everything a proxy needs to open or accept secure connections.
/// Mirrors the paper's proxy security configuration file section.
struct SecurityConfig {
  Cipher cipher = Cipher::kAes256Cbc;
  MacAlgo mac = MacAlgo::kHmacSha1;
  Credential credential;
  std::vector<Certificate> trusted;
  CryptoCostModel cost;
  /// Automatic session-key renegotiation period; 0 disables (paper §4.2).
  sim::SimDur renegotiate_interval = 0;
  /// Server side: ticket store enabling abbreviated handshakes (pool
  /// sibling streams and cross-session reconnects).  Non-null, the
  /// listener negotiates the handshake flavour from the first message's
  /// magic.  Null (the default) keeps the strict full-handshake path.
  std::shared_ptr<ResumptionCache> resumption;

  SecurityConfig() = default;
};

class SecureChannel {
 public:
  /// Client side: performs the handshake on an open stream.
  /// Throws SecurityError on authentication failure.
  static sim::Task<std::unique_ptr<SecureChannel>> connect(
      net::StreamPtr stream, const SecurityConfig& config, Rng& rng,
      int64_t now_epoch);

  /// Server side: answers a handshake.  When `config.resumption` holds a
  /// ticket store the listener dispatches on the first message's magic:
  /// abbreviated resumed handshake, or a full one as fallback (e.g. after
  /// the server restarted and forgot the ticket).  Without one a resumed
  /// hello fails closed.
  static sim::Task<std::unique_ptr<SecureChannel>> accept(
      net::StreamPtr stream, const SecurityConfig& config, Rng& rng,
      int64_t now_epoch);

  /// Client side: abbreviated handshake for stream `stream_index` of an
  /// established session — derives fresh per-stream keys from the ticket
  /// with no RSA work.  Throws SecurityError if the server no longer
  /// remembers the session.
  static sim::Task<std::unique_ptr<SecureChannel>> connect_resumed(
      net::StreamPtr stream, const SecurityConfig& config, Rng& rng,
      int64_t now_epoch, const ResumptionTicket& ticket,
      uint32_t stream_index);

  /// Sends one application message as an encrypted+MAC'd record.  The
  /// chain's payload segments are grafted/encrypted without an intermediate
  /// plaintext copy; segment stores must stay immutable after the call.
  sim::Task<void> send_chain(BufChain message);

  /// Convenience wrapper that copies `message` into a chain (counted).
  sim::Task<void> send(ByteView message);

  /// Receives one application message as a shared slice of the decrypted
  /// record; handles in-band renegotiation transparently.  Throws
  /// StreamClosed at EOF, SecurityError on tamper.
  sim::Task<BufChain> recv_chain();

  /// Convenience wrapper that flattens the received chain (counted).
  sim::Task<Buffer> recv();

  /// Client-initiated key renegotiation (paper §4.2): re-runs the handshake
  /// in-band and installs fresh session keys.
  sim::Task<void> renegotiate();

  void close() { stream_->close(); }

  /// The peer's validated *effective* grid identity (proxies unwrapped).
  const DistinguishedName& peer_identity() const { return peer_identity_; }
  /// The leaf certificate the peer presented.
  const Certificate& peer_certificate() const { return peer_cert_; }

  Cipher cipher() const { return cipher_; }
  MacAlgo mac() const { return mac_; }
  /// Incremented on every (re)negotiation.
  uint32_t key_generation() const { return key_generation_; }
  uint64_t records_sent() const { return send_seq_; }
  uint64_t records_received() const { return recv_seq_; }

  /// Ticket for opening sibling streams of this session (client side after
  /// a full handshake; the server publishes its copy into
  /// config.resumption instead).
  ResumptionTicket ticket() const;
  /// True when this channel's keys came from an abbreviated handshake.
  bool resumed() const { return resumed_; }
  /// FNV-1a over the derived key block: equal across the two ends of one
  /// stream, distinct across sibling streams (per-stream key separation).
  uint64_t key_fingerprint() const { return key_fingerprint_; }

  /// True once the channel failed closed (MAC failure or framing garbage);
  /// every subsequent send/recv throws.  Recovery = new channel.
  bool failed() const { return failed_; }

  /// Fault-injection seam: flips one bit of the next outgoing data record
  /// AFTER protection, emulating in-flight corruption the receiver's MAC
  /// check must catch.
  void corrupt_next_record() { corrupt_next_ = true; }

  net::Stream& stream() { return *stream_; }

 private:
  // Lets tests start the record sequence numbers past 2^32.
  friend struct SecureChannelTestPeer;

  enum class RecordType : uint8_t {
    kHandshake = 1,
    kData = 2,
    kRenegotiate = 3,
  };

  SecureChannel(net::StreamPtr stream, const SecurityConfig& config,
                Rng& rng, bool is_client, int64_t now_epoch);

  sim::Task<void> handshake();
  /// Server flow after the ClientHello was read (shared by the primary
  /// listener and the stream listener's full-handshake fallback).
  sim::Task<void> server_handshake_rest(BufChain hello, int64_t epoch);
  /// Negotiating server dispatch: resumed or full by hello magic.
  sim::Task<void> handshake_stream();
  /// Client-side abbreviated handshake: pool streams use their slot index;
  /// cross-session reconnects use a fresh high index per reconnect so key
  /// blocks never repeat across a ticket's redemptions.
  sim::Task<void> handshake_resume(const ResumptionTicket& ticket,
                                   uint32_t stream_index);
  sim::Task<void> server_resume_rest(BufChain first, int64_t epoch);
  sim::Task<void> send_finished(const std::string& label, const Buffer& base);
  sim::Task<void> expect_finished(const std::string& label,
                                  const Buffer& base);
  sim::Task<void> send_record(RecordType type, BufChain payload);
  struct Record {
    RecordType type;
    BufChain payload;
    Record(RecordType t, BufChain p) : type(t), payload(std::move(p)) {}
  };
  sim::Task<Record> recv_record();
  sim::Task<void> send_handshake_msg(BufChain payload);
  sim::Task<BufChain> recv_handshake_msg();

  void install_keys(ByteView premaster, ByteView client_random,
                    ByteView server_random);
  /// The wire form of an AES + HMAC-SHA1 record, sealed in one pass
  /// straight into one buffer: length word, ciphertext of type || payload,
  /// MAC of seq || ciphertext.  `corrupt` flips one bit (fault injection).
  BufChain seal_cbc_hmac(uint64_t seq, uint8_t type, const BufChain& payload,
                         bool corrupt);
  /// The wire form of a record under the other suites: length word, then
  /// the ciphertext (or grafted plaintext for the null cipher) followed by
  /// the record MAC; `corrupt` as above.  Scatter-gather: never
  /// materialises a contiguous plaintext copy.
  BufChain protect_chain(uint64_t seq, const BufChain& plaintext,
                         bool corrupt);
  /// Verifies and strips the MAC, then decrypts; reads the received slices
  /// in place (the null cipher returns a slice of them).
  BufChain unprotect(uint64_t seq, const BufChain& record);
  sim::Task<void> charge_crypto(size_t bytes);

  net::StreamPtr stream_;
  SecurityConfig config_;
  Rng& rng_;
  bool is_client_;
  int64_t now_epoch_;

  Cipher cipher_ = Cipher::kNull;
  MacAlgo mac_ = MacAlgo::kNull;
  bool established_ = false;
  bool failed_ = false;
  bool corrupt_next_ = false;
  bool resumed_ = false;
  uint32_t key_generation_ = 0;
  uint64_t send_seq_ = 0;
  uint64_t recv_seq_ = 0;
  uint64_t key_fingerprint_ = 0;
  Buffer session_id_;          // derived alongside the key block
  Buffer resumption_secret_;   // never leaves this process

  // Record-MAC and IV-derivation keys, keyed at install_keys().
  std::optional<HmacSha1> send_mac_, recv_mac_;
  std::optional<HmacSha1> send_iv_mac_, recv_iv_mac_;
  std::unique_ptr<Aes> send_aes_, recv_aes_;
  std::unique_ptr<Rc4> send_rc4_, recv_rc4_;

  Certificate peer_cert_;
  DistinguishedName peer_identity_;
  Buffer transcript_;  // running handshake transcript

  // Per-record metric handles (lazy; see obs::CounterHandle).  The channel
  // owns stream_, so the registry reference outlives every record.
  obs::HistogramHandle m_record_cost_ns_;
  obs::CounterHandle m_bytes_processed_, m_records_sent_, m_bytes_sent_;
  obs::CounterHandle m_records_recv_, m_bytes_recv_;
};

}  // namespace sgfs::crypto

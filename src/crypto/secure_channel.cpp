#include "crypto/secure_channel.hpp"

#include <array>
#include <cstring>

#include "common/log.hpp"
#include "crypto/seal.hpp"
#include "xdr/xdr.hpp"

namespace sgfs::crypto {

namespace {

constexpr uint32_t kHelloMagic = 0x53474653;   // "SGFS"
constexpr uint32_t kResumeMagic = 0x53475253;  // "SGRS": resumed stream
constexpr size_t kRandomSize = 32;
constexpr size_t kPremasterSize = 48;
constexpr size_t kSessionIdSize = 16;
constexpr size_t kMaxRecord = 4u << 20;  // 4 MiB

std::array<uint8_t, 8> be64(uint64_t v) {
  std::array<uint8_t, 8> out;
  for (int i = 7; i >= 0; --i) {
    out[i] = static_cast<uint8_t>(v);
    v >>= 8;
  }
  return out;
}

void store_be32(uint8_t* p, uint32_t v) {
  for (int i = 3; i >= 0; --i, v >>= 8) p[i] = static_cast<uint8_t>(v);
}

uint32_t load_be32(const uint8_t* p) {
  return (static_cast<uint32_t>(p[0]) << 24) |
         (static_cast<uint32_t>(p[1]) << 16) |
         (static_cast<uint32_t>(p[2]) << 8) | static_cast<uint32_t>(p[3]);
}

// Key expansion lives in crypto/seal.hpp now (the cache sealer shares it).

uint64_t fnv1a64(ByteView data) {
  uint64_t h = 1469598103934665603ull;
  for (uint8_t b : data) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

// Per-stream premaster: both ends of stream i of a resumed session derive
// the same value from the (never-transmitted) resumption secret, yet
// distinct streams get unrelated key blocks.
Buffer stream_premaster(ByteView secret, const Buffer& session_id,
                        uint32_t stream_index) {
  Buffer seed = session_id;
  append(seed, be64(stream_index));
  return derive(secret, "sgfs stream", seed, kPremasterSize);
}

void encode_chain(xdr::Encoder& enc, const std::vector<Certificate>& chain) {
  enc.put_u32(static_cast<uint32_t>(chain.size()));
  for (const auto& c : chain) enc.put_opaque(c.serialize());
}

std::vector<Certificate> decode_chain(xdr::Decoder& dec) {
  uint32_t n = dec.get_u32();
  if (n > 8) throw SecurityError("certificate chain too long");
  std::vector<Certificate> chain;
  chain.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    // Per-field cap: a real certificate serializes to well under 16 KiB;
    // without this a forged length word could demand a 64 MiB allocation.
    chain.push_back(Certificate::deserialize(dec.get_opaque(16 * 1024)));
  }
  return chain;
}

}  // namespace

std::string to_string(Cipher c) {
  switch (c) {
    case Cipher::kNull: return "null";
    case Cipher::kRc4_128: return "rc4-128";
    case Cipher::kAes128Cbc: return "aes-128-cbc";
    case Cipher::kAes256Cbc: return "aes-256-cbc";
  }
  return "?";
}

std::string to_string(MacAlgo m) {
  switch (m) {
    case MacAlgo::kNull: return "null";
    case MacAlgo::kHmacSha1: return "hmac-sha1";
  }
  return "?";
}

Cipher cipher_from_string(const std::string& s) {
  if (s == "null" || s == "none") return Cipher::kNull;
  if (s == "rc4-128" || s == "rc4") return Cipher::kRc4_128;
  if (s == "aes-128-cbc" || s == "aes-128") return Cipher::kAes128Cbc;
  if (s == "aes-256-cbc" || s == "aes-256") return Cipher::kAes256Cbc;
  throw std::invalid_argument("unknown cipher: " + s);
}

MacAlgo mac_from_string(const std::string& s) {
  if (s == "null" || s == "none") return MacAlgo::kNull;
  if (s == "hmac-sha1" || s == "sha1") return MacAlgo::kHmacSha1;
  throw std::invalid_argument("unknown MAC: " + s);
}

void ResumptionCache::put(const ResumptionTicket& ticket, int64_t now_s) {
  if (ticket.session_id.empty()) return;
  auto it = by_id_.find(ticket.session_id);
  if (it != by_id_.end()) lru_.erase(it->second.stamp);
  Entry e;
  e.ticket = ticket;
  e.stored_at = now_s;
  e.stamp = ++clock_;
  lru_[e.stamp] = ticket.session_id;
  by_id_[ticket.session_id] = std::move(e);
  while (by_id_.size() > capacity_) {
    auto oldest = lru_.begin();
    by_id_.erase(oldest->second);
    lru_.erase(oldest);
    ++evictions_;
  }
}

std::optional<ResumptionTicket> ResumptionCache::find(
    const Buffer& session_id, int64_t now_s) {
  auto it = by_id_.find(session_id);
  if (it == by_id_.end()) return std::nullopt;
  if (ttl_s_ > 0 && now_s - it->second.stored_at >= ttl_s_) {
    // Expired: fail closed exactly like an unknown ticket.
    lru_.erase(it->second.stamp);
    by_id_.erase(it);
    ++expirations_;
    return std::nullopt;
  }
  // Touch: a redeemed ticket is hot; evict the longest-idle one instead.
  lru_.erase(it->second.stamp);
  it->second.stamp = ++clock_;
  lru_[it->second.stamp] = session_id;
  return it->second.ticket;
}

size_t ResumptionCache::erase_identity(const DistinguishedName& dn) {
  size_t dropped = 0;
  for (auto it = by_id_.begin(); it != by_id_.end();) {
    if (it->second.ticket.peer_identity == dn) {
      lru_.erase(it->second.stamp);
      it = by_id_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  return dropped;
}

sim::SimDur CryptoCostModel::record_cost(Cipher c, MacAlgo m,
                                         size_t bytes) const {
  double secs = 0;
  switch (c) {
    case Cipher::kNull: break;
    case Cipher::kRc4_128: secs += bytes / rc4_bytes_per_sec; break;
    case Cipher::kAes128Cbc: secs += bytes / aes128_bytes_per_sec; break;
    case Cipher::kAes256Cbc: secs += bytes / aes256_bytes_per_sec; break;
  }
  if (m == MacAlgo::kHmacSha1) secs += bytes / sha1_bytes_per_sec;
  return per_record_cpu + sim::from_seconds(secs);
}

SecureChannel::SecureChannel(net::StreamPtr stream,
                             const SecurityConfig& config, Rng& rng,
                             bool is_client, int64_t now_epoch)
    : stream_(std::move(stream)),
      config_(config),
      rng_(rng),
      is_client_(is_client),
      now_epoch_(now_epoch) {
  auto& m = stream_->local_host().engine().metrics();
  m_record_cost_ns_ = {m, "crypto.record_cost_ns"};
  m_bytes_processed_ = {m, "crypto.bytes_processed"};
  m_records_sent_ = {m, "crypto.records_sent"};
  m_bytes_sent_ = {m, "crypto.bytes_sent"};
  m_records_recv_ = {m, "crypto.records_recv"};
  m_bytes_recv_ = {m, "crypto.bytes_recv"};
}

sim::Task<std::unique_ptr<SecureChannel>> SecureChannel::connect(
    net::StreamPtr stream, const SecurityConfig& config, Rng& rng,
    int64_t now_epoch) {
  auto ch = std::unique_ptr<SecureChannel>(new SecureChannel(
      std::move(stream), config, rng, /*is_client=*/true, now_epoch));
  try {
    co_await ch->handshake();
  } catch (...) {
    ch->stream_->close();  // unblock the peer
    throw;
  }
  co_return ch;
}

sim::Task<std::unique_ptr<SecureChannel>> SecureChannel::accept(
    net::StreamPtr stream, const SecurityConfig& config, Rng& rng,
    int64_t now_epoch) {
  auto ch = std::unique_ptr<SecureChannel>(new SecureChannel(
      std::move(stream), config, rng, /*is_client=*/false, now_epoch));
  try {
    if (config.resumption) {
      co_await ch->handshake_stream();
    } else {
      co_await ch->handshake();
    }
  } catch (...) {
    ch->stream_->close();  // unblock the peer
    throw;
  }
  co_return ch;
}

sim::Task<std::unique_ptr<SecureChannel>> SecureChannel::connect_resumed(
    net::StreamPtr stream, const SecurityConfig& config, Rng& rng,
    int64_t now_epoch, const ResumptionTicket& ticket,
    uint32_t stream_index) {
  auto ch = std::unique_ptr<SecureChannel>(new SecureChannel(
      std::move(stream), config, rng, /*is_client=*/true, now_epoch));
  try {
    co_await ch->handshake_resume(ticket, stream_index);
  } catch (...) {
    ch->stream_->close();  // unblock the peer
    throw;
  }
  co_return ch;
}

// --- record layer -----------------------------------------------------------

sim::Task<void> SecureChannel::charge_crypto(size_t bytes) {
  const sim::SimDur cost = config_.cost.record_cost(cipher_, mac_, bytes);
  m_record_cost_ns_.observe(cost);
  m_bytes_processed_.inc(bytes);
  co_await stream_->local_host().cpu().use(cost, "crypto");
}

BufChain SecureChannel::seal_cbc_hmac(uint64_t seq, uint8_t type,
                                      const BufChain& payload, bool corrupt) {
  const auto seq_bytes = be64(seq);
  send_iv_mac_->update(seq_bytes);
  const auto iv_mac = send_iv_mac_->finish();
  // One buffer of the record's final size: the sequence number sits in the
  // 8 bytes in front of the ciphertext, where the MAC stream starts, and
  // its low half then turns into the length word; the wire form is the
  // buffer from offset 4.
  const size_t sealed =
      cbc_ciphertext_size(1 + payload.size()) + Sha1::kDigestSize;
  Buffer buf(8 + sealed);
  std::memcpy(buf.data(), seq_bytes.data(), seq_bytes.size());
  cbc_encrypt_then_mac(*send_aes_, ByteView(iv_mac.data(), Aes::kBlockSize),
                       ByteView(&type, 1), payload, *send_mac_,
                       buf.data() + 8, 8);
  store_be32(buf.data() + 4, static_cast<uint32_t>(sealed));
  // Fault injection flips its bit here, before anything shares the buffer.
  if (corrupt) buf[8 + sealed / 2] ^= 0x20;
  return BufChain(std::move(buf)).slice(4, 4 + sealed);
}

BufChain SecureChannel::protect_chain(uint64_t seq, const BufChain& plaintext,
                                      bool corrupt) {
  // Produce the ciphertext.  The cipher's working buffers are charged to the
  // crypto cost model, not buf_stats(): only the null cipher's graft (no
  // transformation) participates in copy accounting, as a zero-copy handoff.
  BufChain out;
  Buffer ct;
  switch (cipher_) {
    case Cipher::kNull:
      out = plaintext;
      break;
    case Cipher::kRc4_128: {
      // Gather + encrypt fused: one pass writes the keystream over the
      // gathered bytes in place (same keystream as the flat path).
      ct.reserve(plaintext.size());
      for (const auto& seg : plaintext.segments()) {
        ct.insert(ct.end(), seg.view().begin(), seg.view().end());
      }
      send_rc4_->process(ct);
      break;
    }
    case Cipher::kAes128Cbc:
    case Cipher::kAes256Cbc: {
      send_iv_mac_->update(be64(seq));
      auto iv_mac = send_iv_mac_->finish();
      ByteView iv(iv_mac.data(), Aes::kBlockSize);
      ct = aes_cbc_encrypt_chain(*send_aes_, iv, plaintext);
      break;
    }
  }
  if (mac_ == MacAlgo::kHmacSha1) {
    HmacSha1& h = *send_mac_;
    h.update(be64(seq));
    if (cipher_ == Cipher::kNull) {
      for (const auto& seg : plaintext.segments()) h.update(seg.view());
    } else {
      h.update(ct);
    }
    auto m = h.finish();
    if (cipher_ == Cipher::kNull) {
      out.append(Buffer(m.begin(), m.end()));
    } else {
      append(ct, ByteView(m.data(), m.size()));
    }
  }
  if (cipher_ != Cipher::kNull) out.append(std::move(ct));
  if (corrupt) {
    // Rare path: flattening here keeps the common path copy-free.
    Buffer flat = out.flatten();
    flat[flat.size() / 2] ^= 0x20;
    out = BufChain(std::move(flat));
  }
  xdr::Encoder enc;
  enc.put_u32(static_cast<uint32_t>(out.size()));
  BufChain wire = enc.take();
  wire.append(std::move(out));
  return wire;
}

BufChain SecureChannel::unprotect(uint64_t seq, const BufChain& record) {
  // A record is one write, so it normally arrives as one slice and this
  // view borrows it; only a record split across deliveries is copied.
  Buffer scratch;
  const ByteView wire = linearize(record, scratch);
  size_t body_len = wire.size();
  if (mac_ == MacAlgo::kHmacSha1) {
    if (wire.size() < Sha1::kDigestSize) {
      throw SecurityError("record too short for MAC");
    }
    body_len = wire.size() - Sha1::kDigestSize;
    HmacSha1& h = *recv_mac_;
    h.update(be64(seq));
    h.update(wire.first(body_len));
    auto expect = h.finish();
    if (!ct_equal(ByteView(expect.data(), expect.size()),
                  wire.subspan(body_len))) {
      throw MacError();
    }
  }
  const ByteView body = wire.first(body_len);
  switch (cipher_) {
    case Cipher::kNull:
      // The MAC tail is sliced off by length, never re-copied.
      return record.slice(0, body_len);
    case Cipher::kRc4_128: {
      Buffer plain(body.begin(), body.end());
      recv_rc4_->process(plain);
      return BufChain(std::move(plain));
    }
    case Cipher::kAes128Cbc:
    case Cipher::kAes256Cbc: {
      recv_iv_mac_->update(be64(seq));
      auto iv_mac = recv_iv_mac_->finish();
      ByteView iv(iv_mac.data(), Aes::kBlockSize);
      try {
        return BufChain(aes_cbc_decrypt(*recv_aes_, iv, body));
      } catch (const std::runtime_error& e) {
        throw SecurityError(e.what());
      }
    }
  }
  throw SecurityError("bad cipher state");
}

sim::Task<void> SecureChannel::send_record(RecordType type,
                                           BufChain payload) {
  if (failed_) throw SecurityError("channel failed closed");
  if (payload.size() > kMaxRecord) throw SecurityError("record too large");
  co_await charge_crypto(payload.size());
  const uint64_t seq = send_seq_++;
  // Fault injection: the record leaves us intact but the wire flips a bit.
  const bool corrupt = corrupt_next_ && type == RecordType::kData;
  if (corrupt) corrupt_next_ = false;
  // The record type is authenticated: it leads the plaintext.
  BufChain wire;
  if (send_aes_ && mac_ == MacAlgo::kHmacSha1) {
    wire = seal_cbc_hmac(seq, static_cast<uint8_t>(type), payload, corrupt);
  } else {
    // The payload segments are grafted untouched behind the type byte.
    BufChain framed{Buffer{static_cast<uint8_t>(type)}};
    framed.append(std::move(payload));
    wire = protect_chain(seq, framed, corrupt);
  }
  m_records_sent_.inc();
  m_bytes_sent_.inc(wire.size() - 4);
  co_await stream_->write(wire);
}

sim::Task<SecureChannel::Record> SecureChannel::recv_record() {
  if (failed_) throw SecurityError("channel failed closed");
  net::Stream& s = *stream_;
  uint8_t len_buf[4];
  while (!s.readable_now(sizeof len_buf)) co_await s.readable(sizeof len_buf);
  if (s.try_read(len_buf) != sizeof len_buf) throw net::StreamClosed();
  const uint32_t len = load_be32(len_buf);
  if (len == 0 || len > kMaxRecord + 64) {
    failed_ = true;
    stream_->close();
    throw SecurityError("bad record length");
  }
  while (!s.readable_now(len)) co_await s.readable(len);
  BufChain wire = s.take(len);
  if (wire.size() != len) throw net::StreamClosed();
  co_await charge_crypto(wire.size());
  m_records_recv_.inc();
  m_bytes_recv_.inc(wire.size());
  BufChain framed;
  try {
    // The sequence number is consumed only once the record authenticates;
    // advancing it on the failed attempt would silently desynchronise the
    // record counters for the rest of the session.
    framed = unprotect(recv_seq_, wire);
  } catch (const SecurityError&) {
    stream_->local_host().engine().metrics().counter("crypto.mac_failures")
        .inc();
    // Fail closed: nothing may be trusted under these keys any more; the
    // peer sees EOF and both sides must re-handshake on a fresh channel.
    failed_ = true;
    stream_->close();
    throw;
  }
  ++recv_seq_;
  if (framed.empty()) throw SecurityError("empty record");
  const auto type = static_cast<RecordType>(framed.at(0));
  co_return Record(type, framed.slice(1, framed.size() - 1));
}

sim::Task<void> SecureChannel::send_handshake_msg(BufChain payload) {
  for (const auto& seg : payload.segments()) append(transcript_, seg.view());
  co_await send_record(RecordType::kHandshake, std::move(payload));
}

sim::Task<BufChain> SecureChannel::recv_handshake_msg() {
  Record rec = co_await recv_record();
  if (rec.type != RecordType::kHandshake) {
    throw SecurityError("expected handshake message");
  }
  for (const auto& seg : rec.payload.segments()) {
    append(transcript_, seg.view());
  }
  co_return std::move(rec.payload);
}

// --- key schedule -----------------------------------------------------------

void SecureChannel::install_keys(ByteView premaster, ByteView client_random,
                                 ByteView server_random) {
  Buffer seed(client_random.begin(), client_random.end());
  append(seed, server_random);
  Buffer master = derive(premaster, "sgfs master", seed, 48);
  // Key block: c2s_mac(20) s2c_mac(20) c2s_key(32) s2c_key(32)
  //            c2s_iv(20) s2c_iv(20)
  Buffer block = derive(master, "sgfs keys", seed, 144);
  auto slice = [&](size_t off, size_t len) {
    return Buffer(block.begin() + off, block.begin() + off + len);
  };
  Buffer c2s_mac = slice(0, 20), s2c_mac = slice(20, 20);
  Buffer c2s_key = slice(40, 32), s2c_key = slice(72, 32);
  Buffer c2s_iv = slice(104, 20), s2c_iv = slice(124, 20);

  const Buffer& smac = is_client_ ? c2s_mac : s2c_mac;
  const Buffer& rmac = is_client_ ? s2c_mac : c2s_mac;
  const Buffer& skey = is_client_ ? c2s_key : s2c_key;
  const Buffer& rkey = is_client_ ? s2c_key : c2s_key;
  const Buffer& siv = is_client_ ? c2s_iv : s2c_iv;
  const Buffer& riv = is_client_ ? s2c_iv : c2s_iv;

  // Keyed once here; every record MAC and IV copies these states.
  send_mac_.emplace(smac);
  recv_mac_.emplace(rmac);
  send_iv_mac_.emplace(siv);
  recv_iv_mac_.emplace(riv);
  send_aes_.reset();
  recv_aes_.reset();
  send_rc4_.reset();
  recv_rc4_.reset();

  cipher_ = config_.cipher;
  mac_ = config_.mac;
  switch (cipher_) {
    case Cipher::kNull:
      break;
    case Cipher::kRc4_128: {
      send_rc4_ = std::make_unique<Rc4>(ByteView(skey.data(), 16));
      recv_rc4_ = std::make_unique<Rc4>(ByteView(rkey.data(), 16));
      send_rc4_->skip(1024);  // RC4-drop
      recv_rc4_->skip(1024);
      break;
    }
    case Cipher::kAes128Cbc:
      send_aes_ = std::make_unique<Aes>(ByteView(skey.data(), 16));
      recv_aes_ = std::make_unique<Aes>(ByteView(rkey.data(), 16));
      break;
    case Cipher::kAes256Cbc:
      send_aes_ = std::make_unique<Aes>(skey);
      recv_aes_ = std::make_unique<Aes>(rkey);
      break;
  }
  // Session-resumption material rides the same schedule: a stable id the
  // server can look tickets up by, and a secret sibling streams derive
  // their premasters from.  Pure derivation — no RNG draws, no CPU charge
  // — so sessions that never resume are unaffected.
  session_id_ = derive(master, "sgfs session id", seed, kSessionIdSize);
  resumption_secret_ = derive(master, "sgfs resumption", seed, 48);
  key_fingerprint_ = fnv1a64(block);
  ++key_generation_;
}

ResumptionTicket SecureChannel::ticket() const {
  if (!established_) throw SecurityError("no established session to resume");
  ResumptionTicket t;
  t.session_id = session_id_;
  t.secret = resumption_secret_;
  t.cipher = cipher_;
  t.mac = mac_;
  t.peer_cert = peer_cert_;
  t.peer_identity = peer_identity_;
  return t;
}

// --- handshake --------------------------------------------------------------

sim::Task<void> SecureChannel::handshake() {
  // Handshake records travel under the *current* protection state: plaintext
  // for the initial handshake, the live session keys for renegotiation.
  transcript_.clear();
  const int64_t epoch =
      now_epoch_ +
      sim::to_seconds(stream_->local_host().engine().now());

  stream_->local_host().engine().metrics().counter("crypto.handshakes").inc();
  co_await stream_->local_host().cpu().use(config_.cost.handshake_cpu,
                                           "crypto");

  if (is_client_) {
    // ClientHello
    Buffer client_random = rng_.bytes(kRandomSize);
    {
      xdr::Encoder enc;
      enc.put_u32(kHelloMagic);
      enc.put_opaque(client_random);
      enc.put_enum(config_.cipher);
      enc.put_enum(config_.mac);
      co_await send_handshake_msg(enc.take());
    }
    // ServerHello
    Buffer server_random;
    {
      BufChain msg = co_await recv_handshake_msg();
      xdr::Decoder dec(msg);
      if (dec.get_u32() != kHelloMagic) throw SecurityError("bad magic");
      server_random = dec.get_opaque(kRandomSize);
      const auto srv_cipher = dec.get_enum<Cipher>();
      const auto srv_mac = dec.get_enum<MacAlgo>();
      if (srv_cipher != config_.cipher || srv_mac != config_.mac) {
        throw SecurityError("cipher suite mismatch");
      }
      auto chain = decode_chain(dec);
      auto result = validate_chain(chain, config_.trusted, epoch);
      if (!result.ok) {
        throw SecurityError("server certificate rejected: " + result.error);
      }
      peer_cert_ = chain.front();
      peer_identity_ = result.effective_identity;
    }
    // ClientKey: chain + encrypted premaster + CertificateVerify.
    Buffer premaster = rng_.bytes(kPremasterSize);
    {
      xdr::Encoder enc;
      encode_chain(enc, config_.credential.presented_chain());
      enc.put_opaque(rsa_encrypt(peer_cert_.key, rng_, premaster));
      enc.put_opaque(
          rsa_sign_sha1(config_.credential.private_key, transcript_));
      co_await send_handshake_msg(enc.take());
    }
    install_keys(premaster, client_random, server_random);
    // Finished exchange under the new keys.
    Buffer base = transcript_;
    co_await send_finished("client finished", base);
    co_await expect_finished("server finished", base);
  } else {
    BufChain hello = co_await recv_handshake_msg();
    co_await server_handshake_rest(std::move(hello), epoch);
  }
  established_ = true;
}

sim::Task<void> SecureChannel::server_handshake_rest(BufChain hello,
                                                     int64_t epoch) {
  // ClientHello
  Buffer client_random;
  {
    xdr::Decoder dec(hello);
    if (dec.get_u32() != kHelloMagic) throw SecurityError("bad magic");
    client_random = dec.get_opaque(kRandomSize);
    const auto cli_cipher = dec.get_enum<Cipher>();
    const auto cli_mac = dec.get_enum<MacAlgo>();
    if (cli_cipher != config_.cipher || cli_mac != config_.mac) {
      throw SecurityError("cipher suite mismatch");
    }
  }
  // ServerHello
  Buffer server_random = rng_.bytes(kRandomSize);
  {
    xdr::Encoder enc;
    enc.put_u32(kHelloMagic);
    enc.put_opaque(server_random);
    enc.put_enum(config_.cipher);
    enc.put_enum(config_.mac);
    encode_chain(enc, config_.credential.presented_chain());
    co_await send_handshake_msg(enc.take());
  }
  // ClientKey
  Buffer premaster;
  {
    BufChain msg = co_await recv_handshake_msg();
    xdr::Decoder dec(msg);
    auto chain = decode_chain(dec);
    Buffer enc_premaster = dec.get_opaque(4096);
    Buffer verify_sig = dec.get_opaque(4096);

    auto result = validate_chain(chain, config_.trusted, epoch);
    if (!result.ok) {
      throw SecurityError("client certificate rejected: " + result.error);
    }
    // CertificateVerify covers the transcript up to (excluding) the
    // ClientKey message itself.
    Buffer signed_transcript(
        transcript_.begin(),
        transcript_.end() - static_cast<ptrdiff_t>(msg.size()));
    if (!rsa_verify_sha1(chain.front().key, signed_transcript,
                         verify_sig)) {
      throw SecurityError("client CertificateVerify failed");
    }
    peer_cert_ = chain.front();
    peer_identity_ = result.effective_identity;
    try {
      premaster = rsa_decrypt(config_.credential.private_key,
                              enc_premaster);
    } catch (const std::runtime_error& e) {
      throw SecurityError(std::string("premaster decrypt: ") + e.what());
    }
    if (premaster.size() != kPremasterSize) {
      throw SecurityError("bad premaster size");
    }
  }
  install_keys(premaster, client_random, server_random);
  Buffer base = transcript_;
  co_await expect_finished("client finished", base);
  co_await send_finished("server finished", base);
  // Publish a ticket so the client's sibling streams can skip the RSA
  // exchange.  Pure map insert — nothing observable unless a resumed
  // hello later redeems it.
  if (config_.resumption) {
    ResumptionTicket t;
    t.session_id = session_id_;
    t.secret = resumption_secret_;
    t.cipher = cipher_;
    t.mac = mac_;
    t.peer_cert = peer_cert_;
    t.peer_identity = peer_identity_;
    config_.resumption->put(t, epoch);
  }
}

sim::Task<void> SecureChannel::handshake_stream() {
  transcript_.clear();
  const int64_t epoch =
      now_epoch_ +
      sim::to_seconds(stream_->local_host().engine().now());
  auto& metrics = stream_->local_host().engine().metrics();

  BufChain first = co_await recv_handshake_msg();
  uint32_t magic = 0;
  {
    xdr::Decoder dec(first);
    magic = dec.get_u32();
  }
  if (magic == kHelloMagic) {
    // Full-handshake fallback: the client's ticket is gone (server restart
    // cleared the cache), so this stream pays the RSA exchange instead of
    // failing the pool open.
    metrics.counter("crypto.handshakes").inc();
    co_await stream_->local_host().cpu().use(config_.cost.handshake_cpu,
                                             "crypto");
    co_await server_handshake_rest(std::move(first), epoch);
  } else if (magic == kResumeMagic) {
    metrics.counter("crypto.stream_resumptions").inc();
    co_await stream_->local_host().cpu().use(config_.cost.resume_cpu,
                                             "crypto");
    co_await server_resume_rest(std::move(first), epoch);
  } else {
    throw SecurityError("bad magic");
  }
  established_ = true;
}

sim::Task<void> SecureChannel::server_resume_rest(BufChain first,
                                                  int64_t epoch) {
  Buffer session_id, client_random;
  uint32_t stream_index = 0;
  {
    xdr::Decoder dec(first);
    dec.get_u32();  // magic, checked by the dispatcher
    session_id = dec.get_opaque(64);
    stream_index = dec.get_u32();
    client_random = dec.get_opaque(kRandomSize);
  }
  if (!config_.resumption) throw SecurityError("resumption disabled");
  auto ticket = config_.resumption->find(session_id, epoch);
  if (!ticket) throw SecurityError("unknown session ticket");
  if (ticket->cipher != config_.cipher || ticket->mac != config_.mac) {
    throw SecurityError("resumed cipher suite mismatch");
  }
  Buffer server_random = rng_.bytes(kRandomSize);
  {
    xdr::Encoder enc;
    enc.put_u32(kResumeMagic);
    enc.put_opaque(server_random);
    co_await send_handshake_msg(enc.take());
  }
  // The peer was authenticated by the full handshake that minted the
  // ticket; possession of the per-stream premaster (proved by Finished
  // under the derived keys) is what authenticates this stream.
  peer_cert_ = ticket->peer_cert;
  peer_identity_ = ticket->peer_identity;
  install_keys(stream_premaster(ticket->secret, session_id, stream_index),
               client_random, server_random);
  resumed_ = true;
  Buffer base = transcript_;
  co_await expect_finished("client finished", base);
  co_await send_finished("server finished", base);
}

sim::Task<void> SecureChannel::handshake_resume(const ResumptionTicket& ticket,
                                                uint32_t stream_index) {
  transcript_.clear();
  if (ticket.cipher != config_.cipher || ticket.mac != config_.mac) {
    throw SecurityError("resumed cipher suite mismatch");
  }
  if (ticket.session_id.empty()) {
    throw SecurityError("empty resumption ticket");
  }
  auto& host = stream_->local_host();
  host.engine().metrics().counter("crypto.stream_resumptions").inc();
  co_await host.cpu().use(config_.cost.resume_cpu, "crypto");

  Buffer client_random = rng_.bytes(kRandomSize);
  {
    xdr::Encoder enc;
    enc.put_u32(kResumeMagic);
    enc.put_opaque(ticket.session_id);
    enc.put_u32(stream_index);
    enc.put_opaque(client_random);
    co_await send_handshake_msg(enc.take());
  }
  Buffer server_random;
  {
    BufChain msg = co_await recv_handshake_msg();
    xdr::Decoder dec(msg);
    if (dec.get_u32() != kResumeMagic) {
      throw SecurityError("bad resume reply magic");
    }
    server_random = dec.get_opaque(kRandomSize);
  }
  peer_cert_ = ticket.peer_cert;
  peer_identity_ = ticket.peer_identity;
  install_keys(
      stream_premaster(ticket.secret, ticket.session_id, stream_index),
      client_random, server_random);
  resumed_ = true;
  Buffer base = transcript_;
  co_await send_finished("client finished", base);
  co_await expect_finished("server finished", base);
  established_ = true;
}

sim::Task<void> SecureChannel::send_finished(const std::string& label,
                                             const Buffer& base) {
  HmacSha1& h = *send_mac_;
  h.update(base);
  h.update(to_bytes(label));
  auto m = h.finish();
  co_await send_record(RecordType::kHandshake,
                       BufChain(Buffer(m.begin(), m.end())));
}

sim::Task<void> SecureChannel::expect_finished(const std::string& label,
                                               const Buffer& base) {
  Record rec = co_await recv_record();
  if (rec.type != RecordType::kHandshake) {
    throw SecurityError("expected " + label);
  }
  HmacSha1& h = *recv_mac_;
  h.update(base);
  h.update(to_bytes(label));
  auto expect = h.finish();
  Buffer scratch;
  if (!ct_equal(ByteView(expect.data(), expect.size()),
                linearize(rec.payload, scratch))) {
    throw SecurityError(label + " MAC mismatch");
  }
}

// --- application API --------------------------------------------------------

sim::Task<void> SecureChannel::send_chain(BufChain message) {
  if (!established_) throw SecurityError("channel not established");
  co_await send_record(RecordType::kData, std::move(message));
}

sim::Task<void> SecureChannel::send(ByteView message) {
  co_await send_chain(BufChain::copy_of(message));
}

sim::Task<BufChain> SecureChannel::recv_chain() {
  for (;;) {
    Record rec = co_await recv_record();
    switch (rec.type) {
      case RecordType::kData:
        co_return std::move(rec.payload);
      case RecordType::kRenegotiate:
        if (is_client_) throw SecurityError("unexpected renegotiate");
        co_await handshake();
        continue;
      case RecordType::kHandshake:
        throw SecurityError("unexpected handshake record");
    }
    throw SecurityError("unknown record type");
  }
}

sim::Task<Buffer> SecureChannel::recv() {
  BufChain chain = co_await recv_chain();
  co_return chain.flatten();
}

sim::Task<void> SecureChannel::renegotiate() {
  if (!is_client_) throw SecurityError("server cannot initiate renegotiate");
  co_await send_record(RecordType::kRenegotiate, BufChain());
  co_await handshake();
}

}  // namespace sgfs::crypto

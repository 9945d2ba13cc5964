#include "baselines/tunnel.hpp"

#include <array>

#include "common/log.hpp"
#include "xdr/xdr.hpp"

namespace sgfs::baselines {

namespace {

// Frame `seq`'s IV: the sequence number little-endian, then zeros.
std::array<uint8_t, 16> frame_iv(uint64_t seq) {
  std::array<uint8_t, 16> iv{};
  for (int i = 0; i < 8; ++i) iv[i] = static_cast<uint8_t>(seq >> (8 * i));
  return iv;
}

// One spliced direction: reads plaintext from `src`, sends SSH-style
// encrypted frames to `dst` (or the reverse when `decrypt` is set).
// Frame format: u32 length | AES-256-CBC ciphertext | HMAC-SHA1.
sim::Task<void> splice_encrypt(net::StreamPtr src, net::StreamPtr dst,
                               net::Host* host, TunnelCostModel cost,
                               Buffer aes_key, Buffer mac_key,
                               std::shared_ptr<bool> alive) {
  crypto::Aes aes(aes_key);
  crypto::HmacSha1 mac(mac_key);
  uint64_t seq = 0;
  for (;;) {
    Buffer plain(SshTunnel::kFrameSize);
    size_t n = co_await src->read_some(plain);
    if (n == 0 || !*alive) break;
    plain.resize(n);
    co_await host->cpu().use(cost.frame_cost(n), "ssh");
    Buffer frame = SshTunnel::seal_frame(aes, mac, seq++, plain);
    try {
      co_await dst->write(std::move(frame));
    } catch (const net::StreamClosed&) {
      break;
    }
  }
  dst->close();
}

sim::Task<void> splice_decrypt(net::StreamPtr src, net::StreamPtr dst,
                               net::Host* host, TunnelCostModel cost,
                               Buffer aes_key, Buffer mac_key,
                               std::shared_ptr<bool> alive) {
  crypto::Aes aes(aes_key);
  crypto::HmacSha1 mac(mac_key);
  net::Stream& in = *src;
  uint64_t seq = 0;
  for (;;) {
    uint8_t hdr[4];
    while (!in.readable_now(sizeof hdr)) co_await in.readable(sizeof hdr);
    if (in.try_read(hdr) != sizeof hdr) break;
    xdr::Decoder dec(ByteView(hdr, sizeof hdr));
    const uint32_t len = dec.get_u32();
    if (len == 0 || len > SshTunnel::kFrameSize + 64) {
      SGFS_WARN("ssh-tunnel", "bad frame length");
      break;
    }
    const size_t sealed = len + crypto::Sha1::kDigestSize;
    while (!in.readable_now(sealed)) co_await in.readable(sealed);
    const BufChain frame = in.take(sealed);
    if (frame.size() != sealed) break;
    if (!*alive) break;
    Buffer scratch;
    const ByteView wire = linearize(frame, scratch);
    const ByteView ct = wire.first(len);
    mac.update(ct);
    const auto want = mac.finish();
    if (!ct_equal(ByteView(want.data(), want.size()), wire.subspan(len))) {
      SGFS_WARN("ssh-tunnel", "frame MAC mismatch; dropping connection");
      break;
    }
    const auto iv = frame_iv(seq++);
    Buffer plain;
    try {
      plain = aes_cbc_decrypt(aes, iv, ct);
    } catch (const std::runtime_error&) {
      SGFS_WARN("ssh-tunnel", "frame decrypt failed");
      break;
    }
    co_await host->cpu().use(cost.frame_cost(plain.size()), "ssh");
    try {
      co_await dst->write(std::move(plain));
    } catch (const net::StreamClosed&) {
      break;
    }
  }
  dst->close();
}

}  // namespace

Buffer SshTunnel::seal_frame(const crypto::Aes& aes, crypto::HmacSha1& mac,
                             uint64_t seq, ByteView plain) {
  const auto iv = frame_iv(seq);
  const size_t ct_len = crypto::cbc_ciphertext_size(plain.size());
  Buffer frame(4 + ct_len + crypto::Sha1::kDigestSize);
  for (int i = 0; i < 4; ++i) {
    frame[i] = static_cast<uint8_t>(ct_len >> (24 - 8 * i));
  }
  // The MAC covers the ciphertext alone: no prefix in front of it.
  crypto::cbc_encrypt_then_mac(aes, iv, plain, BufChain(), mac,
                               frame.data() + 4, 0);
  return frame;
}

SshTunnel::SshTunnel(net::Host& client_host, uint16_t client_port,
                     net::Host& server_host, uint16_t server_port,
                     net::Address target, TunnelCostModel cost, Rng rng)
    : client_host_(client_host),
      server_host_(server_host),
      remote_endpoint_(server_host.name(), server_port),
      target_(std::move(target)),
      cost_(cost) {
  // Session keys established out of band (the paper's middleware does SSH
  // key setup before the session starts).
  keys_.aes_key = rng.bytes(32);
  keys_.mac_key = rng.bytes(20);
  client_listener_ = client_host.network().listen(client_host, client_port);
  server_listener_ = server_host.network().listen(server_host, server_port);
}

void SshTunnel::start() {
  if (started_) return;
  started_ = true;
  client_host_.engine().spawn(client_accept_loop(
      client_listener_, &client_host_, remote_endpoint_, cost_, keys_,
      connections_, alive_));
  server_host_.engine().spawn(server_accept_loop(
      server_listener_, &server_host_, target_, cost_, keys_, alive_));
}

void SshTunnel::stop() {
  *alive_ = false;
  client_listener_->close();
  server_listener_->close();
}

sim::Task<void> SshTunnel::client_accept_loop(
    std::shared_ptr<net::Network::Listener> listener, net::Host* host,
    net::Address remote, TunnelCostModel cost, Keys keys,
    std::shared_ptr<uint64_t> connections, std::shared_ptr<bool> alive) {
  for (;;) {
    net::StreamPtr local = co_await listener->accept();
    if (!local || !*alive) co_return;
    ++*connections;
    net::StreamPtr wire;
    try {
      wire = co_await host->network().connect(*host, remote);
    } catch (const std::exception& e) {
      SGFS_WARN("ssh-tunnel", "cannot reach remote endpoint: ", e.what());
      local->close();
      continue;
    }
    auto& eng = host->engine();
    eng.spawn(splice_encrypt(local, wire, host, cost, keys.aes_key,
                             keys.mac_key, alive));
    eng.spawn(splice_decrypt(wire, local, host, cost, keys.aes_key,
                             keys.mac_key, alive));
  }
}

sim::Task<void> SshTunnel::server_accept_loop(
    std::shared_ptr<net::Network::Listener> listener, net::Host* host,
    net::Address target, TunnelCostModel cost, Keys keys,
    std::shared_ptr<bool> alive) {
  for (;;) {
    net::StreamPtr wire = co_await listener->accept();
    if (!wire || !*alive) co_return;
    net::StreamPtr local;
    try {
      local = co_await host->network().connect(*host, target);
    } catch (const std::exception& e) {
      SGFS_WARN("ssh-tunnel", "cannot reach target: ", e.what());
      wire->close();
      continue;
    }
    auto& eng = host->engine();
    eng.spawn(splice_decrypt(wire, local, host, cost, keys.aes_key,
                             keys.mac_key, alive));
    eng.spawn(splice_encrypt(local, wire, host, cost, keys.aes_key,
                             keys.mac_key, alive));
  }
}

}  // namespace sgfs::baselines

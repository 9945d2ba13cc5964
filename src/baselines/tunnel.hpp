// SSH tunnel emulation for the gfs-ssh baseline (paper §2.2, Figure 1).
//
// The paper's earlier secure GFS [45] tunnels the proxy-to-proxy NFS traffic
// through per-session SSH channels: every RPC crosses TWO user-level
// forwarders (GFS proxy + SSH) on each side — "two network stack traversals
// and kernel-user space switches per message" — which is the measured >6x
// IOzone slowdown.  This component reproduces that: a client-side tunnel
// endpoint accepts loopback connections and splices them, in encrypted
// ~16KB SSH-style frames (real AES-256-CBC + HMAC-SHA1 on the wire), to a
// server-side endpoint that connects onward to the target service.
#pragma once

#include <memory>

#include "common/rng.hpp"
#include "crypto/aes.hpp"
#include "crypto/hmac.hpp"
#include "net/network.hpp"
#include "sim/engine.hpp"

namespace sgfs::baselines {

struct TunnelCostModel {
  // Per-frame cost of the second user-level forwarder: network stack
  // traversal + kernel/user switches on 2007 VMware are the dominant term.
  sim::SimDur per_frame_cpu = 1200 * sim::kMicrosecond;
  double copy_bytes_per_sec = 80.0e6;
  double aes_bytes_per_sec = 95.0e6;
  double sha1_bytes_per_sec = 390.0e6;

  TunnelCostModel() = default;

  sim::SimDur frame_cost(size_t bytes) const {
    return per_frame_cpu +
           sim::from_seconds(bytes / copy_bytes_per_sec +
                             bytes / aes_bytes_per_sec +
                             bytes / sha1_bytes_per_sec);
  }
};

/// A deployed SSH tunnel: listener on (client_host, client_port) forwarding
/// to (server_host, server_port) listener which connects to `target`.
class SshTunnel {
 public:
  /// SSH frame payload size (the paper attributes part of the tunnel
  /// overhead to the re-framing of 32KB RPCs into smaller SSH packets).
  static constexpr size_t kFrameSize = 16 * 1024;

  SshTunnel(net::Host& client_host, uint16_t client_port,
            net::Host& server_host, uint16_t server_port,
            net::Address target, TunnelCostModel cost, Rng rng);

  void start();
  void stop();

  /// One frame's wire bytes: u32 ciphertext length | AES-256-CBC of
  /// `plain` under the IV of frame `seq` | HMAC-SHA1 of the ciphertext.
  static Buffer seal_frame(const crypto::Aes& aes, crypto::HmacSha1& mac,
                           uint64_t seq, ByteView plain);

  uint64_t connections() const { return *connections_; }

 private:
  struct Keys {
    Buffer aes_key;
    Buffer mac_key;
    Keys() = default;
  };

  static sim::Task<void> client_accept_loop(
      std::shared_ptr<net::Network::Listener> listener, net::Host* host,
      net::Address remote, TunnelCostModel cost, Keys keys,
      std::shared_ptr<uint64_t> connections, std::shared_ptr<bool> alive);
  static sim::Task<void> server_accept_loop(
      std::shared_ptr<net::Network::Listener> listener, net::Host* host,
      net::Address target, TunnelCostModel cost, Keys keys,
      std::shared_ptr<bool> alive);

  net::Host& client_host_;
  net::Host& server_host_;
  net::Address remote_endpoint_;
  net::Address target_;
  TunnelCostModel cost_;
  Keys keys_;
  std::shared_ptr<net::Network::Listener> client_listener_;
  std::shared_ptr<net::Network::Listener> server_listener_;
  std::shared_ptr<uint64_t> connections_ = std::make_shared<uint64_t>(0);
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  bool started_ = false;
};

}  // namespace sgfs::baselines

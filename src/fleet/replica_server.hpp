// Untrusted replica block server + the Byzantine fault injector that turns
// a fraction of a replica fleet hostile (DESIGN.md §16).
//
// The server is deliberately dumb: it holds published files as flat block
// arrays plus their Merkle trees and answers kGetBlock/kGetCatalog over a
// PLAIN transport — no identity, no gridmap, no secure channel.  All
// integrity lives in the client's verification against the owner-signed
// root, which is exactly why the fault dials below (corrupt blocks with
// honest proofs, stale catalogs, slow drip, crash) model a *Byzantine*
// replica rather than a broken wire: everything it serves is well-formed,
// just wrong.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "crypto/merkle.hpp"
#include "net/host.hpp"
#include "rpc/rpc_server.hpp"
#include "sgfs/replica.hpp"

namespace sgfs::fleet {

class ReplicaServer : public rpc::RpcProgram,
                      public std::enable_shared_from_this<ReplicaServer> {
 public:
  ReplicaServer(net::Host& host, std::string name);

  void start(uint16_t port);
  void stop();

  sim::Task<BufChain> handle(const rpc::CallContext& ctx,
                             BufChain args) override;

  /// Ingests one published file: splits `data` into `block_size` blocks and
  /// builds the Merkle tree.  Returns the tree (the publisher needs the
  /// root for the signed catalog).
  const crypto::MerkleTree& publish_file(uint64_t fileid, uint32_t block_size,
                                         ByteView data);

  /// Installs the signed catalog text this replica gossips on kGetCatalog;
  /// the previous one is retained for the stale-catalog dial.
  void set_catalog(std::string signed_hex);

  // --- Byzantine dials (driven by core::ReplicaFaultInjector) -------------
  /// Serve blocks with one flipped byte but the HONEST proof: the
  /// strongest corruption — everything checks out except the bytes.
  void set_corrupt(bool on) { corrupt_ = on; }
  /// Gossip the PREVIOUS catalog (rollback attempt).
  void set_stale_catalog(bool on) { stale_catalog_ = on; }
  /// Delay every block reply by `d` (slow-drip; 0 restores normal service).
  void set_drip(sim::SimDur d) { drip_ = d; }
  /// Stop answering entirely (sleeps past any client timeout).
  void set_down(bool on) { down_ = on; }

  const std::string& name() const { return name_; }
  uint64_t corrupt_served() const { return corrupt_served_; }
  uint64_t dripped() const { return dripped_; }
  uint64_t refused() const { return refused_; }

 private:
  struct PublishedFile {
    uint32_t block_size = 0;
    std::vector<Buffer> blocks;
    crypto::MerkleTree tree;
    PublishedFile() = default;
  };

  net::Host& host_;
  std::string name_;
  std::unique_ptr<rpc::RpcServer> rpc_server_;
  std::map<uint64_t, PublishedFile> files_;
  std::string catalog_;
  std::string prev_catalog_;

  bool corrupt_ = false;
  bool stale_catalog_ = false;
  sim::SimDur drip_ = 0;
  bool down_ = false;

  uint64_t corrupt_served_ = 0;
  uint64_t dripped_ = 0;
  uint64_t refused_ = 0;
};

}  // namespace sgfs::fleet

namespace sgfs::core {

/// Seeded chooser of which replicas turn Byzantine, and how.  Named in
/// core because the chaos matrix addresses it alongside the other
/// injectors; it drives fleet::ReplicaServer dials.
struct ReplicaFaultOptions {
  uint64_t seed = 1;
  /// Fraction of the fleet turned Byzantine (ceil(fraction * N) victims).
  double fraction = 0;
  bool corrupt = true;
  bool stale = false;
  bool drip = false;
  bool crash = false;
  sim::SimDur drip_delay = 400 * sim::kMillisecond;
  /// Faults switch on at `start` and off after `clear_after` (0 = from the
  /// beginning / never cleared).
  sim::SimTime start = 0;
  sim::SimDur clear_after = 0;

  ReplicaFaultOptions() = default;

  bool enabled() const { return fraction > 0; }
};

class ReplicaFaultInjector {
 public:
  ReplicaFaultInjector(sim::Engine& eng, ReplicaFaultOptions options)
      : eng_(eng), options_(options), rng_(options.seed) {}

  /// Picks victims and applies (or schedules) the dials.  Spawns a timed
  /// actor only when start/clear_after are set.
  void arm(std::vector<fleet::ReplicaServer*> servers);

  size_t armed() const { return armed_; }

 private:
  void apply(bool on);
  sim::Task<void> timed();

  sim::Engine& eng_;
  ReplicaFaultOptions options_;
  Rng rng_;
  size_t armed_ = 0;
  struct Victim {
    fleet::ReplicaServer* server = nullptr;
    int kind = 0;  // index into the enabled-dial list
  };
  std::vector<Victim> victims_;
  std::vector<int> kinds_;
};

}  // namespace sgfs::core

#include "fleet/replica_server.hpp"

#include <algorithm>
#include <cmath>

#include "xdr/xdr.hpp"

namespace sgfs::fleet {

ReplicaServer::ReplicaServer(net::Host& host, std::string name)
    : host_(host), name_(std::move(name)) {}

void ReplicaServer::start(uint16_t port) {
  rpc_server_ = std::make_unique<rpc::RpcServer>(host_, port);
  rpc_server_->register_program(core::kReplicaProgram, core::kReplicaVersion,
                                shared_from_this());
  rpc_server_->start();
}

void ReplicaServer::stop() {
  if (rpc_server_) rpc_server_->stop();
}

const crypto::MerkleTree& ReplicaServer::publish_file(uint64_t fileid,
                                                      uint32_t block_size,
                                                      ByteView data) {
  PublishedFile f;
  f.block_size = block_size;
  const size_t count = data.empty()
                           ? 0
                           : (data.size() + block_size - 1) / block_size;
  f.blocks.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const size_t off = i * block_size;
    const size_t len = std::min<size_t>(block_size, data.size() - off);
    f.blocks.emplace_back(data.begin() + static_cast<long>(off),
                          data.begin() + static_cast<long>(off + len));
  }
  f.tree = crypto::MerkleTree::build(count, [&](size_t i) {
    return ByteView(f.blocks[i].data(), f.blocks[i].size());
  });
  auto [it, _] = files_.insert_or_assign(fileid, std::move(f));
  return it->second.tree;
}

void ReplicaServer::set_catalog(std::string signed_hex) {
  prev_catalog_ = std::move(catalog_);
  catalog_ = std::move(signed_hex);
}

sim::Task<BufChain> ReplicaServer::handle(const rpc::CallContext& ctx,
                                          BufChain args) {
  if (down_) {
    // A crashed replica neither answers nor refuses: the client's own
    // timeout is the only signal.  Sleep far past any plausible deadline.
    ++refused_;
    co_await host_.engine().sleep(3600 * sim::kSecond);
    co_return BufChain();
  }
  switch (static_cast<core::ReplicaProc>(ctx.proc)) {
    case core::ReplicaProc::kGetBlock: {
      Buffer scratch;
      xdr::Decoder dec(linearize(args, scratch));
      const uint64_t fileid = dec.get_u64();
      const uint64_t index = dec.get_u64();
      dec.expect_done();
      xdr::Encoder enc;
      auto it = files_.find(fileid);
      if (it == files_.end() || index >= it->second.blocks.size()) {
        enc.put_u32(1);  // no such block
        enc.put_opaque(ByteView());
        enc.put_u32(0);
        co_return enc.take();
      }
      if (drip_ > 0) {
        ++dripped_;
        co_await host_.engine().sleep(drip_);
      }
      const PublishedFile& f = it->second;
      // The replica's block store is on disk; one block read per request.
      co_await host_.disk().read(f.blocks[index].size(), /*sequential=*/true,
                                 "replica");
      Buffer block = f.blocks[index];
      if (corrupt_ && !block.empty()) {
        // Byzantine corruption with an HONEST proof: a deterministic flip
        // keyed off (fileid, index), so every client sees the same lie.
        block[(index + fileid) % block.size()] ^= 0x40;
        ++corrupt_served_;
      }
      std::vector<crypto::MerkleTree::Digest> proof = f.tree.proof(index);
      enc.put_u32(0);
      enc.put_opaque(ByteView(block.data(), block.size()));
      enc.put_u32(static_cast<uint32_t>(proof.size()));
      for (const auto& d : proof) {
        enc.put_opaque_fixed(ByteView(d.data(), d.size()));
      }
      co_return enc.take();
    }
    case core::ReplicaProc::kGetCatalog: {
      xdr::Encoder enc;
      if (stale_catalog_ && !prev_catalog_.empty()) {
        enc.put_string(prev_catalog_);
      } else {
        enc.put_string(catalog_);
      }
      co_return enc.take();
    }
    default:
      co_return BufChain();
  }
}

}  // namespace sgfs::fleet

namespace sgfs::core {

void ReplicaFaultInjector::arm(std::vector<fleet::ReplicaServer*> servers) {
  if (!options_.enabled() || servers.empty()) return;
  kinds_.clear();
  if (options_.corrupt) kinds_.push_back(0);
  if (options_.stale) kinds_.push_back(1);
  if (options_.drip) kinds_.push_back(2);
  if (options_.crash) kinds_.push_back(3);
  if (kinds_.empty()) return;
  const size_t n_victims = std::min(
      servers.size(),
      static_cast<size_t>(std::ceil(options_.fraction *
                                    static_cast<double>(servers.size()))));
  // Seeded selection without replacement; dial kinds round-robin over the
  // enabled set so a mixed plan exercises every Byzantine flavour.
  std::vector<fleet::ReplicaServer*> pool = servers;
  for (size_t i = 0; i < n_victims; ++i) {
    const size_t pick = rng_.next_below(pool.size());
    Victim v;
    v.server = pool[pick];
    v.kind = kinds_[i % kinds_.size()];
    victims_.push_back(v);
    pool.erase(pool.begin() + static_cast<long>(pick));
  }
  armed_ = victims_.size();
  if (options_.start > 0 || options_.clear_after > 0) {
    eng_.spawn(timed());
  } else {
    apply(true);
  }
}

void ReplicaFaultInjector::apply(bool on) {
  for (const Victim& v : victims_) {
    switch (v.kind) {
      case 0:
        v.server->set_corrupt(on);
        break;
      case 1:
        v.server->set_stale_catalog(on);
        break;
      case 2:
        v.server->set_drip(on ? options_.drip_delay : 0);
        break;
      case 3:
        v.server->set_down(on);
        break;
      default:
        break;
    }
  }
}

sim::Task<void> ReplicaFaultInjector::timed() {
  if (options_.start > eng_.now()) {
    co_await eng_.sleep(options_.start - eng_.now());
  }
  apply(true);
  if (options_.clear_after > 0) {
    co_await eng_.sleep(options_.clear_after);
    apply(false);
  }
}

}  // namespace sgfs::core

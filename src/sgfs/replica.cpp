#include "sgfs/replica.hpp"

#include <algorithm>
#include <sstream>

#include "common/log.hpp"
#include "crypto/rsa.hpp"
#include "rpc/retry.hpp"
#include "sgfs/shard_map.hpp"
#include "xdr/xdr.hpp"

namespace sgfs::core {

namespace {

constexpr const char* kLog = "sgfs-replica";
// Replicas tried per block before degrading to the origin secure channel.
constexpr int kMaxAttempts = 4;

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == sep) {
      out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  out.push_back(cur);
  return out;
}

}  // namespace

const ReplicaFileInfo* ReplicaCatalog::find(uint64_t fileid) const {
  for (const ReplicaFileInfo& f : files) {
    if (f.fileid == fileid) return &f;
  }
  return nullptr;
}

std::string ReplicaCatalog::to_string() const {
  std::ostringstream os;
  os << epoch;
  for (const ReplicaEndpoint& r : replicas) {
    os << "|R," << r.name << "," << r.addr.host << "," << r.addr.port;
  }
  for (const ReplicaFileInfo& f : files) {
    os << "|F," << f.path << "," << f.fileid << "," << f.size << ","
       << f.block_size << "," << f.leaf_count << ","
       << to_hex(ByteView(f.root.data(), f.root.size()));
  }
  return os.str();
}

ReplicaCatalog ReplicaCatalog::parse(const std::string& text) {
  ReplicaCatalog cat;
  const std::vector<std::string> segs = split(text, '|');
  if (segs.empty()) throw std::invalid_argument("replica catalog: empty");
  cat.epoch = std::stoull(segs[0]);
  for (size_t i = 1; i < segs.size(); ++i) {
    const std::vector<std::string> f = split(segs[i], ',');
    if (f.empty()) continue;
    if (f[0] == "R") {
      if (f.size() != 4) {
        throw std::invalid_argument("replica catalog: bad R segment");
      }
      cat.replicas.emplace_back(
          f[1], net::Address(f[2], static_cast<uint16_t>(std::stoul(f[3]))));
    } else if (f[0] == "F") {
      if (f.size() != 7) {
        throw std::invalid_argument("replica catalog: bad F segment");
      }
      ReplicaFileInfo fi;
      fi.path = f[1];
      fi.fileid = std::stoull(f[2]);
      fi.size = std::stoull(f[3]);
      fi.block_size = static_cast<uint32_t>(std::stoul(f[4]));
      fi.leaf_count = std::stoull(f[5]);
      Buffer root = from_hex(f[6]);
      if (root.size() != fi.root.size()) {
        throw std::invalid_argument("replica catalog: bad root digest");
      }
      std::copy(root.begin(), root.end(), fi.root.begin());
      cat.files.push_back(std::move(fi));
    } else {
      throw std::invalid_argument("replica catalog: unknown segment");
    }
  }
  return cat;
}

Buffer SignedReplicaCatalog::canonical_bytes() const {
  xdr::Encoder enc;
  enc.put_string("ReplicaCatalog");
  enc.put_string(catalog_text);
  enc.put_i64(signed_at);
  return enc.take_flat();
}

Buffer SignedReplicaCatalog::serialize() const {
  xdr::Encoder enc;
  enc.put_string(catalog_text);
  enc.put_i64(signed_at);
  enc.put_u32(static_cast<uint32_t>(chain.size()));
  for (const crypto::Certificate& c : chain) {
    Buffer b = c.serialize();
    enc.put_opaque(ByteView(b.data(), b.size()));
  }
  enc.put_opaque(ByteView(signature.data(), signature.size()));
  return enc.take_flat();
}

SignedReplicaCatalog SignedReplicaCatalog::deserialize(ByteView data) {
  xdr::Decoder dec(data);
  SignedReplicaCatalog out;
  out.catalog_text = dec.get_string(1 << 20);
  out.signed_at = dec.get_i64();
  const uint32_t n = dec.get_u32();
  if (n > 16) throw xdr::XdrError("replica catalog: chain too long");
  for (uint32_t i = 0; i < n; ++i) {
    Buffer b = dec.get_opaque(1 << 16);
    out.chain.push_back(
        crypto::Certificate::deserialize(ByteView(b.data(), b.size())));
  }
  out.signature = dec.get_opaque(1 << 12);
  dec.expect_done();
  return out;
}

SignedReplicaCatalog sign_replica_catalog(const ReplicaCatalog& catalog,
                                          const crypto::Credential& owner,
                                          int64_t now_s) {
  SignedReplicaCatalog out;
  out.catalog_text = catalog.to_string();
  out.signed_at = now_s;
  out.chain = owner.presented_chain();
  Buffer canon = out.canonical_bytes();
  out.signature =
      crypto::rsa_sign_sha1(owner.private_key, ByteView(canon.data(),
                                                        canon.size()));
  return out;
}

CatalogVerify verify_replica_catalog(const SignedReplicaCatalog& signed_cat,
                                     const std::vector<crypto::Certificate>&
                                         trusted,
                                     int64_t now_s) {
  CatalogVerify out;
  if (signed_cat.chain.empty()) {
    out.error = "empty chain";
    return out;
  }
  crypto::ValidationResult chain_ok =
      crypto::validate_chain(signed_cat.chain, trusted, now_s);
  if (!chain_ok.ok) {
    out.error = "chain: " + chain_ok.error;
    return out;
  }
  Buffer canon = signed_cat.canonical_bytes();
  if (!crypto::rsa_verify_sha1(signed_cat.chain.front().key,
                               ByteView(canon.data(), canon.size()),
                               ByteView(signed_cat.signature.data(),
                                        signed_cat.signature.size()))) {
    out.error = "bad signature";
    return out;
  }
  try {
    out.catalog = ReplicaCatalog::parse(signed_cat.catalog_text);
  } catch (const std::exception& e) {
    out.error = std::string("parse: ") + e.what();
    return out;
  }
  out.ok = true;
  return out;
}

ReplicaSet::ReplicaSet(net::Host& host, const ReplicaPolicy& policy,
                       std::vector<crypto::Certificate> trusted,
                       const crypto::CryptoCostModel* cost)
    : host_(host),
      policy_(policy),
      trusted_(std::move(trusted)),
      cost_(cost) {
  auto& m = host.engine().metrics();
  m_fetches_ = {m, "sgfs.replica.fetches"};
  m_verified_blocks_ = {m, "sgfs.replica.verified_blocks"};
  m_verified_bytes_ = {m, "sgfs.replica.verified_bytes"};
  m_verify_failures_ = {m, "sgfs.replica.verify_failures"};
  m_timeouts_ = {m, "sgfs.replica.timeouts"};
  m_blacklists_ = {m, "sgfs.replica.blacklists"};
  m_probes_ = {m, "sgfs.replica.probes"};
  m_hedged_ = {m, "sgfs.replica.hedged_fetches"};
  m_hedge_wins_ = {m, "sgfs.replica.hedge_wins"};
  m_degraded_ = {m, "sgfs.replica.degraded_to_origin"};
  m_stale_catalogs_ = {m, "sgfs.replica.stale_catalogs"};
}

bool ReplicaSet::install(ReplicaCatalog fresh) {
  if (catalog_ && fresh.epoch < catalog_->epoch) return false;
  // Keep breaker state across refreshes: a blacklisted replica stays
  // blacklisted when the catalog is re-fetched, else every refresh would
  // amnesty the Byzantine cohort.
  std::map<std::string, std::unique_ptr<Replica>> keep;
  for (std::unique_ptr<Replica>& r : replicas_) {
    keep[r->ep.name] = std::move(r);
  }
  replicas_.clear();
  for (const ReplicaEndpoint& ep : fresh.replicas) {
    auto it = keep.find(ep.name);
    if (it != keep.end()) {
      it->second->ep = ep;
      replicas_.push_back(std::move(it->second));
    } else {
      auto r = std::make_unique<Replica>();
      r->ep = ep;
      TrustBreaker::Policy bp;
      bp.burst = policy_.blacklist_burst;
      bp.window = policy_.blacklist_window;
      bp.open_duration = policy_.blacklist_duration;
      r->breaker = TrustBreaker(bp);
      replicas_.push_back(std::move(r));
    }
  }
  // Dropped replicas: close their cached connections.
  for (auto& [name, r] : keep) {
    if (r && r->client) r->client->close();
  }
  catalog_ = std::move(fresh);
  catalog_fetched_at_ = host_.engine().now();
  return true;
}

bool ReplicaSet::adopt_catalog(const std::string& signed_text) {
  try {
    Buffer raw = from_hex(signed_text);
    SignedReplicaCatalog sc =
        SignedReplicaCatalog::deserialize(ByteView(raw.data(), raw.size()));
    const int64_t now_s =
        static_cast<int64_t>(host_.engine().now() / sim::kSecond);
    CatalogVerify v = verify_replica_catalog(sc, trusted_, now_s);
    if (!v.ok) {
      SGFS_WARN(kLog, "catalog rejected: ", v.error);
      return false;
    }
    if (catalog_ && v.catalog.epoch < catalog_->epoch) {
      ++stale_catalogs_;
      m_stale_catalogs_.inc();
      SGFS_WARN(kLog, "catalog rollback rejected: epoch ", v.catalog.epoch,
                " < ", catalog_->epoch);
      return false;
    }
    return install(std::move(v.catalog));
  } catch (const std::exception& e) {
    SGFS_WARN(kLog, "catalog unparseable: ", e.what());
    return false;
  }
}

sim::Task<void> ReplicaSet::maybe_refresh() {
  if (policy_.catalog_service.host.empty()) co_return;
  if (catalog_ && catalog_fetched_at_ >= 0 &&
      host_.engine().now() - catalog_fetched_at_ < policy_.catalog_refresh) {
    co_return;
  }
  // Single flight: concurrent reads piggyback on whoever got here first
  // (they proceed with the current catalog; only freshness suffers).
  if (refreshing_) co_return;
  refreshing_ = true;
  // Gossip first: ask an admitted replica for the catalog it carries.  The
  // signature travels with it, so a lying replica can serve a stale epoch
  // at worst — caught by monotonicity, struck, and escalated to the FSS.
  bool ok = false;
  const sim::SimTime now = host_.engine().now();
  std::vector<Replica*> gossipable;
  for (std::unique_ptr<Replica>& r : replicas_) {
    if (r->breaker.admitting(now)) gossipable.push_back(r.get());
  }
  if (!gossipable.empty()) {
    Replica& g = *gossipable[gossip_rr_++ % gossipable.size()];
    try {
      auto client = co_await rpc::clnt_create(host_, g.ep.addr,
                                              kReplicaProgram,
                                              kReplicaVersion);
      rpc::RetryPolicy rp;
      rp.initial_timeout = policy_.fetch_timeout;
      rp.max_retransmits = 0;
      client->set_retry(rp);
      BufChain reply = co_await client->call(
          static_cast<uint32_t>(ReplicaProc::kGetCatalog), BufChain());
      client->close();
      Buffer scratch;
      xdr::Decoder dec(linearize(reply, scratch));
      const std::string text = dec.get_string(1 << 20);
      dec.expect_done();
      const uint64_t before = catalog_ ? catalog_->epoch : 0;
      if (adopt_catalog(text)) {
        ok = true;
        if (catalog_ && catalog_->epoch == before && before > 0) {
          // Valid but not newer: fine, the publication simply has not
          // moved — still counts as a refresh.
        }
      } else {
        strike(g);
      }
    } catch (const std::exception&) {
      strike(g);
    }
  }
  if (!ok) ok = co_await refresh_from_fss();
  if (ok) ++catalog_fetches_;
  refreshing_ = false;
}

sim::Task<bool> ReplicaSet::refresh_from_fss() {
  try {
    auto client = co_await rpc::clnt_create(host_, policy_.catalog_service,
                                            kCatalogServiceProgram,
                                            kCatalogServiceVersion);
    rpc::RetryPolicy rp;
    rp.initial_timeout = policy_.fetch_timeout;
    rp.max_retransmits = 1;
    client->set_retry(rp);
    BufChain reply =
        co_await client->call(kGetReplicaCatalogProc, BufChain());
    client->close();
    Buffer scratch;
    xdr::Decoder dec(linearize(reply, scratch));
    const std::string text = dec.get_string(1 << 20);
    dec.expect_done();
    co_return adopt_catalog(text);
  } catch (const std::exception& e) {
    SGFS_WARN(kLog, "FSS catalog fetch failed: ", e.what());
    co_return false;
  }
}

sim::Task<std::optional<ReplicaFileInfo>> ReplicaSet::file_info(
    uint64_t fileid) {
  co_await maybe_refresh();
  if (!catalog_) co_return std::nullopt;
  const ReplicaFileInfo* fi = catalog_->find(fileid);
  if (fi == nullptr) co_return std::nullopt;
  co_return *fi;  // by value: the catalog can be replaced mid-read
}

std::vector<ReplicaSet::Replica*> ReplicaSet::ranked(uint64_t fileid,
                                                     uint64_t index) {
  const sim::SimTime now = host_.engine().now();
  std::vector<std::pair<uint64_t, Replica*>> scored;
  for (std::unique_ptr<Replica>& r : replicas_) {
    const TrustBreaker::State before = r->breaker.state();
    if (!r->breaker.admitting(now)) continue;
    if (before == TrustBreaker::State::kOpen) {
      // Open -> probe edge: this replica gets one trial fetch.
      ++probes_;
      m_probes_.inc();
      SGFS_INFO(kLog, "half-open probe: ", r->ep.name);
    }
    scored.emplace_back(
        shard_hash(r->ep.name + "/" + std::to_string(fileid) + ":" +
                   std::to_string(index)),
        r.get());
  }
  std::sort(scored.begin(), scored.end(),
            [](const auto& a, const auto& b) {
              return a.first != b.first ? a.first > b.first
                                        : a.second->ep.name < b.second->ep.name;
            });
  std::vector<Replica*> out;
  out.reserve(scored.size());
  for (auto& [h, r] : scored) out.push_back(r);
  return out;
}

void ReplicaSet::strike(Replica& r) {
  if (r.breaker.note_failure(host_.engine().now())) {
    ++blacklists_;
    m_blacklists_.inc();
    SGFS_WARN(kLog, "replica blacklisted: ", r.ep.name);
  }
}

sim::Task<Buffer> ReplicaSet::fetch_from(Replica& r,
                                         const ReplicaFileInfo& fi,
                                         uint64_t index,
                                         sim::SimDur timeout) {
  std::shared_ptr<rpc::RpcClient> client = r.client;
  if (!client) {
    client = co_await rpc::clnt_create(host_, r.ep.addr, kReplicaProgram,
                                       kReplicaVersion);
    // Concurrent fetches (readahead) race to connect; the first assignment
    // wins and everyone shares it — a losing connection is simply dropped,
    // never one with calls in flight.
    if (!r.client) {
      r.client = client;
    } else {
      client = r.client;
    }
  }
  rpc::RetryPolicy rp;
  rp.initial_timeout = timeout;
  rp.max_retransmits = 0;
  client->set_retry(rp);
  xdr::Encoder enc;
  enc.put_u64(fi.fileid);
  enc.put_u64(index);
  BufChain reply = co_await client->call(
      static_cast<uint32_t>(ReplicaProc::kGetBlock), enc.take());
  Buffer scratch;
  xdr::Decoder dec(linearize(reply, scratch));
  const uint32_t status = dec.get_u32();
  if (status != 0) {
    throw ReplicaVerifyError("replica " + r.ep.name + ": status " +
                             std::to_string(status));
  }
  Buffer block = dec.get_opaque(1 << 20);
  const uint32_t n = dec.get_u32();
  if (n > 64) {
    throw ReplicaVerifyError("replica " + r.ep.name + ": oversized proof");
  }
  std::vector<crypto::MerkleTree::Digest> proof(n);
  for (uint32_t i = 0; i < n; ++i) {
    dec.get_opaque_fixed(MutByteView(proof[i].data(), proof[i].size()));
  }
  dec.expect_done();
  if (block.size() > fi.block_size) {
    throw ReplicaVerifyError("replica " + r.ep.name + ": oversized block");
  }
  // Verification cost: one SHA pass over the block plus the sibling path.
  if (cost_ != nullptr) {
    host_.cpu().charge(
        cost_->record_cost(crypto::Cipher::kNull, crypto::MacAlgo::kHmacSha1,
                           block.size() + proof.size() * 32),
        "crypto");
  }
  if (!crypto::MerkleTree::verify(fi.root, fi.leaf_count, index,
                                  ByteView(block.data(), block.size()),
                                  proof)) {
    throw ReplicaVerifyError("replica " + r.ep.name + ": block " +
                             std::to_string(index) + " failed verification");
  }
  co_return block;
}

sim::Task<std::optional<Buffer>> ReplicaSet::fetch_block(uint64_t fileid,
                                                         uint64_t index) {
  co_await maybe_refresh();
  if (!catalog_) co_return std::nullopt;
  const ReplicaFileInfo* fip = catalog_->find(fileid);
  if (fip == nullptr) co_return std::nullopt;
  const ReplicaFileInfo fi = *fip;  // catalog may be swapped while we await

  ++fetches_;
  m_fetches_.inc();
  std::vector<Replica*> order = ranked(fileid, index);
  const int attempts =
      std::min<int>(kMaxAttempts, static_cast<int>(order.size()));
  bool hedge_fired = false;
  for (int i = 0; i < attempts; ++i) {
    Replica& r = *order[static_cast<size_t>(i)];
    // First attempt is hedged: cut it short after hedge_delay when another
    // candidate is available, and let the next iteration race in.
    const bool hedgeable =
        i == 0 && policy_.hedge_delay > 0 && attempts > 1;
    const sim::SimDur timeout =
        hedgeable ? std::min(policy_.hedge_delay, policy_.fetch_timeout)
                  : policy_.fetch_timeout;
    const bool was_probe = r.breaker.state() == TrustBreaker::State::kProbe;
    try {
      Buffer block = co_await fetch_from(r, fi, index, timeout);
      r.breaker.note_success();
      if (was_probe) {
        SGFS_INFO(kLog, "probe clean, replica re-admitted: ", r.ep.name);
      }
      ++verified_blocks_;
      verified_bytes_ += block.size();
      m_verified_blocks_.inc();
      m_verified_bytes_.inc(block.size());
      if (i > 0 && hedge_fired) {
        ++hedge_wins_;
        m_hedge_wins_.inc();
      }
      co_return block;
    } catch (const ReplicaVerifyError& e) {
      ++verify_failures_;
      m_verify_failures_.inc();
      SGFS_WARN(kLog, e.what());
      strike(r);
      // Verification failure keeps the connection: the transport is fine,
      // the content is not.
    } catch (const rpc::RpcTimeout&) {
      if (hedgeable) {
        ++hedged_;
        m_hedged_.inc();
        hedge_fired = true;
      } else {
        ++timeouts_;
        m_timeouts_.inc();
      }
      strike(r);
      if (r.client) {
        r.client->close();
        r.client.reset();
      }
    } catch (const std::exception& e) {
      ++fetch_errors_;
      SGFS_WARN(kLog, "replica fetch error: ", r.ep.name, ": ", e.what());
      strike(r);
      if (r.client) {
        r.client->close();
        r.client.reset();
      }
    }
  }
  ++degraded_;
  m_degraded_.inc();
  co_return std::nullopt;
}

}  // namespace sgfs::core

// Wire-operation strategy: the kernel-client cache logic (MountPoint) is
// protocol-agnostic; a WireOps backend turns each semantic operation into
// NFSv3 procedure calls or NFSv4-lite COMPOUNDs.
//
// Result structures are the NFSv3 ones from nfs3.hpp — the v4 backend fills
// the same shapes, which is also how the paper could swap nfs-v3/nfs-v4
// under identical workloads (§6.1).
#pragma once

#include <memory>

#include "nfs/nfs3.hpp"
#include "obs/metrics.hpp"
#include "rpc/rpc_client.hpp"

namespace sgfs::nfs {

class WireOps {
 public:
  virtual ~WireOps() = default;

  virtual sim::Task<Fh> mount(const std::string& path) = 0;
  virtual sim::Task<LookupRes> lookup(Fh dir, const std::string& name) = 0;
  virtual sim::Task<GetattrRes> getattr(Fh fh) = 0;
  virtual sim::Task<WccRes> setattr(Fh fh, const vfs::SetAttrs& sattr) = 0;
  virtual sim::Task<AccessRes> access(Fh fh, uint32_t want) = 0;
  virtual sim::Task<ReadRes> read(Fh fh, uint64_t offset, uint32_t count) = 0;
  virtual sim::Task<WriteRes> write(Fh fh, uint64_t offset, StableHow stable,
                                    BufChain data) = 0;
  virtual sim::Task<CreateRes> create(Fh dir, const std::string& name,
                                      uint32_t mode, bool exclusive) = 0;
  virtual sim::Task<CreateRes> mkdir(Fh dir, const std::string& name,
                                     uint32_t mode) = 0;
  virtual sim::Task<CreateRes> symlink(Fh dir, const std::string& name,
                                       const std::string& target) = 0;
  virtual sim::Task<WccRes> remove(Fh dir, const std::string& name) = 0;
  virtual sim::Task<WccRes> rmdir(Fh dir, const std::string& name) = 0;
  virtual sim::Task<WccRes> rename(Fh from_dir, const std::string& from_name,
                                   Fh to_dir, const std::string& to_name) = 0;
  virtual sim::Task<WccRes> link(Fh file, Fh dir,
                                 const std::string& name) = 0;
  virtual sim::Task<ReaddirRes> readdir(Fh dir, uint64_t cookie,
                                        uint32_t count, bool plus) = 0;
  virtual sim::Task<ReadlinkRes> readlink(Fh fh) = 0;
  virtual sim::Task<CommitRes> commit(Fh fh) = 0;

  virtual void close() = 0;
};

/// NFSv3 backend: one RPC per operation (plus the MOUNT protocol).
class V3WireOps final : public WireOps {
 public:
  /// Connects the MOUNT and NFS RPC clients.  `retry` applies to every RPC
  /// issued through this backend (default: wait forever).  `jukebox`
  /// controls reaction to NFS3ERR_JUKEBOX results from an overloaded
  /// server (default: surface them to the caller).
  static sim::Task<std::unique_ptr<V3WireOps>> connect(
      net::Host& host, const net::Address& server, rpc::AuthSys auth,
      rpc::RetryPolicy retry = rpc::RetryPolicy(),
      rpc::JukeboxPolicy jukebox = rpc::JukeboxPolicy());

  /// Installs a retry budget on the NFS client (shared across reconnects:
  /// re-establishing the connection does not refill the bucket).
  void set_retry_budget(std::shared_ptr<rpc::RetryBudget> budget) {
    budget_ = std::move(budget);
    if (client_) client_->set_retry_budget(budget_);
  }

  sim::Task<Fh> mount(const std::string& path) override;
  sim::Task<LookupRes> lookup(Fh dir, const std::string& name) override;
  sim::Task<GetattrRes> getattr(Fh fh) override;
  sim::Task<WccRes> setattr(Fh fh, const vfs::SetAttrs& sattr) override;
  sim::Task<AccessRes> access(Fh fh, uint32_t want) override;
  sim::Task<ReadRes> read(Fh fh, uint64_t offset, uint32_t count) override;
  sim::Task<WriteRes> write(Fh fh, uint64_t offset, StableHow stable,
                            BufChain data) override;
  sim::Task<CreateRes> create(Fh dir, const std::string& name, uint32_t mode,
                              bool exclusive) override;
  sim::Task<CreateRes> mkdir(Fh dir, const std::string& name,
                             uint32_t mode) override;
  sim::Task<CreateRes> symlink(Fh dir, const std::string& name,
                               const std::string& target) override;
  sim::Task<WccRes> remove(Fh dir, const std::string& name) override;
  sim::Task<WccRes> rmdir(Fh dir, const std::string& name) override;
  sim::Task<WccRes> rename(Fh from_dir, const std::string& from_name,
                           Fh to_dir, const std::string& to_name) override;
  sim::Task<WccRes> link(Fh file, Fh dir, const std::string& name) override;
  sim::Task<ReaddirRes> readdir(Fh dir, uint64_t cookie, uint32_t count,
                                bool plus) override;
  sim::Task<ReadlinkRes> readlink(Fh fh) override;
  sim::Task<CommitRes> commit(Fh fh) override;
  void close() override;

 private:
  // Hard-mount semantics: a dropped connection (server crash/restart) is
  // survived by reconnecting and retransmitting in-flight calls under
  // their original xids, bounded by kMaxReconnects.
  static constexpr int kMaxReconnects = 8;
  static constexpr sim::SimDur kReconnectBackoff = 100 * sim::kMillisecond;

  V3WireOps(net::Host& host, const net::Address& server, rpc::AuthSys auth)
      : host_(host),
        server_(server),
        auth_(auth),
        m_jukebox_retries_(host.engine().metrics(),
                           "nfs.client.jukebox_retries"),
        m_reconnects_(host.engine().metrics(), "nfs.client.reconnects") {}

  /// Encodes P's Args, calls, decodes P's Res: the whole body of each
  /// procedure method.
  template <Proc3 P>
  sim::Task<typename ProcTraits<P>::Res> call(
      typename ProcTraits<P>::Args args);
  sim::Task<BufChain> call(Proc3 proc, BufChain args);
  /// One xid's worth of call: retransmissions and reconnect-resends reuse
  /// the xid; jukebox-delayed retries (in call()) get a fresh one.
  sim::Task<BufChain> call_once(Proc3 proc, BufChain args);

  net::Host& host_;
  net::Address server_;
  rpc::AuthSys auth_;
  obs::CounterHandle m_jukebox_retries_, m_reconnects_;
  rpc::RetryPolicy retry_;
  rpc::JukeboxPolicy jukebox_;
  std::shared_ptr<rpc::RetryBudget> budget_;
  std::unique_ptr<rpc::RpcClient> client_;
  // Bumped on every successful reconnect so concurrent calls (readahead,
  // write-behind) that all saw the same dead connection reconnect once.
  uint64_t conn_gen_ = 0;
};

}  // namespace sgfs::nfs

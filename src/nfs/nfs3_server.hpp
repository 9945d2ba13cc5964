// Kernel NFSv3 server emulation over the VFS.
//
// Models the paper's file server VM: a kernel nfsd that serves the exported
// tree with "write delay and synchronous update" (§6.1).  Timing model:
//   - each call charges a small nfsd CPU cost on the host CPU;
//   - READs that miss the server page cache charge disk seek+transfer;
//     the cache is LRU over 32KB blocks bounded by the VM's memory
//     (768 MB in the paper) — warm_file() reproduces the IOzone preload;
//   - FILE_SYNC WRITEs charge the disk synchronously (sync export);
//     UNSTABLE WRITEs are absorbed in memory and charged at COMMIT.
//
// Access control: MOUNT checks the exports table against the calling host
// (the kernel exports file, Figure 1 — exported "to localhost" under SGFS);
// per-call authorization uses AUTH_SYS uid/gid mapped onto VFS permission
// bits, exactly the weak model whose grid-level replacement is the point of
// the paper.
#pragma once

#include <functional>
#include <list>
#include <map>
#include <memory>
#include <set>

#include "net/host.hpp"
#include "nfs/nfs3.hpp"
#include "rpc/rpc_server.hpp"
#include "vfs/vfs.hpp"

namespace sgfs::nfs {

struct ExportEntry {
  std::string path;                       // e.g. "/GFS"
  std::set<std::string> allowed_hosts;    // empty = any host
  bool read_only = false;

  ExportEntry() = default;
  explicit ExportEntry(std::string p, std::set<std::string> hosts = {},
                       bool ro = false)
      : path(std::move(p)), allowed_hosts(std::move(hosts)), read_only(ro) {}
};

struct ServerCostModel {
  sim::SimDur per_op_cpu = 30 * sim::kMicrosecond;  // kernel nfsd work
  double copy_bytes_per_sec = 1.5e9;                // in-kernel data copies
  uint64_t memory_bytes = 768ull << 20;             // page cache (768 MB VM)

  ServerCostModel() = default;
};

class Nfs3Server : public rpc::RpcProgram,
                   public std::enable_shared_from_this<Nfs3Server> {
 public:
  Nfs3Server(net::Host& host, std::shared_ptr<vfs::FileSystem> fs,
             uint64_t fsid = 1, ServerCostModel cost = ServerCostModel());

  void add_export(ExportEntry entry) {
    exports_.push_back(std::move(entry));
  }

  /// Preloads a file's blocks into the page-cache model (IOzone setup).
  void warm_file(const std::string& path);

  /// MOUNT-protocol handler sharing this server's exports and fsid.
  std::shared_ptr<rpc::RpcProgram> mount_program();

  sim::Task<BufChain> handle(const rpc::CallContext& ctx,
                             BufChain args) override;

  /// Cache replies of non-idempotent procedures in the server's DRC so a
  /// retransmitted CREATE/REMOVE/... replays instead of re-executing.
  bool cache_reply(const rpc::CallContext& ctx) const override {
    return !proc3_is_idempotent(static_cast<Proc3>(ctx.proc));
  }

  /// Shed calls answer with the procedure's NFS3ERR_JUKEBOX result when the
  /// hosting RpcServer runs admission control with busy replies.
  std::optional<BufChain> busy_reply(
      const rpc::CallContext& ctx) const override {
    BufChain body = busy_status_reply(static_cast<Proc3>(ctx.proc));
    if (body.empty()) return std::nullopt;
    return body;
  }

  vfs::FileSystem& filesystem() { return *fs_; }
  uint64_t fsid() const { return fsid_; }
  uint64_t ops_total() const { return ops_total_; }
  uint64_t ops_for(Proc3 p) const;
  uint64_t disk_reads() const { return disk_reads_; }
  /// Files with unstable (written-UNSTABLE, not yet committed) data.
  size_t unstable_files() const { return unstable_bytes_.size(); }
  uint64_t unstable_bytes_for(uint64_t fileid) const {
    auto it = unstable_bytes_.find(fileid);
    return it == unstable_bytes_.end() ? 0 : it->second;
  }

 private:
  friend class MountProgram;
  friend class Nfs4Server;  // v4-lite shares the VFS + page-cache model
  static constexpr size_t kCacheBlock = 32 * 1024;

  vfs::Cred cred_of(const rpc::CallContext& ctx) const;
  bool fh_ok(const Fh& fh) const { return fh.fsid == fsid_; }
  std::optional<vfs::Attributes> attrs_of(vfs::FileId id) const;
  /// The CREATE/MKDIR/SYMLINK result for the new name in `where`.
  CreateRes created(const DiropArgs& where,
                    const vfs::Result<vfs::FileId>& r) const;

  // Page-cache timing model.
  sim::Task<void> charge_meta();
  sim::Task<void> charge_read(uint64_t fileid, uint64_t offset, size_t len);
  sim::Task<void> charge_write(uint64_t fileid, uint64_t offset, size_t len,
                               bool sync);
  void cache_insert(uint64_t fileid, uint64_t block);
  bool cache_has(uint64_t fileid, uint64_t block) const;

  // Crash model: unstable data is genuinely volatile.  None of these
  // charge virtual time.
  void record_unstable_undo(uint64_t fileid, uint64_t offset, size_t len);
  void forget_unstable(uint64_t fileid);
  /// The VFS write behind v3 and v4 WRITE: an UNSTABLE write snapshots the
  /// pre-image first, so a crash reverts it.
  vfs::Result<uint32_t> write_data(const vfs::Cred& cred, uint64_t fileid,
                                   uint64_t offset, const BufChain& data,
                                   bool unstable);
  /// Destroys `name` in `dir` through `unlink` (REMOVE, RMDIR, RENAME over
  /// an existing target); if that destroyed the inode, its unstable-write
  /// bookkeeping dies with it, or a later COMMIT of a recycled fileid
  /// would be mis-charged.
  Status unlink_forgetting(uint64_t dir, const std::string& name,
                           const std::function<Status()>& unlink);
  void on_crash();

  net::Host& host_;
  std::shared_ptr<vfs::FileSystem> fs_;
  uint64_t fsid_;
  ServerCostModel cost_;
  std::vector<ExportEntry> exports_;
  uint64_t write_verf_;

  // LRU page-cache presence model: `lru_` runs oldest to newest, and
  // `cached_` maps each resident block to its place in it.
  using CacheKey = std::pair<uint64_t, uint64_t>;  // (fileid, block)
  std::list<CacheKey> lru_;
  std::map<CacheKey, std::list<CacheKey>::iterator> cached_;
  size_t cache_capacity_blocks_;

  // Unstable write bytes awaiting COMMIT, per file.
  std::map<uint64_t, uint64_t> unstable_bytes_;

  // Per-file undo log for UNSTABLE writes: the pre-image of the overwritten
  // range plus the pre-write file size.  On a crash the records are
  // reverted newest-first, so acknowledged-unstable data really disappears
  // from the VFS — exactly the loss RFC 1813's write verifier lets clients
  // detect.  Appends record an empty pre-image, so the log stays small for
  // the common sequential-write case.  Discarded on COMMIT / sync write.
  struct UndoRecord {
    uint64_t offset = 0;
    Buffer before;
    uint64_t old_size = 0;

    UndoRecord(uint64_t off, Buffer b, uint64_t sz)
        : offset(off), before(std::move(b)), old_size(sz) {}
  };
  std::map<uint64_t, std::vector<UndoRecord>> unstable_undo_;
  // Gates the crash handler: expires with this server, so no deregistration
  // is needed even when the Host is destroyed first.
  std::shared_ptr<bool> crash_token_ = std::make_shared<bool>(true);

  uint64_t ops_total_ = 0;
  std::map<Proc3, uint64_t> ops_by_proc_;
  uint64_t disk_reads_ = 0;
};

/// MOUNT v3 program (separate RPC program number).
class MountProgram : public rpc::RpcProgram {
 public:
  explicit MountProgram(std::shared_ptr<Nfs3Server> server)
      : server_(std::move(server)) {}

  sim::Task<BufChain> handle(const rpc::CallContext& ctx,
                             BufChain args) override;

 private:
  std::shared_ptr<Nfs3Server> server_;
};

}  // namespace sgfs::nfs

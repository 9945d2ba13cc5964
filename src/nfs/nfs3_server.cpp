#include "nfs/nfs3_server.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace sgfs::nfs {

Nfs3Server::Nfs3Server(net::Host& host, std::shared_ptr<vfs::FileSystem> fs,
                       uint64_t fsid, ServerCostModel cost)
    : host_(host),
      fs_(std::move(fs)),
      fsid_(fsid),
      cost_(cost),
      write_verf_(0x5347465356455246ull ^ fsid),
      cache_capacity_blocks_(cost.memory_bytes / kCacheBlock) {
  // The VFS stamps mtimes from the simulation clock.
  fs_->set_clock([&eng = host.engine()] {
    return static_cast<int64_t>(eng.now() / sim::kSecond);
  });
  host_.add_crash_handler(crash_token_, [this] { on_crash(); });
}

void Nfs3Server::record_unstable_undo(uint64_t fileid, uint64_t offset,
                                      size_t len) {
  auto attrs = attrs_of(fileid);
  const uint64_t old_size = attrs ? attrs->size : 0;
  Buffer before;
  if (offset < old_size && len > 0) {
    const uint64_t overlap =
        std::min<uint64_t>(len, old_size - offset);
    vfs::Cred root(0, 0);
    auto r = fs_->read(root, fileid, offset,
                       static_cast<uint32_t>(overlap));
    if (r.ok()) before = std::move(r.value.data);
  }
  unstable_undo_[fileid].emplace_back(offset, std::move(before), old_size);
}

void Nfs3Server::forget_unstable(uint64_t fileid) {
  unstable_bytes_.erase(fileid);
  unstable_undo_.erase(fileid);
}

CreateRes Nfs3Server::created(const DiropArgs& where,
                              const vfs::Result<vfs::FileId>& r) const {
  CreateRes res;
  res.status = r.status;
  if (r.ok()) {
    res.fh = Fh(fsid_, r.value);
    res.attrs = attrs_of(r.value);
  }
  res.dir_attrs = attrs_of(where.dir.fileid);
  return res;
}

vfs::Result<uint32_t> Nfs3Server::write_data(const vfs::Cred& cred,
                                             uint64_t fileid, uint64_t offset,
                                             const BufChain& data,
                                             bool unstable) {
  // Snapshot the pre-image before the VFS mutates.
  if (unstable) record_unstable_undo(fileid, offset, data.size());
  // The VFS stores contiguous bytes; a multi-segment WRITE payload is
  // linearized here, at the disk boundary, and nowhere earlier.
  Buffer scratch;
  auto r = fs_->write(cred, fileid, offset, linearize(data, scratch));
  if (unstable && !r.ok() && !unstable_undo_[fileid].empty()) {
    unstable_undo_[fileid].pop_back();
  }
  return r;
}

Status Nfs3Server::unlink_forgetting(uint64_t dir, const std::string& name,
                                     const std::function<Status()>& unlink) {
  // Resolve the victim before it goes away.
  vfs::Cred root(0, 0);
  auto victim = fs_->lookup(root, dir, name);
  const Status status = unlink();
  if (status == Status::kOk && victim.ok() && !attrs_of(victim.value)) {
    forget_unstable(victim.value);
  }
  return status;
}

void Nfs3Server::on_crash() {
  // Revert every acknowledged-but-uncommitted write, newest-first per file:
  // restore the overwritten bytes, then truncate back to the pre-write
  // size.  The final state per file is the oldest record's pre-image —
  // i.e. the last committed state.
  vfs::Cred root(0, 0);
  for (auto& [fileid, records] : unstable_undo_) {
    for (auto it = records.rbegin(); it != records.rend(); ++it) {
      if (!it->before.empty()) {
        fs_->write(root, fileid, it->offset, ByteView(it->before));
      }
      vfs::SetAttrs sa;
      sa.size = it->old_size;
      fs_->setattr(root, fileid, sa);
    }
  }
  unstable_undo_.clear();
  unstable_bytes_.clear();
  // The page cache is cold after a reboot.
  cached_.clear();
  lru_.clear();
  // New instance cookie (deterministic): any COMMIT/WRITE reply after the
  // restart exposes the roll to clients, which must replay uncommitted data.
  write_verf_ = write_verf_ * 0x9e3779b97f4a7c15ull + 0x2545f4914f6cdd1dull;
  host_.engine().metrics().counter("nfs.server.crashes").inc();
}

uint64_t Nfs3Server::ops_for(Proc3 p) const {
  auto it = ops_by_proc_.find(p);
  return it == ops_by_proc_.end() ? 0 : it->second;
}

vfs::Cred Nfs3Server::cred_of(const rpc::CallContext& ctx) const {
  if (!ctx.auth_sys) return vfs::Cred(65534, 65534);  // nobody
  vfs::Cred cred(ctx.auth_sys->uid, ctx.auth_sys->gid);
  cred.gids = ctx.auth_sys->gids;
  return cred;
}

std::optional<vfs::Attributes> Nfs3Server::attrs_of(vfs::FileId id) const {
  auto r = fs_->getattr(id);
  if (!r.ok()) return std::nullopt;
  return r.value;
}

// --- page-cache timing model --------------------------------------------------

void Nfs3Server::cache_insert(uint64_t fileid, uint64_t block) {
  const CacheKey key(fileid, block);
  auto it = cached_.find(key);
  if (it != cached_.end()) {
    lru_.splice(lru_.end(), lru_, it->second);
    return;
  }
  while (cached_.size() >= cache_capacity_blocks_ && !lru_.empty()) {
    cached_.erase(lru_.front());
    lru_.pop_front();
  }
  cached_.emplace(key, lru_.insert(lru_.end(), key));
}

bool Nfs3Server::cache_has(uint64_t fileid, uint64_t block) const {
  return cached_.count({fileid, block}) > 0;
}

void Nfs3Server::warm_file(const std::string& path) {
  vfs::Cred root(0, 0);
  auto id = fs_->resolve(root, path);
  if (!id.ok()) return;
  auto attrs = fs_->getattr(id.value);
  if (!attrs.ok()) return;
  const uint64_t blocks = (attrs.value.size + kCacheBlock - 1) / kCacheBlock;
  for (uint64_t b = 0; b < blocks; ++b) cache_insert(id.value, b);
}

sim::Task<void> Nfs3Server::charge_read(uint64_t fileid, uint64_t offset,
                                        size_t len) {
  // Find the cache-miss span and charge one disk read for it.
  const uint64_t first = offset / kCacheBlock;
  const uint64_t last = (offset + (len ? len : 1) - 1) / kCacheBlock;
  uint64_t miss_blocks = 0;
  for (uint64_t b = first; b <= last; ++b) {
    if (!cache_has(fileid, b)) ++miss_blocks;
    cache_insert(fileid, b);
  }
  if (miss_blocks > 0) {
    ++disk_reads_;
    co_await host_.disk().read(miss_blocks * kCacheBlock,
                               /*sequential=*/miss_blocks > 1, "nfsd.read");
  }
}

sim::Task<void> Nfs3Server::charge_meta() {
  // Synchronous-update export (§6.1): metadata changes hit the disk before
  // the reply (directory + inode update, ~one positioning op).
  co_await host_.disk().write(4096, /*sequential=*/false, "nfsd.meta");
}

sim::Task<void> Nfs3Server::charge_write(uint64_t fileid, uint64_t offset,
                                         size_t len, bool sync) {
  const uint64_t first = offset / kCacheBlock;
  const uint64_t last = (offset + (len ? len : 1) - 1) / kCacheBlock;
  for (uint64_t b = first; b <= last; ++b) cache_insert(fileid, b);
  if (sync) {
    // A sync write flushes the file: unstable data ordered before it goes
    // out too (the server may commit more than asked, RFC 1813 §3.3.21) —
    // otherwise a crash-revert of the older unstable ranges could clobber
    // the just-acknowledged FILE_SYNC bytes.
    auto it = unstable_bytes_.find(fileid);
    if (it != unstable_bytes_.end() && it->second > 0) {
      const uint64_t pending = it->second;
      forget_unstable(fileid);
      co_await host_.disk().write(pending, /*sequential=*/false,
                                  "nfsd.commit");
    }
    co_await host_.disk().write(len, /*sequential=*/false, "nfsd.write");
  } else {
    unstable_bytes_[fileid] += len;
  }
}

// --- dispatch -------------------------------------------------------------------

sim::Task<BufChain> Nfs3Server::handle(const rpc::CallContext& ctx,
                                       BufChain args) {
  ++ops_total_;
  const auto proc = static_cast<Proc3>(ctx.proc);
  ++ops_by_proc_[proc];
  const vfs::Cred cred = cred_of(ctx);

  // Kernel nfsd processing cost.
  co_await host_.cpu().use(cost_.per_op_cpu, "nfsd");

  // A handle from another filesystem gets the procedure's kStale result.
  switch (proc) {
    case Proc3::kNull:
      co_return BufChain{};

    case Proc3::kGetattr: {
      auto a = xdr::decode<GetattrArgs>(args);
      if (!fh_ok(a.fh)) co_return status_reply<GetattrRes>(Status::kStale);
      GetattrRes res;
      auto r = fs_->getattr(a.fh.fileid);
      res.status = r.status;
      if (r.ok()) res.attrs = r.value;
      co_return xdr::encode(res);
    }

    case Proc3::kSetattr: {
      auto a = xdr::decode<SetattrArgs>(args);
      if (!fh_ok(a.fh)) co_return status_reply<WccRes>(Status::kStale);
      WccRes res;
      res.status = fs_->setattr(cred, a.fh.fileid, a.sattr);
      if (res.status == Status::kOk) co_await charge_meta();
      res.post_attrs = attrs_of(a.fh.fileid);
      co_return xdr::encode(res);
    }

    case Proc3::kLookup: {
      auto a = xdr::decode<DiropArgs>(args);
      if (!fh_ok(a.dir)) co_return status_reply<LookupRes>(Status::kStale);
      LookupRes res;
      auto r = fs_->lookup(cred, a.dir.fileid, a.name);
      res.status = r.status;
      if (r.ok()) {
        res.fh = Fh(fsid_, r.value);
        res.attrs = attrs_of(r.value);
      }
      res.dir_attrs = attrs_of(a.dir.fileid);
      co_return xdr::encode(res);
    }

    case Proc3::kAccess: {
      auto a = xdr::decode<AccessArgs>(args);
      if (!fh_ok(a.fh)) co_return status_reply<AccessRes>(Status::kStale);
      AccessRes res;
      res.access = fs_->access(cred, a.fh.fileid, a.access);
      res.post_attrs = attrs_of(a.fh.fileid);
      if (!res.post_attrs) res.status = Status::kStale;
      co_return xdr::encode(res);
    }

    case Proc3::kReadlink: {
      auto a = xdr::decode<GetattrArgs>(args);
      if (!fh_ok(a.fh)) co_return status_reply<ReadlinkRes>(Status::kStale);
      ReadlinkRes res;
      auto r = fs_->readlink(a.fh.fileid);
      res.status = r.status;
      if (r.ok()) res.target = r.value;
      co_return xdr::encode(res);
    }

    case Proc3::kRead: {
      auto a = xdr::decode<ReadArgs>(args);
      if (!fh_ok(a.fh)) co_return status_reply<ReadRes>(Status::kStale);
      ReadRes res;
      auto r = fs_->read(cred, a.fh.fileid, a.offset, a.count);
      res.status = r.status;
      if (r.ok()) {
        co_await charge_read(a.fh.fileid, a.offset, r.value.data.size());
        co_await host_.cpu().use(
            sim::from_seconds(static_cast<double>(r.value.data.size()) /
                              cost_.copy_bytes_per_sec),
            "nfsd");
        res.count = static_cast<uint32_t>(r.value.data.size());
        res.eof = r.value.eof;
        res.data = std::move(r.value.data);
        res.post_attrs = attrs_of(a.fh.fileid);
      }
      co_return xdr::encode(res);
    }

    case Proc3::kWrite: {
      auto a = xdr::decode<WriteArgs>(args);
      if (!fh_ok(a.fh)) co_return status_reply<WriteRes>(Status::kStale);
      WriteRes res;
      const bool unstable = a.stable == StableHow::kUnstable;
      auto r = write_data(cred, a.fh.fileid, a.offset, a.data, unstable);
      res.status = r.status;
      if (r.ok()) {
        co_await host_.cpu().use(
            sim::from_seconds(static_cast<double>(a.data.size()) /
                              cost_.copy_bytes_per_sec),
            "nfsd");
        co_await charge_write(a.fh.fileid, a.offset, a.data.size(), !unstable);
        res.count = r.value;
        res.committed = unstable ? StableHow::kUnstable : StableHow::kFileSync;
        res.verf = write_verf_;
        res.post_attrs = attrs_of(a.fh.fileid);
      }
      co_return xdr::encode(res);
    }

    // CREATE, MKDIR and SYMLINK differ only in the VFS call.
    case Proc3::kCreate: {
      auto a = xdr::decode<CreateArgs>(args);
      if (!fh_ok(a.where.dir)) {
        co_return status_reply<CreateRes>(Status::kStale);
      }
      auto r = fs_->create(cred, a.where.dir.fileid, a.where.name, a.mode,
                           a.exclusive);
      if (r.ok()) co_await charge_meta();
      co_return xdr::encode(created(a.where, r));
    }

    case Proc3::kMkdir: {
      auto a = xdr::decode<MkdirArgs>(args);
      if (!fh_ok(a.where.dir)) {
        co_return status_reply<CreateRes>(Status::kStale);
      }
      auto r = fs_->mkdir(cred, a.where.dir.fileid, a.where.name, a.mode);
      if (r.ok()) co_await charge_meta();
      co_return xdr::encode(created(a.where, r));
    }

    case Proc3::kSymlink: {
      auto a = xdr::decode<SymlinkArgs>(args);
      if (!fh_ok(a.where.dir)) {
        co_return status_reply<CreateRes>(Status::kStale);
      }
      auto r = fs_->symlink(cred, a.where.dir.fileid, a.where.name, a.target);
      if (r.ok()) co_await charge_meta();
      co_return xdr::encode(created(a.where, r));
    }

    case Proc3::kRemove:
    case Proc3::kRmdir: {
      auto a = xdr::decode<DiropArgs>(args);
      if (!fh_ok(a.dir)) co_return status_reply<WccRes>(Status::kStale);
      WccRes res;
      res.status = unlink_forgetting(a.dir.fileid, a.name, [&] {
        return proc == Proc3::kRemove ? fs_->remove(cred, a.dir.fileid, a.name)
                                      : fs_->rmdir(cred, a.dir.fileid, a.name);
      });
      if (res.status == Status::kOk) co_await charge_meta();
      res.post_attrs = attrs_of(a.dir.fileid);
      co_return xdr::encode(res);
    }

    case Proc3::kRename: {
      auto a = xdr::decode<RenameArgs>(args);
      if (!fh_ok(a.from_dir) || !fh_ok(a.to_dir)) {
        co_return status_reply<WccRes>(Status::kStale);
      }
      WccRes res;
      // A rename-over destroys the target inode (if no other links).
      res.status = unlink_forgetting(a.to_dir.fileid, a.to_name, [&] {
        return fs_->rename(cred, a.from_dir.fileid, a.from_name,
                           a.to_dir.fileid, a.to_name);
      });
      if (res.status == Status::kOk) co_await charge_meta();
      res.post_attrs = attrs_of(a.to_dir.fileid);
      co_return xdr::encode(res);
    }

    case Proc3::kLink: {
      auto a = xdr::decode<LinkArgs>(args);
      if (!fh_ok(a.file) || !fh_ok(a.dir)) {
        co_return status_reply<WccRes>(Status::kStale);
      }
      WccRes res;
      res.status = fs_->link(cred, a.file.fileid, a.dir.fileid, a.name);
      if (res.status == Status::kOk) co_await charge_meta();
      res.post_attrs = attrs_of(a.dir.fileid);
      co_return xdr::encode(res);
    }

    case Proc3::kReaddir:
    case Proc3::kReaddirplus: {
      auto a = xdr::decode<ReaddirArgs>(args);
      if (!fh_ok(a.dir)) co_return status_reply<ReaddirRes>(Status::kStale);
      ReaddirRes res;
      const uint32_t max = a.count ? a.count : 1024;
      auto r = fs_->readdir(cred, a.dir.fileid, a.cookie, max);
      res.status = r.status;
      if (r.ok()) {
        const bool plus = proc == Proc3::kReaddirplus || a.plus;
        for (const auto& entry : r.value) {
          DirEntry3 e3;
          e3.fileid = entry.fileid;
          e3.name = entry.name;
          e3.cookie = entry.cookie;
          if (plus) {
            e3.attrs = attrs_of(entry.fileid);
            e3.fh = Fh(fsid_, entry.fileid);
          }
          res.entries.push_back(std::move(e3));
        }
        res.eof = r.value.size() < max;
      }
      co_return xdr::encode(res);
    }

    case Proc3::kFsstat: {
      FsstatRes res;
      res.total_bytes = 1ull << 40;
      res.free_bytes = (1ull << 40) - fs_->bytes_used();
      res.total_files = fs_->inode_count();
      co_return xdr::encode(res);
    }

    case Proc3::kFsinfo:
      co_return xdr::encode(FsinfoRes());

    case Proc3::kCommit: {
      auto a = xdr::decode<CommitArgs>(args);
      if (!fh_ok(a.fh)) co_return status_reply<CommitRes>(Status::kStale);
      auto it = unstable_bytes_.find(a.fh.fileid);
      if (it != unstable_bytes_.end() && it->second > 0) {
        const uint64_t bytes = it->second;
        forget_unstable(a.fh.fileid);
        co_await host_.disk().write(bytes, /*sequential=*/false,
                                    "nfsd.commit");
      } else {
        // Nothing pending (e.g. already flushed): still durable; drop any
        // stale undo bookkeeping.
        unstable_undo_.erase(a.fh.fileid);
      }
      CommitRes res;
      res.verf = write_verf_;
      co_return xdr::encode(res);
    }
  }
  throw rpc::RpcError(rpc::AcceptStat::kProcUnavail, "unknown NFS proc");
}

// --- MOUNT ---------------------------------------------------------------------

std::shared_ptr<rpc::RpcProgram> Nfs3Server::mount_program() {
  return std::make_shared<MountProgram>(shared_from_this());
}

sim::Task<BufChain> MountProgram::handle(const rpc::CallContext& ctx,
                                         BufChain args) {
  switch (static_cast<MountProc>(ctx.proc)) {
    case MountProc::kNull:
      co_return BufChain{};
    case MountProc::kMnt: {
      auto a = xdr::decode<MntArgs>(args);
      MntRes res;
      const ExportEntry* match = nullptr;
      for (const auto& e : server_->exports_) {
        if (a.dirpath == e.path ||
            (a.dirpath.starts_with(e.path) &&
             a.dirpath.size() > e.path.size() &&
             a.dirpath[e.path.size()] == '/')) {
          match = &e;
          break;
        }
      }
      if (!match) {
        res.status = Status::kAcces;
      } else if (!match->allowed_hosts.empty() &&
                 !match->allowed_hosts.count(ctx.peer_host)) {
        SGFS_INFO("mountd", "refusing mount of ", a.dirpath, " from ",
                  ctx.peer_host);
        res.status = Status::kAcces;
      } else {
        vfs::Cred root(0, 0);
        auto id = server_->fs_->resolve(root, a.dirpath);
        res.status = id.status;
        if (id.ok()) res.root_fh = Fh(server_->fsid_, id.value);
      }
      co_return xdr::encode(res);
    }
    case MountProc::kUmnt:
      co_return BufChain{};
  }
  throw rpc::RpcError(rpc::AcceptStat::kProcUnavail, "unknown MOUNT proc");
}

}  // namespace sgfs::nfs

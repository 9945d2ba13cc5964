#include "nfs/nfs4.hpp"

namespace sgfs::nfs {

// --- server --------------------------------------------------------------------

sim::Task<BufChain> Nfs4Server::handle(const rpc::CallContext& ctx,
                                       BufChain args) {
  if (ctx.proc != kCompoundProc) {
    throw rpc::RpcError(rpc::AcceptStat::kProcUnavail, "v4 expects COMPOUND");
  }
  ++compounds_;
  const vfs::Cred cred = backend_->cred_of(ctx);
  vfs::FileSystem& fs = *backend_->fs_;
  const uint64_t fsid = backend_->fsid_;

  co_await backend_->host_.cpu().use(backend_->cost_.per_op_cpu, "nfsd");

  xdr::Decoder dec(args);
  const uint32_t nops = dec.get_u32();
  if (nops > 64) throw rpc::RpcError(rpc::AcceptStat::kGarbageArgs, "nops");

  std::optional<Fh> current, saved;
  Status overall = Status::kOk;

  struct OpResult {
    Op4 op;
    Status status;
    BufChain payload;
    OpResult(Op4 o, Status s, BufChain p)
        : op(o), status(s), payload(std::move(p)) {}
  };
  std::vector<OpResult> results;

  auto need_fh = [&](std::optional<Fh>& fh) -> Status {
    if (!fh) return Status::kStale;
    if (fh->fsid != fsid) return Status::kStale;
    return Status::kOk;
  };

  for (uint32_t i = 0; i < nops && overall == Status::kOk; ++i) {
    ++ops_;
    const auto op = dec.get_enum<Op4>();
    Status st = Status::kOk;
    xdr::Encoder payload;
    switch (op) {
      case Op4::kPutRootFh:
        current = Fh(fsid, fs.root());
        break;
      case Op4::kPutFh:
        dec(current.emplace());
        st = need_fh(current);
        break;
      case Op4::kGetFh:
        st = need_fh(current);
        if (st == Status::kOk) payload(*current);
        break;
      case Op4::kGetattr: {
        st = need_fh(current);
        if (st == Status::kOk) {
          auto r = fs.getattr(current->fileid);
          st = r.status;
          if (r.ok()) payload(r.value);
        }
        break;
      }
      case Op4::kLookup: {
        const std::string name = dec.get_string(kMaxNameBytes);
        st = need_fh(current);
        if (st == Status::kOk) {
          auto r = fs.lookup(cred, current->fileid, name);
          st = r.status;
          if (r.ok()) current = Fh(fsid, r.value);
        }
        break;
      }
      case Op4::kAccess: {
        const uint32_t want = dec.get_u32();
        st = need_fh(current);
        if (st == Status::kOk) {
          payload.put_u32(fs.access(cred, current->fileid, want));
        }
        break;
      }
      case Op4::kRead: {
        const uint64_t offset = dec.get_u64();
        const uint32_t count = dec.get_u32();
        st = need_fh(current);
        if (st == Status::kOk) {
          auto r = fs.read(cred, current->fileid, offset, count);
          st = r.status;
          if (r.ok()) {
            co_await backend_->charge_read(current->fileid, offset,
                                           r.value.data.size());
            payload.put_u32(static_cast<uint32_t>(r.value.data.size()));
            payload.put_bool(r.value.eof);
            payload.put_opaque_ref(std::move(r.value.data));
          }
        }
        break;
      }
      case Op4::kWrite: {
        const uint64_t offset = dec.get_u64();
        const auto stable = dec.get_enum<StableHow>();
        BufChain data = dec.get_opaque_ref(kMaxDataBytes);
        st = need_fh(current);
        if (st == Status::kOk) {
          auto r = backend_->write_data(cred, current->fileid, offset, data,
                                        stable == StableHow::kUnstable);
          st = r.status;
          if (r.ok()) {
            co_await backend_->charge_write(current->fileid, offset,
                                            data.size(),
                                            stable != StableHow::kUnstable);
            payload.put_u32(r.value);
            payload.put_enum(stable == StableHow::kUnstable
                                 ? StableHow::kUnstable
                                 : StableHow::kFileSync);
            payload.put_u64(backend_->write_verf_);
          }
        }
        break;
      }
      case Op4::kOpen: {
        const std::string name = dec.get_string(kMaxNameBytes);
        const uint32_t mode = dec.get_u32();
        const bool create = dec.get_bool();
        const bool exclusive = dec.get_bool();
        st = need_fh(current);
        if (st == Status::kOk) {
          vfs::Result<vfs::FileId> r =
              create ? fs.create(cred, current->fileid, name, mode, exclusive)
                     : fs.lookup(cred, current->fileid, name);
          st = r.status;
          if (r.ok()) {
            if (create) co_await backend_->charge_meta();
            current = Fh(fsid, r.value);
            payload.put_u64(next_stateid_++);
          }
        }
        break;
      }
      case Op4::kClose:
        (void)dec.get_u64();  // stateid; v4-lite keeps no open state
        break;
      case Op4::kCreateDir: {
        const std::string name = dec.get_string(kMaxNameBytes);
        const uint32_t mode = dec.get_u32();
        st = need_fh(current);
        if (st == Status::kOk) {
          auto r = fs.mkdir(cred, current->fileid, name, mode);
          st = r.status;
          if (r.ok()) {
            co_await backend_->charge_meta();
            current = Fh(fsid, r.value);
          }
        }
        break;
      }
      case Op4::kSymlink: {
        const std::string name = dec.get_string(kMaxNameBytes);
        const std::string target = dec.get_string(kMaxPathBytes);
        st = need_fh(current);
        if (st == Status::kOk) {
          auto r = fs.symlink(cred, current->fileid, name, target);
          st = r.status;
          if (r.ok()) {
            co_await backend_->charge_meta();
            current = Fh(fsid, r.value);
          }
        }
        break;
      }
      case Op4::kRemove: {
        const std::string name = dec.get_string(kMaxNameBytes);
        st = need_fh(current);
        if (st == Status::kOk) {
          st = backend_->unlink_forgetting(current->fileid, name, [&] {
            const Status removed = fs.remove(cred, current->fileid, name);
            return removed == Status::kIsDir
                       ? fs.rmdir(cred, current->fileid, name)
                       : removed;
          });
          if (st == Status::kOk) co_await backend_->charge_meta();
        }
        break;
      }
      case Op4::kSaveFh:
        saved = current;
        st = need_fh(saved);
        break;
      case Op4::kRename: {
        const std::string from = dec.get_string(kMaxNameBytes);
        const std::string to = dec.get_string(kMaxNameBytes);
        st = need_fh(saved);
        if (st == Status::kOk) st = need_fh(current);
        if (st == Status::kOk) {
          st = backend_->unlink_forgetting(current->fileid, to, [&] {
            return fs.rename(cred, saved->fileid, from, current->fileid, to);
          });
          if (st == Status::kOk) co_await backend_->charge_meta();
        }
        break;
      }
      case Op4::kLink: {
        const std::string name = dec.get_string(kMaxNameBytes);
        st = need_fh(saved);
        if (st == Status::kOk) st = need_fh(current);
        if (st == Status::kOk) {
          st = fs.link(cred, saved->fileid, current->fileid, name);
          if (st == Status::kOk) co_await backend_->charge_meta();
        }
        break;
      }
      case Op4::kReaddir: {
        const uint64_t cookie = dec.get_u64();
        const uint32_t count = dec.get_u32();
        const bool plus = dec.get_bool();
        st = need_fh(current);
        if (st == Status::kOk) {
          const uint32_t max = count ? count : 1024;
          auto r = fs.readdir(cred, current->fileid, cookie, max);
          st = r.status;
          if (r.ok()) {
            ReaddirRes rr;
            for (const auto& entry : r.value) {
              DirEntry3 e3;
              e3.fileid = entry.fileid;
              e3.name = entry.name;
              e3.cookie = entry.cookie;
              if (plus) {
                e3.fh = Fh(fsid, entry.fileid);
                auto a = fs.getattr(entry.fileid);
                if (a.ok()) e3.attrs = a.value;
              }
              rr.entries.push_back(std::move(e3));
            }
            rr.eof = r.value.size() < max;
            payload(rr);
          }
        }
        break;
      }
      case Op4::kSetattr: {
        vfs::SetAttrs sattr;
        dec(sattr);
        st = need_fh(current);
        if (st == Status::kOk) {
          st = fs.setattr(cred, current->fileid, sattr);
          if (st == Status::kOk) co_await backend_->charge_meta();
        }
        break;
      }
      case Op4::kCommit: {
        (void)dec.get_u64();
        (void)dec.get_u32();
        st = need_fh(current);
        if (st == Status::kOk) {
          // Committed bytes leave the crash-undo log with their count, as
          // under v3.  (The disk charge is sequential here but not in v3's
          // COMMIT; aligning them would move the nfs-v4 figures.)
          const uint64_t bytes = backend_->unstable_bytes_for(current->fileid);
          backend_->forget_unstable(current->fileid);
          if (bytes > 0) {
            co_await backend_->host_.disk().write(bytes, true, "nfsd.commit");
          }
          payload.put_u64(backend_->write_verf_);
        }
        break;
      }
      case Op4::kReadlink: {
        st = need_fh(current);
        if (st == Status::kOk) {
          auto r = fs.readlink(current->fileid);
          st = r.status;
          if (r.ok()) payload.put_string(r.value);
        }
        break;
      }
      default:
        throw rpc::RpcError(rpc::AcceptStat::kGarbageArgs, "bad v4 op");
    }
    results.emplace_back(op, st, payload.take());
    if (st != Status::kOk) overall = st;
  }

  xdr::Encoder enc;
  enc.put_enum(overall);
  enc.put_u32(static_cast<uint32_t>(results.size()));
  for (const auto& r : results) {
    enc.put_enum(r.op);
    enc.put_enum(r.status);
    enc.put_opaque_ref(r.payload);
  }
  co_return enc.take();
}

// --- client backend ---------------------------------------------------------------

sim::Task<std::unique_ptr<V4WireOps>> V4WireOps::connect(
    net::Host& host, const net::Address& server, rpc::AuthSys auth,
    rpc::RetryPolicy retry) {
  auto ops = std::unique_ptr<V4WireOps>(new V4WireOps());
  ops->client_ =
      co_await rpc::clnt_create(host, server, kNfsProgram, kNfsVersion4);
  ops->client_->set_auth(auth);
  ops->client_->set_retry(retry);
  co_return ops;
}

void V4WireOps::close() {
  if (client_) client_->close();
}

const BufChain* V4WireOps::CompoundReply::find(Op4 op) const {
  for (const auto& [o, payload] : results) {
    if (o == op) return &payload;
  }
  return nullptr;
}

sim::Task<V4WireOps::CompoundReply> V4WireOps::call(BufChain compound_args) {
  BufChain reply =
      co_await client_->call(kCompoundProc, std::move(compound_args));
  xdr::Decoder dec(reply);
  CompoundReply out;
  out.status = dec.get_enum<Status>();
  const uint32_t n = dec.get_u32();
  if (n > 64) throw xdr::XdrError("compound reply too long");
  for (uint32_t i = 0; i < n; ++i) {
    const auto op = dec.get_enum<Op4>();
    const auto st = dec.get_enum<Status>();
    // A per-op payload can carry at most one READ's worth of data plus a
    // handful of scalar fields.
    BufChain payload = dec.get_opaque_ref(kMaxDataBytes + 4096);
    if (st == Status::kOk) {
      out.results.emplace_back(op, std::move(payload));
    }
  }
  co_return out;
}

namespace {
void put_op(xdr::Encoder& e, Op4 op) { e.put_enum(op); }
}  // namespace

sim::Task<Fh> V4WireOps::mount(const std::string& path) {
  xdr::Encoder enc;
  std::vector<std::string> comps;
  size_t start = 0;
  while (start < path.size()) {
    while (start < path.size() && path[start] == '/') ++start;
    if (start >= path.size()) break;
    size_t end = path.find('/', start);
    if (end == std::string::npos) end = path.size();
    comps.push_back(path.substr(start, end - start));
    start = end;
  }
  enc.put_u32(static_cast<uint32_t>(2 + comps.size()));
  put_op(enc, Op4::kPutRootFh);
  for (const auto& c : comps) {
    put_op(enc, Op4::kLookup);
    enc.put_string(c);
  }
  put_op(enc, Op4::kGetFh);
  CompoundReply reply = co_await call(enc.take());
  if (reply.status != Status::kOk) throw FsError(reply.status);
  const BufChain* fh_payload = reply.find(Op4::kGetFh);
  if (!fh_payload) throw FsError(Status::kStale);
  co_return xdr::decode<Fh>(*fh_payload);
}

sim::Task<LookupRes> V4WireOps::lookup(Fh dir, const std::string& name) {
  xdr::Encoder enc;
  enc.put_u32(4);
  put_op(enc, Op4::kPutFh);
  enc(dir);
  put_op(enc, Op4::kLookup);
  enc.put_string(name);
  put_op(enc, Op4::kGetFh);
  put_op(enc, Op4::kGetattr);
  CompoundReply reply = co_await call(enc.take());
  LookupRes res;
  res.status = reply.status;
  if (reply.status == Status::kOk) {
    if (const BufChain* p = reply.find(Op4::kGetFh)) {
      res.fh = xdr::decode<Fh>(*p);
    }
    if (const BufChain* p = reply.find(Op4::kGetattr)) {
      res.attrs = xdr::decode<vfs::Attributes>(*p);
    }
  }
  co_return res;
}

sim::Task<GetattrRes> V4WireOps::getattr(Fh fh) {
  xdr::Encoder enc;
  enc.put_u32(2);
  put_op(enc, Op4::kPutFh);
  enc(fh);
  put_op(enc, Op4::kGetattr);
  CompoundReply reply = co_await call(enc.take());
  GetattrRes res;
  res.status = reply.status;
  if (const BufChain* p = reply.find(Op4::kGetattr)) {
    res.attrs = xdr::decode<vfs::Attributes>(*p);
  }
  co_return res;
}

sim::Task<WccRes> V4WireOps::setattr(Fh fh, const vfs::SetAttrs& sattr) {
  xdr::Encoder enc;
  enc.put_u32(3);
  put_op(enc, Op4::kPutFh);
  enc(fh);
  put_op(enc, Op4::kSetattr);
  enc(sattr);
  put_op(enc, Op4::kGetattr);
  CompoundReply reply = co_await call(enc.take());
  WccRes res;
  res.status = reply.status;
  if (const BufChain* p = reply.find(Op4::kGetattr)) {
    res.post_attrs = xdr::decode<vfs::Attributes>(*p);
  }
  co_return res;
}

sim::Task<AccessRes> V4WireOps::access(Fh fh, uint32_t want) {
  xdr::Encoder enc;
  enc.put_u32(3);
  put_op(enc, Op4::kPutFh);
  enc(fh);
  put_op(enc, Op4::kAccess);
  enc.put_u32(want);
  put_op(enc, Op4::kGetattr);
  CompoundReply reply = co_await call(enc.take());
  AccessRes res;
  res.status = reply.status;
  if (const BufChain* p = reply.find(Op4::kAccess)) {
    xdr::Decoder d(*p);
    res.access = d.get_u32();
  }
  if (const BufChain* p = reply.find(Op4::kGetattr)) {
    res.post_attrs = xdr::decode<vfs::Attributes>(*p);
  }
  co_return res;
}

sim::Task<ReadRes> V4WireOps::read(Fh fh, uint64_t offset, uint32_t count) {
  xdr::Encoder enc;
  enc.put_u32(3);
  put_op(enc, Op4::kPutFh);
  enc(fh);
  put_op(enc, Op4::kRead);
  enc.put_u64(offset);
  enc.put_u32(count);
  put_op(enc, Op4::kGetattr);
  CompoundReply reply = co_await call(enc.take());
  ReadRes res;
  res.status = reply.status;
  if (const BufChain* p = reply.find(Op4::kRead)) {
    xdr::Decoder d(*p);
    res.count = d.get_u32();
    res.eof = d.get_bool();
    res.data = d.get_opaque_ref(kMaxDataBytes);
  }
  if (const BufChain* p = reply.find(Op4::kGetattr)) {
    res.post_attrs = xdr::decode<vfs::Attributes>(*p);
  }
  co_return res;
}

sim::Task<WriteRes> V4WireOps::write(Fh fh, uint64_t offset, StableHow stable,
                                     BufChain data) {
  xdr::Encoder enc;
  enc.put_u32(3);
  put_op(enc, Op4::kPutFh);
  enc(fh);
  put_op(enc, Op4::kWrite);
  enc.put_u64(offset);
  enc.put_enum(stable);
  enc.put_opaque_ref(std::move(data));
  put_op(enc, Op4::kGetattr);
  CompoundReply reply = co_await call(enc.take());
  WriteRes res;
  res.status = reply.status;
  if (const BufChain* p = reply.find(Op4::kWrite)) {
    xdr::Decoder d(*p);
    res.count = d.get_u32();
    res.committed = d.get_enum<StableHow>();
    res.verf = d.get_u64();
  }
  if (const BufChain* p = reply.find(Op4::kGetattr)) {
    res.post_attrs = xdr::decode<vfs::Attributes>(*p);
  }
  co_return res;
}

sim::Task<CreateRes> V4WireOps::create(Fh dir, const std::string& name,
                                       uint32_t mode, bool exclusive) {
  xdr::Encoder enc;
  enc.put_u32(4);
  put_op(enc, Op4::kPutFh);
  enc(dir);
  put_op(enc, Op4::kOpen);
  enc.put_string(name);
  enc.put_u32(mode);
  enc.put_bool(true);  // create
  enc.put_bool(exclusive);
  put_op(enc, Op4::kGetFh);
  put_op(enc, Op4::kGetattr);
  CompoundReply reply = co_await call(enc.take());
  CreateRes res;
  res.status = reply.status;
  if (const BufChain* p = reply.find(Op4::kGetFh)) {
    res.fh = xdr::decode<Fh>(*p);
  }
  if (const BufChain* p = reply.find(Op4::kGetattr)) {
    res.attrs = xdr::decode<vfs::Attributes>(*p);
  }
  co_return res;
}

sim::Task<CreateRes> V4WireOps::mkdir(Fh dir, const std::string& name,
                                      uint32_t mode) {
  xdr::Encoder enc;
  enc.put_u32(4);
  put_op(enc, Op4::kPutFh);
  enc(dir);
  put_op(enc, Op4::kCreateDir);
  enc.put_string(name);
  enc.put_u32(mode);
  put_op(enc, Op4::kGetFh);
  put_op(enc, Op4::kGetattr);
  CompoundReply reply = co_await call(enc.take());
  CreateRes res;
  res.status = reply.status;
  if (const BufChain* p = reply.find(Op4::kGetFh)) {
    res.fh = xdr::decode<Fh>(*p);
  }
  if (const BufChain* p = reply.find(Op4::kGetattr)) {
    res.attrs = xdr::decode<vfs::Attributes>(*p);
  }
  co_return res;
}

sim::Task<CreateRes> V4WireOps::symlink(Fh dir, const std::string& name,
                                        const std::string& target) {
  xdr::Encoder enc;
  enc.put_u32(4);
  put_op(enc, Op4::kPutFh);
  enc(dir);
  put_op(enc, Op4::kSymlink);
  enc.put_string(name);
  enc.put_string(target);
  put_op(enc, Op4::kGetFh);
  put_op(enc, Op4::kGetattr);
  CompoundReply reply = co_await call(enc.take());
  CreateRes res;
  res.status = reply.status;
  if (const BufChain* p = reply.find(Op4::kGetFh)) {
    res.fh = xdr::decode<Fh>(*p);
  }
  if (const BufChain* p = reply.find(Op4::kGetattr)) {
    res.attrs = xdr::decode<vfs::Attributes>(*p);
  }
  co_return res;
}

sim::Task<WccRes> V4WireOps::remove(Fh dir, const std::string& name) {
  xdr::Encoder enc;
  enc.put_u32(3);
  put_op(enc, Op4::kPutFh);
  enc(dir);
  put_op(enc, Op4::kRemove);
  enc.put_string(name);
  put_op(enc, Op4::kGetattr);
  CompoundReply reply = co_await call(enc.take());
  WccRes res;
  res.status = reply.status;
  if (const BufChain* p = reply.find(Op4::kGetattr)) {
    res.post_attrs = xdr::decode<vfs::Attributes>(*p);
  }
  co_return res;
}

sim::Task<WccRes> V4WireOps::rmdir(Fh dir, const std::string& name) {
  co_return co_await remove(dir, name);  // v4 REMOVE covers both
}

sim::Task<WccRes> V4WireOps::rename(Fh from_dir, const std::string& from_name,
                                    Fh to_dir, const std::string& to_name) {
  xdr::Encoder enc;
  enc.put_u32(5);
  put_op(enc, Op4::kPutFh);
  enc(from_dir);
  put_op(enc, Op4::kSaveFh);
  put_op(enc, Op4::kPutFh);
  enc(to_dir);
  put_op(enc, Op4::kRename);
  enc.put_string(from_name);
  enc.put_string(to_name);
  put_op(enc, Op4::kGetattr);
  CompoundReply reply = co_await call(enc.take());
  WccRes res;
  res.status = reply.status;
  if (const BufChain* p = reply.find(Op4::kGetattr)) {
    res.post_attrs = xdr::decode<vfs::Attributes>(*p);
  }
  co_return res;
}

sim::Task<WccRes> V4WireOps::link(Fh file, Fh dir, const std::string& name) {
  xdr::Encoder enc;
  enc.put_u32(4);
  put_op(enc, Op4::kPutFh);
  enc(file);
  put_op(enc, Op4::kSaveFh);
  put_op(enc, Op4::kPutFh);
  enc(dir);
  put_op(enc, Op4::kLink);
  enc.put_string(name);
  CompoundReply reply = co_await call(enc.take());
  WccRes res;
  res.status = reply.status;
  co_return res;
}

sim::Task<ReaddirRes> V4WireOps::readdir(Fh dir, uint64_t cookie,
                                         uint32_t count, bool plus) {
  xdr::Encoder enc;
  enc.put_u32(2);
  put_op(enc, Op4::kPutFh);
  enc(dir);
  put_op(enc, Op4::kReaddir);
  enc.put_u64(cookie);
  enc.put_u32(count);
  enc.put_bool(plus);
  CompoundReply reply = co_await call(enc.take());
  ReaddirRes res;
  res.status = reply.status;
  if (const BufChain* p = reply.find(Op4::kReaddir)) {
    res = xdr::decode<ReaddirRes>(*p);
  }
  co_return res;
}

sim::Task<ReadlinkRes> V4WireOps::readlink(Fh fh) {
  xdr::Encoder enc;
  enc.put_u32(2);
  put_op(enc, Op4::kPutFh);
  enc(fh);
  put_op(enc, Op4::kReadlink);
  CompoundReply reply = co_await call(enc.take());
  ReadlinkRes res;
  res.status = reply.status;
  if (const BufChain* p = reply.find(Op4::kReadlink)) {
    xdr::Decoder d(*p);
    res.target = d.get_string(kMaxPathBytes);
  }
  co_return res;
}

sim::Task<CommitRes> V4WireOps::commit(Fh fh) {
  xdr::Encoder enc;
  enc.put_u32(2);
  put_op(enc, Op4::kPutFh);
  enc(fh);
  put_op(enc, Op4::kCommit);
  enc.put_u64(0);
  enc.put_u32(0);
  CompoundReply reply = co_await call(enc.take());
  CommitRes res;
  res.status = reply.status;
  if (const BufChain* p = reply.find(Op4::kCommit)) {
    xdr::Decoder d(*p);
    res.verf = d.get_u64();
  }
  co_return res;
}

}  // namespace sgfs::nfs

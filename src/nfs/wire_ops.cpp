#include "nfs/wire_ops.hpp"

#include "common/bufchain.hpp"

namespace sgfs::nfs {

sim::Task<std::unique_ptr<V3WireOps>> V3WireOps::connect(
    net::Host& host, const net::Address& server, rpc::AuthSys auth,
    rpc::RetryPolicy retry, rpc::JukeboxPolicy jukebox) {
  auto ops = std::unique_ptr<V3WireOps>(new V3WireOps(host, server, auth));
  ops->retry_ = retry;
  ops->jukebox_ = jukebox;
  ops->client_ =
      co_await rpc::clnt_create(host, server, kNfsProgram, kNfsVersion3);
  ops->client_->set_auth(auth);
  ops->client_->set_retry(retry);
  co_return ops;
}

void V3WireOps::close() {
  if (client_) client_->close();
}

sim::Task<BufChain> V3WireOps::call(Proc3 proc, BufChain args) {
  const rpc::JukeboxPolicy jukebox = jukebox_;
  for (int busy = 0;; ++busy) {
    BufChain reply = co_await call_once(proc, args);
    if (!jukebox.enabled() || busy >= jukebox.max_retries ||
        !reply_is_jukebox(reply)) {
      co_return reply;
    }
    // The server shed this call without executing it; wait out the overload
    // and re-issue under a FRESH xid (call_once reserves one per attempt) —
    // resending the old xid could replay a DRC-cached jukebox result.
    m_jukebox_retries_.inc();
    co_await host_.engine().sleep(jukebox.delay(busy));
  }
}

sim::Task<BufChain> V3WireOps::call_once(Proc3 proc, BufChain args) {
  // The xid is reserved once and reused across reconnects so the server's
  // duplicate-request cache still recognises a resend of a call it already
  // executed before the connection died (unless the server itself crashed,
  // in which case the DRC is gone and the verifier roll exposes it).
  const uint32_t xid = client_->reserve_xid();
  for (int attempt = 0;; ++attempt) {
    try {
      // `args` is a refcounted chain; passing a copy keeps it resendable.
      co_return co_await client_->call_with_xid(
          xid, static_cast<uint32_t>(proc), args);
    } catch (const net::StreamClosed&) {
      if (attempt >= kMaxReconnects) throw;
    }
    // The crashed server refuses connections until its restart completes;
    // back off linearly, then reconnect (first caller wins — later callers
    // see the bumped generation and just retry on the fresh client).
    const uint64_t gen = conn_gen_;
    co_await host_.engine().sleep(kReconnectBackoff * (attempt + 1));
    if (conn_gen_ != gen) continue;
    try {
      auto fresh = co_await rpc::clnt_create(host_, server_, kNfsProgram,
                                             kNfsVersion3);
      if (conn_gen_ != gen) {
        fresh->close();  // raced with another reconnect; use theirs
        continue;
      }
      fresh->set_auth(auth_);
      fresh->set_retry(retry_);
      if (budget_) fresh->set_retry_budget(budget_);
      client_->close();
      client_ = std::move(fresh);
      ++conn_gen_;
      m_reconnects_.inc();
    } catch (const std::exception&) {
      // Still down; the next iteration backs off longer and tries again.
    }
  }
}

template <Proc3 P>
sim::Task<typename ProcTraits<P>::Res> V3WireOps::call(
    typename ProcTraits<P>::Args args) {
  BufChain reply = co_await call(P, xdr::encode(args));
  co_return xdr::decode<typename ProcTraits<P>::Res>(reply);
}

sim::Task<Fh> V3WireOps::mount(const std::string& path) {
  auto mount_client = co_await rpc::clnt_create(host_, server_, kMountProgram,
                                                kMountVersion3);
  mount_client->set_auth(auth_);
  mount_client->set_retry(retry_);
  BufChain reply = co_await mount_client->call(
      static_cast<uint32_t>(MountProc::kMnt), xdr::encode(MntArgs(path)));
  auto res = xdr::decode<MntRes>(reply);
  mount_client->close();
  if (res.status != Status::kOk) throw FsError(res.status);
  co_return res.root_fh;
}

// Each method is one typed call: the table (nfs3.hpp) supplies the codec.

sim::Task<LookupRes> V3WireOps::lookup(Fh dir, const std::string& name) {
  return call<Proc3::kLookup>(DiropArgs(dir, name));
}

sim::Task<GetattrRes> V3WireOps::getattr(Fh fh) {
  return call<Proc3::kGetattr>(GetattrArgs(fh));
}

sim::Task<WccRes> V3WireOps::setattr(Fh fh, const vfs::SetAttrs& sattr) {
  return call<Proc3::kSetattr>(SetattrArgs(fh, sattr));
}

sim::Task<AccessRes> V3WireOps::access(Fh fh, uint32_t want) {
  return call<Proc3::kAccess>(AccessArgs(fh, want));
}

sim::Task<ReadRes> V3WireOps::read(Fh fh, uint64_t offset, uint32_t count) {
  return call<Proc3::kRead>(ReadArgs(fh, offset, count));
}

sim::Task<WriteRes> V3WireOps::write(Fh fh, uint64_t offset, StableHow stable,
                                     BufChain data) {
  return call<Proc3::kWrite>(WriteArgs(fh, offset, stable, std::move(data)));
}

sim::Task<CreateRes> V3WireOps::create(Fh dir, const std::string& name,
                                       uint32_t mode, bool exclusive) {
  return call<Proc3::kCreate>(CreateArgs({dir, name}, mode, exclusive));
}

sim::Task<CreateRes> V3WireOps::mkdir(Fh dir, const std::string& name,
                                      uint32_t mode) {
  return call<Proc3::kMkdir>(MkdirArgs({dir, name}, mode));
}

sim::Task<CreateRes> V3WireOps::symlink(Fh dir, const std::string& name,
                                        const std::string& target) {
  return call<Proc3::kSymlink>(SymlinkArgs({dir, name}, target));
}

sim::Task<WccRes> V3WireOps::remove(Fh dir, const std::string& name) {
  return call<Proc3::kRemove>(DiropArgs(dir, name));
}

sim::Task<WccRes> V3WireOps::rmdir(Fh dir, const std::string& name) {
  return call<Proc3::kRmdir>(DiropArgs(dir, name));
}

sim::Task<WccRes> V3WireOps::rename(Fh from_dir, const std::string& from_name,
                                    Fh to_dir, const std::string& to_name) {
  return call<Proc3::kRename>(RenameArgs(from_dir, from_name, to_dir, to_name));
}

sim::Task<WccRes> V3WireOps::link(Fh file, Fh dir, const std::string& name) {
  return call<Proc3::kLink>(LinkArgs(file, dir, name));
}

sim::Task<ReaddirRes> V3WireOps::readdir(Fh dir, uint64_t cookie,
                                         uint32_t count, bool plus) {
  const ReaddirArgs args(dir, cookie, count, plus);
  return plus ? call<Proc3::kReaddirplus>(args) : call<Proc3::kReaddir>(args);
}

sim::Task<ReadlinkRes> V3WireOps::readlink(Fh fh) {
  return call<Proc3::kReadlink>(GetattrArgs(fh));
}

sim::Task<CommitRes> V3WireOps::commit(Fh fh) {
  return call<Proc3::kCommit>(CommitArgs(fh, 0, 0));
}

}  // namespace sgfs::nfs

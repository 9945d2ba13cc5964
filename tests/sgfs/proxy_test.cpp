// End-to-end SGFS tests: application -> kernel NFS client -> client proxy
// (disk cache) -> SSL -> server proxy (gridmap/ACL) -> kernel NFS server ->
// VFS.  This is the paper's Figure 1/3 deployment in miniature.
#include <gtest/gtest.h>

#include "nfs/nfs3_client.hpp"
#include "nfs/nfs3_server.hpp"
#include "nfs/wire_ops.hpp"
#include "obs/metrics.hpp"
#include "sgfs/client_proxy.hpp"
#include "sgfs/server_proxy.hpp"

namespace sgfs::core {
namespace {

using namespace sgfs::sim::literals;
using sim::Engine;
using sim::Task;

struct Pki {
  Rng rng{700};
  crypto::CertificateAuthority ca{
      rng, crypto::DistinguishedName("Grid", "RootCA"), 0, 10000000};
  crypto::Credential alice{
      ca.issue(rng, crypto::DistinguishedName("UFL", "alice"),
               crypto::CertType::kIdentity, 0, 5000000)};
  crypto::Credential bob{
      ca.issue(rng, crypto::DistinguishedName("UFL", "bob"),
               crypto::CertType::kIdentity, 0, 5000000)};
  crypto::Credential fileserver{
      ca.issue(rng, crypto::DistinguishedName("UFL", "fileserver"),
               crypto::CertType::kHost, 0, 5000000)};
};

Pki& pki() {
  static Pki p;
  return p;
}

struct Grid {
  Engine eng;
  net::Network net{eng};
  net::Host* compute;
  net::Host* fileserver;
  std::shared_ptr<vfs::FileSystem> fs;
  std::shared_ptr<nfs::Nfs3Server> kernel_nfs;
  std::unique_ptr<rpc::RpcServer> kernel_rpc;
  std::shared_ptr<ServerProxy> server_proxy;
  std::shared_ptr<ClientProxy> client_proxy;

  static constexpr uint32_t kAliceUid = 2001;

  explicit Grid(const crypto::Credential& user_cred,
                CacheConfig cache = CacheConfig(),
                UnmappedPolicy unmapped = UnmappedPolicy::kDeny,
                sim::SimDur renegotiate = 0) {
    compute = &net.add_host("compute");
    fileserver = &net.add_host("fileserver");

    // Kernel NFS server exporting /GFS to localhost only (Figure 1).
    fs = std::make_shared<vfs::FileSystem>();
    vfs::Cred root(0, 0);
    fs->mkdir_p(root, "/GFS/alice", 0755);
    auto dir = fs->resolve(root, "/GFS/alice");
    vfs::SetAttrs chown;
    chown.uid = kAliceUid;
    chown.gid = kAliceUid;
    fs->setattr(root, dir.value, chown);
    kernel_nfs = std::make_shared<nfs::Nfs3Server>(*fileserver, fs);
    kernel_nfs->add_export(nfs::ExportEntry("/GFS", {"fileserver"}));
    kernel_rpc = std::make_unique<rpc::RpcServer>(*fileserver, 2049);
    kernel_rpc->register_program(nfs::kNfsProgram, nfs::kNfsVersion3,
                                 kernel_nfs);
    kernel_rpc->register_program(nfs::kMountProgram, nfs::kMountVersion3,
                                 kernel_nfs->mount_program());
    kernel_rpc->start();

    // Server-side proxy on the file server.
    ServerProxyConfig scfg;
    scfg.security.credential = pki().fileserver;
    scfg.security.trusted = {pki().ca.root()};
    scfg.gridmap.add("/O=UFL/CN=alice", "alice");
    scfg.accounts.add(Account("alice", kAliceUid, kAliceUid));
    scfg.accounts.add(Account("nobody", 65534, 65534));
    scfg.unmapped = unmapped;
    scfg.kernel_nfs = net::Address("fileserver", 2049);
    server_proxy =
        std::make_shared<ServerProxy>(*fileserver, scfg, fs, Rng(701));
    server_proxy->start(3049);

    // Client-side proxy on the compute host.
    ClientProxyConfig ccfg;
    ccfg.security.credential = user_cred;
    ccfg.security.trusted = {pki().ca.root()};
    ccfg.security.renegotiate_interval = renegotiate;
    ccfg.server_proxy = net::Address("fileserver", 3049);
    ccfg.cache = cache;
    client_proxy = std::make_shared<ClientProxy>(*compute, ccfg, Rng(702));
    client_proxy->start(2049);
  }

  sim::Task<std::shared_ptr<nfs::MountPoint>> mount_session() {
    net::Address local_proxy("compute", 2049);
    rpc::AuthSys job_account(1000, 1000, "compute");
    co_return co_await nfs::MountPoint::mount(*compute, local_proxy,
                                              "/GFS/alice", job_account);
  }
};

TEST(Sgfs, EndToEndReadWrite) {
  Grid grid(pki().alice);
  grid.eng.run_task([](Grid& grid) -> Task<void> {
    auto mp = co_await grid.mount_session();
    int fd = co_await mp->open("results.dat", nfs::kWrOnly | nfs::kCreate);
    Buffer payload = to_bytes("grid job output");
    co_await mp->write(fd, payload);
    co_await mp->close(fd);
    co_await grid.client_proxy->flush();

    // The file landed on the server, owned by the *mapped* account — not
    // the job account uid 1000 (identity mapping, §4.3).
    vfs::Cred root(0, 0);
    auto id = grid.fs->resolve(root, "/GFS/alice/results.dat");
    EXPECT_TRUE(id.ok());
    auto attrs = grid.fs->getattr(id.value);
    EXPECT_EQ(attrs.value.uid, Grid::kAliceUid);
    auto content = grid.fs->read_file(root, "/GFS/alice/results.dat");
    EXPECT_EQ(content.value, payload);

    int fd2 = co_await mp->open("results.dat", nfs::kRdOnly);
    Buffer back(payload.size());
    co_await mp->read(fd2, back);
    EXPECT_EQ(back, payload);
    co_await mp->close(fd2);
  }(grid));
  EXPECT_TRUE(grid.eng.errors().empty());
}

TEST(Sgfs, DirectKernelMountRefusedFromRemoteHost) {
  Grid grid(pki().alice);
  grid.eng.run_task([](Grid& grid) -> Task<void> {
    net::Address kernel("fileserver", 2049);
    rpc::AuthSys auth(1000, 1000);
    bool refused = false;
    try {
      auto mp = co_await nfs::MountPoint::mount(*grid.compute, kernel,
                                                "/GFS/alice", auth);
    } catch (const nfs::FsError& e) {
      refused = e.status() == nfs::Status::kAcces;
    }
    EXPECT_TRUE(refused);  // kernel exports to localhost only
  }(grid));
}

TEST(Sgfs, UnmappedUserDenied) {
  Grid grid(pki().bob);  // bob is not in the gridmap
  grid.eng.run_task([](Grid& grid) -> Task<void> {
    bool denied = false;
    try {
      auto mp = co_await grid.mount_session();
    } catch (const std::exception&) {
      denied = true;
    }
    EXPECT_TRUE(denied);
    EXPECT_GT(grid.server_proxy->denied(), 0u);
  }(grid));
}

TEST(Sgfs, UnmappedUserAnonymousPolicy) {
  Grid grid(pki().bob, CacheConfig(), UnmappedPolicy::kAnonymous);
  // Make a world-readable file.
  grid.fs->write_file(vfs::Cred(0, 0), "/GFS/alice/public.txt",
                      to_bytes("world readable"), 0644);
  grid.eng.run_task([](Grid& grid) -> Task<void> {
    auto mp = co_await grid.mount_session();
    // Anonymous can read public files...
    int fd = co_await mp->open("public.txt", nfs::kRdOnly);
    Buffer buf(32);
    size_t n = co_await mp->read(fd, buf);
    EXPECT_EQ(sgfs::to_string(ByteView(buf.data(), n)), "world readable");
    co_await mp->close(fd);
    // ...but cannot create files in alice's directory.
    bool denied = false;
    try {
      int fd2 = co_await mp->open("mine.txt", nfs::kWrOnly | nfs::kCreate);
      co_await mp->close(fd2);
    } catch (const nfs::FsError& e) {
      denied = e.status() == nfs::Status::kAcces;
    }
    EXPECT_TRUE(denied);
  }(grid));
}

TEST(Sgfs, ProxyCertificateDelegationWorks) {
  Rng rng(703);
  crypto::Credential proxy_cred = issue_proxy(rng, pki().alice, 0, 4000000);
  Grid grid(proxy_cred);
  grid.eng.run_task([](Grid& grid) -> Task<void> {
    auto mp = co_await grid.mount_session();
    int fd = co_await mp->open("via-proxy.txt", nfs::kWrOnly | nfs::kCreate);
    co_await mp->write(fd, to_bytes("delegated"));
    co_await mp->close(fd);
    co_await grid.client_proxy->flush();
    auto attrs = co_await mp->stat("via-proxy.txt");
    EXPECT_EQ(attrs.uid, Grid::kAliceUid);  // proxy unwraps to alice
  }(grid));
}

TEST(Sgfs, FineGrainedAclEnforced) {
  // Write-through session: enforcement is visible immediately (a write-back
  // session would only surface the denial at flush time).
  CacheConfig wt;
  wt.write_back = false;
  Grid grid(pki().alice, wt);
  // Root drops a read-only ACL on a file in alice's tree.
  vfs::Cred root(0, 0);
  grid.fs->write_file(root, "/GFS/alice/protected.dat",
                      to_bytes("look but don't touch"), 0666);
  Acl acl;
  acl.entries["/O=UFL/CN=alice"] = vfs::kAccessRead | vfs::kAccessLookup;
  auto dir = grid.fs->resolve(root, "/GFS/alice");
  grid.server_proxy->acl_store()->put_acl(dir.value, "protected.dat", acl);

  grid.eng.run_task([](Grid& grid) -> Task<void> {
    auto mp = co_await grid.mount_session();
    // ACCESS reports read-only (the proxy's ACL decision).
    uint32_t bits = co_await mp->access(
        "protected.dat", vfs::kAccessRead | vfs::kAccessModify);
    EXPECT_EQ(bits, vfs::kAccessRead);
    // Reads succeed.
    int fd = co_await mp->open("protected.dat", nfs::kRdOnly);
    Buffer buf(64);
    size_t n = co_await mp->read(fd, buf);
    EXPECT_GT(n, 0u);
    co_await mp->close(fd);
    // Direct writes are rejected by the proxy even though the kernel mode
    // bits (0666) would allow them.
    bool denied = false;
    try {
      nfs::Nfs3ClientConfig cfg;
      cfg.write_behind = false;  // force the WRITE through immediately
      net::Address local_proxy("compute", 2049);
      rpc::AuthSys job(1000, 1000, "compute");
      auto mp2 = co_await nfs::MountPoint::mount(*grid.compute, local_proxy,
                                                 "/GFS/alice", job, cfg);
      int wfd = co_await mp2->open("protected.dat", nfs::kWrOnly);
      co_await mp2->write(wfd, to_bytes("overwrite!"));
      co_await mp2->close(wfd);
    } catch (const nfs::FsError& e) {
      denied = e.status() == nfs::Status::kAcces;
    }
    EXPECT_TRUE(denied);
    EXPECT_GT(grid.server_proxy->acl_decisions(), 0u);
  }(grid));
}

TEST(Sgfs, AclInheritanceFromParentDirectory) {
  Grid grid(pki().alice);
  vfs::Cred root(0, 0);
  grid.fs->mkdir_p(root, "/GFS/alice/shared", 0777);
  grid.fs->write_file(root, "/GFS/alice/shared/inner.txt",
                      to_bytes("inherited"), 0666);
  // ACL on the *directory* (stored in its parent): read-only for alice.
  Acl acl;
  acl.entries["/O=UFL/CN=alice"] = vfs::kAccessRead | vfs::kAccessLookup;
  auto parent = grid.fs->resolve(root, "/GFS/alice");
  grid.server_proxy->acl_store()->put_acl(parent.value, "shared", acl);

  grid.eng.run_task([](Grid& grid) -> Task<void> {
    auto mp = co_await grid.mount_session();
    uint32_t bits = co_await mp->access(
        "shared/inner.txt", vfs::kAccessRead | vfs::kAccessModify);
    EXPECT_EQ(bits, vfs::kAccessRead);  // inherited from parent's ACL
  }(grid));
}

TEST(Sgfs, AclFilesHiddenFromRemote) {
  Grid grid(pki().alice);
  vfs::Cred root(0, 0);
  grid.fs->write_file(root, "/GFS/alice/f.txt", to_bytes("x"), 0666);
  Acl acl;
  acl.entries["/O=UFL/CN=alice"] = 0x3f;
  auto dir = grid.fs->resolve(root, "/GFS/alice");
  grid.server_proxy->acl_store()->put_acl(dir.value, "f.txt", acl);

  grid.eng.run_task([](Grid& grid) -> Task<void> {
    auto mp = co_await grid.mount_session();
    auto entries = co_await mp->readdir("");
    for (const auto& e : entries) {
      EXPECT_FALSE(is_acl_name(e.name)) << e.name;
    }
    bool hidden = false;
    try {
      (void)co_await mp->stat(".f.txt.acl");
    } catch (const nfs::FsError& e) {
      hidden = e.status() == nfs::Status::kNoEnt;
    }
    EXPECT_TRUE(hidden);
  }(grid));
}

TEST(Sgfs, WriteBackAbsorbsAndFlushPropagates) {
  Grid grid(pki().alice);
  grid.eng.run_task([](Grid& grid) -> Task<void> {
    auto mp = co_await grid.mount_session();
    int fd = co_await mp->open("big.bin", nfs::kWrOnly | nfs::kCreate);
    Rng rng(9);
    Buffer payload = rng.bytes(512 * 1024);
    co_await mp->write(fd, payload);
    co_await mp->close(fd);

    EXPECT_GT(grid.client_proxy->absorbed_writes(), 0u);
    EXPECT_GT(grid.client_proxy->dirty_bytes(), 0u);
    // The server does not have the data yet.
    vfs::Cred root(0, 0);
    auto before = grid.fs->read_file(root, "/GFS/alice/big.bin");
    EXPECT_LT(before.value.size(), payload.size());

    co_await grid.client_proxy->flush();
    EXPECT_EQ(grid.client_proxy->dirty_bytes(), 0u);
    auto after = grid.fs->read_file(root, "/GFS/alice/big.bin");
    EXPECT_EQ(after.value, payload);
  }(grid));
}

TEST(Sgfs, RemoveCancelsPendingWriteback) {
  Grid grid(pki().alice);
  grid.eng.run_task([](Grid& grid) -> Task<void> {
    auto mp = co_await grid.mount_session();
    int fd = co_await mp->open("temp.bin", nfs::kWrOnly | nfs::kCreate);
    Buffer payload(256 * 1024, 0x5A);
    co_await mp->write(fd, payload);
    co_await mp->close(fd);
    const uint64_t dirty = grid.client_proxy->dirty_bytes();
    EXPECT_GT(dirty, 0u);

    co_await mp->unlink("temp.bin");
    // The temporary data never crosses the WAN (paper §6.3.2).
    EXPECT_EQ(grid.client_proxy->dirty_bytes(), 0u);
    EXPECT_GE(grid.client_proxy->cancelled_writeback_bytes(),
              payload.size());
    const uint64_t flushed_before = grid.client_proxy->flushed_bytes();
    co_await grid.client_proxy->flush();
    EXPECT_EQ(grid.client_proxy->flushed_bytes(), flushed_before);
  }(grid));
}

// A write-back file reopened after the kernel's attribute timeout must show
// the size of its absorbed writes, not the server's stale one.  The reopen
// forwards ACCESS (and, once the proxy's own attributes expire in revalidate
// mode, GETATTR): both replies carry the server's view of a file whose
// newest bytes exist only in the proxy's cache.  kDirtyReread overwrites an
// older version, then reads the dirty block straight through the proxy after
// the proxy's attributes for the file expired, with no GETATTR first.
enum class Shape { kNewFile, kAppend, kTruncateThenWrite, kDirtyReread };

struct StaleSizeCase {
  Consistency consistency;
  Shape shape;
  StaleSizeCase(Consistency c, Shape s) : consistency(c), shape(s) {}
};

void PrintTo(const StaleSizeCase& c, std::ostream* os) {
  *os << (c.consistency == Consistency::kSessionExclusive ? "session"
                                                          : "revalidate")
      << "/shape" << static_cast<int>(c.shape);
}

class WriteBackStaleSize : public ::testing::TestWithParam<StaleSizeCase> {};

TEST_P(WriteBackStaleSize, ReopenAfterAttrTimeoutSeesAbsorbedSize) {
  CacheConfig cache;
  cache.consistency = GetParam().consistency;
  cache.attr_ttl = 2 * sim::kSecond;  // revalidate: proxy attrs expire too
  Grid grid(pki().alice, cache);
  grid.eng.run_task([](Grid& grid, Shape shape) -> Task<void> {
    auto mp = co_await grid.mount_session();
    Rng rng(31);
    Buffer expected;
    if (shape != Shape::kNewFile) {
      // An older version, already written back: clean in the proxy.
      expected = rng.bytes(shape == Shape::kAppend ? 3000 : 8000);
      int fd = co_await mp->open("out.dat", nfs::kWrOnly | nfs::kCreate);
      co_await mp->write(fd, expected);
      co_await mp->close(fd);
      co_await grid.client_proxy->flush();
      co_await grid.eng.sleep(5 * sim::kSecond);
    }
    uint32_t flags = nfs::kWrOnly | nfs::kCreate;
    if (shape == Shape::kAppend) flags = nfs::kWrOnly | nfs::kAppend;
    if (shape == Shape::kTruncateThenWrite) flags = nfs::kWrOnly | nfs::kTrunc;
    if (shape == Shape::kDirtyReread) flags = nfs::kWrOnly;  // overwrite
    const Buffer update = rng.bytes(shape == Shape::kAppend ? 2000 : 5000);
    const size_t overwritten = std::min<size_t>(expected.size(), 5000);
    const Buffer old_tail(expected.begin() + overwritten, expected.end());
    int fd = co_await mp->open("out.dat", flags);
    co_await mp->write(fd, update);
    co_await mp->close(fd);
    if (shape != Shape::kAppend) expected.clear();
    expected.insert(expected.end(), update.begin(), update.end());
    if (shape == Shape::kDirtyReread) {
      expected.insert(expected.end(), old_tail.begin(), old_tail.end());
    }
    EXPECT_GT(grid.client_proxy->dirty_bytes(), 0u);  // not written back

    Buffer back(expected.size() + 100);
    if (shape == Shape::kDirtyReread) {
      // A second client on the host, past the kernel's page cache.
      const rpc::AuthSys job_account(1000, 1000, "compute");
      const net::Address local_proxy("compute", 2049);
      auto ops = co_await nfs::V3WireOps::connect(*grid.compute, local_proxy,
                                                  job_account);
      const nfs::Fh root = co_await ops->mount("/GFS/alice");
      const nfs::LookupRes file = co_await ops->lookup(root, "out.dat");
      co_await grid.eng.sleep(5 * sim::kSecond);  // past the proxy's TTL
      const nfs::ReadRes r = co_await ops->read(file.fh, 0, 32 * 1024);
      ops->close();
      Buffer scratch;
      const ByteView got = linearize(r.data, scratch);
      back.assign(got.begin(), got.end());
    } else {
      co_await grid.eng.sleep(5 * sim::kSecond);  // past the kernel's ac_min
      fd = co_await mp->open("out.dat", nfs::kRdOnly);
      back.resize(co_await mp->read(fd, back));
      co_await mp->close(fd);
    }
    EXPECT_EQ(back, expected);
    const vfs::Attributes attrs = co_await mp->stat("out.dat");
    EXPECT_EQ(attrs.size, expected.size());

    // Write-back then lands the same bytes on the server.
    co_await grid.client_proxy->flush();
    auto stored = grid.fs->read_file(vfs::Cred(0, 0), "/GFS/alice/out.dat");
    EXPECT_EQ(stored.value, expected);
  }(grid, GetParam().shape));
  EXPECT_TRUE(grid.eng.errors().empty());
}

std::string stale_size_name(
    const ::testing::TestParamInfo<StaleSizeCase>& info) {
  static const char* const kShapes[] = {"new_file", "append",
                                        "truncate_then_write", "dirty_reread"};
  const char* mode = info.param.consistency == Consistency::kSessionExclusive
                         ? "session_exclusive_"
                         : "revalidate_";
  return mode + std::string(kShapes[static_cast<int>(info.param.shape)]);
}

INSTANTIATE_TEST_SUITE_P(
    ConsistencyTimesShape, WriteBackStaleSize,
    ::testing::Values(
        StaleSizeCase(Consistency::kSessionExclusive, Shape::kNewFile),
        StaleSizeCase(Consistency::kSessionExclusive, Shape::kAppend),
        StaleSizeCase(Consistency::kSessionExclusive,
                      Shape::kTruncateThenWrite),
        StaleSizeCase(Consistency::kRevalidate, Shape::kNewFile),
        StaleSizeCase(Consistency::kRevalidate, Shape::kAppend),
        StaleSizeCase(Consistency::kRevalidate, Shape::kTruncateThenWrite),
        StaleSizeCase(Consistency::kSessionExclusive, Shape::kDirtyReread),
        StaleSizeCase(Consistency::kRevalidate, Shape::kDirtyReread)),
    stale_size_name);

// A SETATTR that cuts a file inside a dirty block cuts the block too: its
// write-back must not grow the file back past the new size.
TEST(Sgfs, WriteBackTruncateIntoDirtyBlockKeepsNewSize) {
  Grid grid(pki().alice);
  grid.eng.run_task([](Grid& grid) -> Task<void> {
    auto mp = co_await grid.mount_session();
    Rng rng(47);
    const Buffer payload = rng.bytes(20000);
    int fd = co_await mp->open("cut.dat", nfs::kWrOnly | nfs::kCreate);
    co_await mp->write(fd, payload);
    co_await mp->close(fd);
    EXPECT_GT(grid.client_proxy->dirty_bytes(), 0u);  // not written back

    co_await mp->truncate("cut.dat", 7000);
    co_await grid.client_proxy->flush();
    auto stored = grid.fs->read_file(vfs::Cred(0, 0), "/GFS/alice/cut.dat");
    EXPECT_EQ(stored.value, Buffer(payload.begin(), payload.begin() + 7000));
    EXPECT_EQ((co_await mp->stat("cut.dat")).size, 7000u);
  }(grid));
  EXPECT_TRUE(grid.eng.errors().empty());
}

TEST(Sgfs, ProxyCacheServesAfterKernelCacheDrop) {
  Grid grid(pki().alice);
  grid.fs->write_file(vfs::Cred(0, 0), "/GFS/alice/data.bin",
                      Buffer(128 * 1024, 0x11), 0644);
  grid.eng.run_task([](Grid& grid) -> Task<void> {
    auto mp = co_await grid.mount_session();
    Buffer buf(128 * 1024);
    int fd = co_await mp->open("data.bin", nfs::kRdOnly);
    co_await mp->read(fd, buf);
    co_await mp->close(fd);

    const uint64_t forwarded_before = grid.client_proxy->forwarded();
    mp->drop_caches();  // simulate kernel cache eviction / fresh process
    fd = co_await mp->open("data.bin", nfs::kRdOnly);
    co_await mp->read(fd, buf);
    co_await mp->close(fd);
    // The re-read was served from the proxy's disk cache.
    EXPECT_GT(grid.client_proxy->absorbed_reads(), 0u);
    EXPECT_EQ(grid.client_proxy->forwarded(), forwarded_before);
  }(grid));
}

TEST(Sgfs, WriteThroughDropsTheStaleCachedBlock) {
  CacheConfig wt;
  wt.write_back = false;
  Grid grid(pki().alice, wt);
  grid.fs->write_file(vfs::Cred(0, 0), "/GFS/alice/wt.bin",
                      Buffer(4096, 'A'), 0666);
  grid.eng.run_task([](Grid& grid) -> Task<void> {
    auto mp = co_await grid.mount_session();
    Buffer buf(4096);
    int fd = co_await mp->open("wt.bin", nfs::kRdOnly);
    co_await mp->read(fd, buf);  // fills the proxy's disk cache with 'A'
    co_await mp->close(fd);
    fd = co_await mp->open("wt.bin", nfs::kWrOnly);
    co_await mp->write(fd, Buffer(4096, 'B'));
    co_await mp->close(fd);

    mp->drop_caches();
    fd = co_await mp->open("wt.bin", nfs::kRdOnly);
    co_await mp->read(fd, buf);
    co_await mp->close(fd);
    EXPECT_EQ(buf, Buffer(4096, 'B'));
    EXPECT_EQ(grid.client_proxy->absorbed_reads(), 0u);
  }(grid));
  EXPECT_EQ(grid.fs->read_file(vfs::Cred(0, 0), "/GFS/alice/wt.bin").value,
            Buffer(4096, 'B'));
  EXPECT_TRUE(grid.eng.errors().empty());
}

TEST(Sgfs, WriteThroughOverADirtyBlockReachesItsWriteBack) {
  // A write-back session absorbs 'A'; reload() turns write-back off with
  // that block still dirty; 'B' then goes straight to the server.  The
  // end-of-session write-back of the dirty block must carry 'B', not undo
  // it.
  Grid grid(pki().alice);
  grid.eng.run_task([](Grid& grid) -> Task<void> {
    auto mp = co_await grid.mount_session();
    int fd = co_await mp->open("wb.bin", nfs::kWrOnly | nfs::kCreate);
    co_await mp->write(fd, Buffer(4096, 'A'));
    co_await mp->close(fd);
    EXPECT_GT(grid.client_proxy->absorbed_writes(), 0u);

    ClientProxyConfig next = grid.client_proxy->config();
    next.cache.write_back = false;
    grid.client_proxy->reload(next);
    fd = co_await mp->open("wb.bin", nfs::kWrOnly);
    co_await mp->write(fd, Buffer(4096, 'B'));
    co_await mp->close(fd);
    co_await grid.client_proxy->flush();

    mp->drop_caches();
    Buffer buf(4096);
    fd = co_await mp->open("wb.bin", nfs::kRdOnly);
    co_await mp->read(fd, buf);
    co_await mp->close(fd);
    EXPECT_EQ(buf, Buffer(4096, 'B'));
  }(grid));
  EXPECT_EQ(grid.fs->read_file(vfs::Cred(0, 0), "/GFS/alice/wb.bin").value,
            Buffer(4096, 'B'));
  EXPECT_TRUE(grid.eng.errors().empty());
}

TEST(Sgfs, CacheDisabledForwardsEverything) {
  CacheConfig cache;
  cache.enabled = false;
  Grid grid(pki().alice, cache);
  grid.fs->write_file(vfs::Cred(0, 0), "/GFS/alice/plain.bin",
                      Buffer(64 * 1024, 0x22), 0644);
  grid.eng.run_task([](Grid& grid) -> Task<void> {
    auto mp = co_await grid.mount_session();
    Buffer buf(64 * 1024);
    int fd = co_await mp->open("plain.bin", nfs::kRdOnly);
    co_await mp->read(fd, buf);
    co_await mp->close(fd);
    EXPECT_EQ(grid.client_proxy->absorbed_reads(), 0u);
    EXPECT_GT(grid.client_proxy->forwarded(), 0u);
  }(grid));
}

// Kernel-server program wrapper that records how many proxied calls the
// kernel NFS server is executing at once.
struct InFlightCounter : rpc::RpcProgram {
  explicit InFlightCounter(std::shared_ptr<rpc::RpcProgram> inner)
      : inner(std::move(inner)) {}

  Task<BufChain> handle(const rpc::CallContext& ctx, BufChain args) override {
    ++calls;
    max_in_flight = std::max(max_in_flight, ++in_flight);
    BufChain reply = co_await inner->handle(ctx, std::move(args));
    --in_flight;
    co_return reply;
  }
  bool cache_reply(const rpc::CallContext& ctx) const override {
    return inner->cache_reply(ctx);
  }

  std::shared_ptr<rpc::RpcProgram> inner;
  uint64_t calls = 0;
  int in_flight = 0;
  int max_in_flight = 0;
};

TEST(Sgfs, ForwardingIsSerialized) {
  // Two kernel clients, each with read-ahead in flight, share one
  // ClientProxy -> ServerProxy pair: the blocking forwarders hand the
  // kernel server one call at a time (paper §6.2.1).
  CacheConfig cache;
  cache.enabled = false;  // every READ crosses both proxies
  Grid grid(pki().alice, cache);
  auto counter = std::make_shared<InFlightCounter>(grid.kernel_nfs);
  grid.kernel_rpc->register_program(nfs::kNfsProgram, nfs::kNfsVersion3,
                                    counter);
  for (const char* path : {"/GFS/alice/a.bin", "/GFS/alice/b.bin"}) {
    grid.fs->write_file(vfs::Cred(0, 0), path, Buffer(256 * 1024, 0x5a),
                        0644);
  }
  int finished = 0;
  auto client = [](Grid& grid, std::string name, int& finished)
      -> Task<void> {
    auto mp = co_await grid.mount_session();
    Buffer buf(256 * 1024);
    int fd = co_await mp->open(name, nfs::kRdOnly);
    co_await mp->read(fd, buf);
    co_await mp->close(fd);
    EXPECT_EQ(buf, Buffer(256 * 1024, 0x5a));
    ++finished;
  };
  grid.eng.spawn(client(grid, "a.bin", finished));
  grid.eng.spawn(client(grid, "b.bin", finished));
  grid.eng.run();
  EXPECT_TRUE(grid.eng.errors().empty())
      << (grid.eng.errors().empty() ? "" : grid.eng.errors()[0]);
  EXPECT_EQ(finished, 2);
  EXPECT_GE(counter->calls, 16u);  // 2 x 8 READs at least
  EXPECT_EQ(counter->max_in_flight, 1);
  EXPECT_EQ(counter->in_flight, 0);
}

TEST(Sgfs, PeriodicRenegotiationRefreshesKeys) {
  Grid grid(pki().alice, CacheConfig(), UnmappedPolicy::kDeny,
            /*renegotiate=*/30 * sim::kSecond);
  grid.eng.run_task([](Grid& grid) -> Task<void> {
    auto mp = co_await grid.mount_session();
    (void)co_await mp->stat("");
    EXPECT_EQ(grid.client_proxy->key_generation(), 1u);
    co_await grid.eng.sleep(95_s);  // three renegotiation periods
    EXPECT_GE(grid.client_proxy->key_generation(), 3u);
    // The session still works after renegotiations.
    int fd = co_await mp->open("after.txt", nfs::kWrOnly | nfs::kCreate);
    co_await mp->write(fd, to_bytes("still alive"));
    co_await mp->close(fd);
  }(grid));
  EXPECT_TRUE(grid.eng.errors().empty());
}

TEST(Sgfs, ReloadSwitchesCipherSuite) {
  Grid grid(pki().alice);
  grid.eng.run_task([](Grid& grid) -> Task<void> {
    auto mp = co_await grid.mount_session();
    (void)co_await mp->stat("");

    // Reconfigure the session to RC4 (paper §4.2 dynamic reconfiguration).
    ClientProxyConfig next;
    next.security.credential = pki().alice;
    next.security.trusted = {pki().ca.root()};
    next.security.cipher = crypto::Cipher::kRc4_128;
    next.server_proxy = net::Address("fileserver", 3049);
    grid.client_proxy->reload(next);

    // Server proxy must accept the new suite as well.
    ServerProxyConfig scfg;
    scfg.security.credential = pki().fileserver;
    scfg.security.trusted = {pki().ca.root()};
    scfg.security.cipher = crypto::Cipher::kRc4_128;
    scfg.gridmap.add("/O=UFL/CN=alice", "alice");
    scfg.accounts.add(Account("alice", Grid::kAliceUid, Grid::kAliceUid));
    scfg.kernel_nfs = net::Address("fileserver", 2049);
    grid.server_proxy->stop();
    grid.server_proxy = std::make_shared<ServerProxy>(
        *grid.fileserver, scfg, grid.fs, Rng(704));
    grid.server_proxy->start(3050);
    next.server_proxy = net::Address("fileserver", 3050);
    grid.client_proxy->reload(next);

    // New requests re-handshake under RC4 and succeed.
    int fd = co_await mp->open("rc4.txt", nfs::kWrOnly | nfs::kCreate);
    co_await mp->write(fd, to_bytes("reconfigured"));
    co_await mp->close(fd);
    co_await grid.client_proxy->flush();
    auto content =
        grid.fs->read_file(vfs::Cred(0, 0), "/GFS/alice/rc4.txt");
    EXPECT_EQ(sgfs::to_string(content.value), "reconfigured");
  }(grid));
}

// --- metrics-asserted behaviour -------------------------------------------------
//
// The same invariants the counters above pin down, restated against the
// engine-wide metrics registry the benches report from.

TEST(SgfsMetrics, SessionAbsorptionAndAclCountersRecorded) {
  Grid grid(pki().alice);
  vfs::Cred root(0, 0);
  grid.fs->write_file(root, "/GFS/alice/data.bin", Buffer(128 * 1024, 0x11),
                      0644);
  // Govern the file with a fine-grained ACL so reads exercise the server
  // proxy's ACL check path (ungoverned files skip it).
  Acl acl;
  acl.entries["/O=UFL/CN=alice"] = vfs::kAccessRead | vfs::kAccessLookup;
  auto dir = grid.fs->resolve(root, "/GFS/alice");
  grid.server_proxy->acl_store()->put_acl(dir.value, "data.bin", acl);
  grid.eng.run_task([](Grid& grid) -> Task<void> {
    auto mp = co_await grid.mount_session();
    Buffer buf(128 * 1024);
    int fd = co_await mp->open("data.bin", nfs::kRdOnly);
    co_await mp->read(fd, buf);
    co_await mp->close(fd);

    auto& reg = grid.eng.metrics();
    // One secure session was established for this mount.
    EXPECT_EQ(reg.counter_value("sgfs.client_proxy.sessions"), 1u);
    const uint64_t forwarded =
        reg.counter_value("sgfs.client_proxy.forwarded");
    EXPECT_GT(forwarded, 0u);
    // Every forwarded request crossed the server proxy's ACL check.
    EXPECT_GT(reg.counter_value("sgfs.server_proxy.acl_checks"), 0u);
    EXPECT_GT(reg.counter_value("sgfs.server_proxy.forwarded"), 0u);
    EXPECT_EQ(reg.counter_value("sgfs.server_proxy.denied"), 0u);

    // Re-read after a kernel cache drop: served from the proxy disk cache —
    // absorbed counters grow, forwarded does not.
    mp->drop_caches();
    fd = co_await mp->open("data.bin", nfs::kRdOnly);
    co_await mp->read(fd, buf);
    co_await mp->close(fd);
    EXPECT_GT(reg.counter_value("sgfs.client_proxy.absorbed.reads"), 0u);
    EXPECT_EQ(reg.counter_value("sgfs.client_proxy.forwarded"), forwarded);
  }(grid));
  EXPECT_TRUE(grid.eng.errors().empty());
}

TEST(SgfsMetrics, SecureChannelTrafficRecorded) {
  Grid grid(pki().alice);
  grid.eng.run_task([](Grid& grid) -> Task<void> {
    auto mp = co_await grid.mount_session();
    int fd = co_await mp->open("crypto.bin", nfs::kWrOnly | nfs::kCreate);
    co_await mp->write(fd, Buffer(64 * 1024, 0x3C));
    co_await mp->close(fd);
    co_await grid.client_proxy->flush();
  }(grid));

  auto& reg = grid.eng.metrics();
  // Both endpoints of every SSL session count their handshake, so the
  // engine-wide total is even and at least one full session's worth.
  EXPECT_GE(reg.counter_value("crypto.handshakes"), 2u);
  EXPECT_EQ(reg.counter_value("crypto.handshakes") % 2, 0u);
  EXPECT_GT(reg.counter_value("crypto.records_sent"), 0u);
  EXPECT_EQ(reg.counter_value("crypto.records_sent"),
            reg.counter_value("crypto.records_recv"));
  // The ciphertext stream carries at least the 64 KiB of flushed payload.
  EXPECT_GT(reg.counter_value("crypto.bytes_sent"), 64u * 1024);
  EXPECT_EQ(reg.counter_value("crypto.mac_failures"), 0u);
  // Per-record cost histogram saw every record, on both sides.
  const obs::Histogram* h = reg.find_histogram("crypto.record_cost_ns");
  ASSERT_NE(h, nullptr);
  EXPECT_GE(h->count(), reg.counter_value("crypto.records_sent"));
  EXPECT_GT(h->max(), 0);
  // The client proxy's flush accounted the session payload it pushed.
  EXPECT_GE(reg.counter_value("sgfs.client_proxy.flushed_bytes"),
            64u * 1024);
  EXPECT_TRUE(grid.eng.errors().empty());
}

// The zero-copy acceptance test: with the client proxy's cache disabled,
// READ and WRITE payloads cross BOTH proxies as shared segment chains.  The
// only counted copies on the whole path are the kernel client's own page
// cache fill / write-back snapshot (one payload each, fundamental), so the
// deliberate-copy delta must stay within one payload plus header noise —
// if either proxy duplicated the payload even once, the budget blows.
TEST(SgfsMetrics, ProxyForwardingAddsNoPayloadCopies) {
  CacheConfig cache;
  cache.enabled = false;
  Grid grid(pki().alice, cache);
  constexpr size_t kPayload = 256 * 1024;
  constexpr uint64_t kHeaderSlack = 32 * 1024;
  grid.fs->write_file(vfs::Cred(0, 0), "/GFS/alice/big.bin",
                      Buffer(kPayload, 0x5a), 0644);
  grid.eng.run_task([](Grid& grid) -> Task<void> {
    auto mp = co_await grid.mount_session();

    int fd = co_await mp->open("big.bin", nfs::kRdOnly);
    const BufStats before_read = buf_stats();
    Buffer buf(kPayload);
    co_await mp->read(fd, buf);
    const uint64_t read_copied =
        buf_stats().bytes_copied - before_read.bytes_copied;
    const uint64_t read_zerocopy =
        buf_stats().bytes_zerocopy - before_read.bytes_zerocopy;
    co_await mp->close(fd);
    EXPECT_EQ(buf, Buffer(kPayload, 0x5a));
    EXPECT_LE(read_copied, kPayload + kHeaderSlack);
    // The payload is handed off copy-free at several hops (encoder graft,
    // reply chain, proxy pass-through, decode slice), so the zero-copy
    // tally must dwarf the payload itself.
    EXPECT_GE(read_zerocopy, 2 * uint64_t{kPayload});

    int wfd = co_await mp->open("out.bin", nfs::kWrOnly | nfs::kCreate);
    const BufStats before_write = buf_stats();
    co_await mp->write(wfd, Buffer(kPayload, 0x33));
    co_await mp->close(wfd);
    co_await grid.client_proxy->flush();
    const uint64_t write_copied =
        buf_stats().bytes_copied - before_write.bytes_copied;
    const uint64_t write_zerocopy =
        buf_stats().bytes_zerocopy - before_write.bytes_zerocopy;
    EXPECT_LE(write_copied, kPayload + kHeaderSlack);
    EXPECT_GE(write_zerocopy, 2 * uint64_t{kPayload});
  }(grid));
  EXPECT_TRUE(grid.eng.errors().empty());
}

// --- unit-level ACL/gridmap tests -----------------------------------------------

TEST(GridMapTest, ParseAndLookup) {
  GridMap map = GridMap::parse(
      "# comment\n"
      "\"/O=UFL/CN=Ming Zhao\" ming\n"
      "\"/O=NCSA/CN=renato\" rfigueiredo\n");
  EXPECT_EQ(map.lookup("/O=UFL/CN=Ming Zhao"), "ming");
  EXPECT_EQ(map.lookup("/O=NCSA/CN=renato"), "rfigueiredo");
  EXPECT_EQ(map.lookup("/O=X/CN=y"), std::nullopt);
  EXPECT_EQ(map.size(), 2u);
}

TEST(GridMapTest, RoundTrip) {
  GridMap map;
  map.add("/O=UFL/CN=alice", "alice");
  GridMap back = GridMap::parse(map.to_string());
  EXPECT_EQ(back.lookup("/O=UFL/CN=alice"), "alice");
}

TEST(AclTest, ParseMasks) {
  Acl acl = Acl::parse(
      "/O=UFL/CN=alice 0x3f\n"
      "/O=UFL/CN=bob 0x03\n");
  EXPECT_EQ(acl.mask_for("/O=UFL/CN=alice"), 0x3fu);
  EXPECT_EQ(acl.mask_for("/O=UFL/CN=bob"), 0x03u);
  EXPECT_EQ(acl.mask_for("/O=UFL/CN=carol"), std::nullopt);
}

TEST(AclTest, RoundTrip) {
  Acl acl;
  acl.entries["/O=UFL/CN=alice"] = 0x1f;
  Acl back = Acl::parse(acl.to_string());
  EXPECT_EQ(back.mask_for("/O=UFL/CN=alice"), 0x1fu);
}

TEST(AclTest, AclNameHelpers) {
  EXPECT_EQ(acl_name_for("data.txt"), ".data.txt.acl");
  EXPECT_TRUE(is_acl_name(".data.txt.acl"));
  EXPECT_FALSE(is_acl_name("data.txt"));
  EXPECT_FALSE(is_acl_name(".acl"));
}

TEST(SessionConfigTest, RoundTripThroughText) {
  CacheConfig cache;
  cache.write_back = false;
  cache.capacity_bytes = 512ull << 20;
  cache.consistency = Consistency::kRevalidate;
  crypto::SecurityConfig security;
  security.cipher = crypto::Cipher::kRc4_128;
  security.renegotiate_interval = 3600 * sim::kSecond;

  std::string text = to_config_text(cache, security);
  CacheConfig cache2;
  crypto::SecurityConfig security2;
  apply_config_text(Config::parse(text), cache2, security2);
  EXPECT_EQ(security2.cipher, crypto::Cipher::kRc4_128);
  EXPECT_EQ(security2.renegotiate_interval, 3600 * sim::kSecond);
  EXPECT_FALSE(cache2.write_back);
  EXPECT_EQ(cache2.capacity_bytes, 512ull << 20);
  EXPECT_EQ(cache2.consistency, Consistency::kRevalidate);
}

}  // namespace
}  // namespace sgfs::core

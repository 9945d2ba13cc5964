#include <gtest/gtest.h>

#include "net/fault.hpp"
#include "nfs/nfs3_client.hpp"
#include "nfs/nfs3_server.hpp"
#include "nfs/nfs4.hpp"

namespace sgfs::nfs {
namespace {

using namespace sgfs::sim::literals;
using sim::Engine;
using sim::Task;

// Test rig: one client host, one server host, exported /GFS tree.
struct Rig {
  Engine eng;
  net::Network net{eng};
  net::Host* client_host;
  net::Host* server_host;
  std::shared_ptr<vfs::FileSystem> fs;
  std::shared_ptr<Nfs3Server> nfs_server;
  std::unique_ptr<rpc::RpcServer> rpc_server;

  explicit Rig(ServerCostModel cost = ServerCostModel()) {
    client_host = &net.add_host("client");
    server_host = &net.add_host("server");
    fs = std::make_shared<vfs::FileSystem>();
    vfs::Cred root(0, 0);
    fs->mkdir_p(root, "/GFS/data", 0777);  // world-writable scratch tree
    fs->write_file(root, "/GFS/data/hello.txt", to_bytes("hello grid"));
    nfs_server = std::make_shared<Nfs3Server>(*server_host, fs, 1, cost);
    nfs_server->add_export(ExportEntry("/GFS"));
    rpc_server = std::make_unique<rpc::RpcServer>(*server_host, 2049);
    rpc_server->register_program(kNfsProgram, kNfsVersion3, nfs_server);
    rpc_server->register_program(kMountProgram, kMountVersion3,
                                 nfs_server->mount_program());
    rpc_server->register_program(kNfsProgram, kNfsVersion4,
                                 std::make_shared<Nfs4Server>(nfs_server));
    rpc_server->start();
  }

  sim::Task<std::shared_ptr<MountPoint>> do_mount(
      bool v4, Nfs3ClientConfig config = Nfs3ClientConfig()) {
    net::Address addr("server", 2049);
    rpc::AuthSys auth(1000, 1000, "client");
    if (v4) {
      auto ops = co_await V4WireOps::connect(*client_host, addr, auth);
      co_return co_await MountPoint::mount_with(*client_host, std::move(ops),
                                                "/GFS", config);
    }
    co_return co_await MountPoint::mount(*client_host, addr, "/GFS", auth,
                                         config);
  }
};

// Most behaviours must be identical across the v3 and v4-lite backends.
class NfsEndToEnd : public ::testing::TestWithParam<bool> {};

TEST_P(NfsEndToEnd, MountAndStat) {
  Rig rig;
  rig.eng.run_task([](Rig& rig, bool v4) -> Task<void> {
    auto mp = co_await rig.do_mount(v4);
    auto attrs = co_await mp->stat("data/hello.txt");
    EXPECT_EQ(attrs.size, 10u);
    EXPECT_EQ(attrs.type, vfs::FileType::kRegular);
  }(rig, GetParam()));
}

TEST_P(NfsEndToEnd, ReadFile) {
  Rig rig;
  rig.eng.run_task([](Rig& rig, bool v4) -> Task<void> {
    auto mp = co_await rig.do_mount(v4);
    int fd = co_await mp->open("data/hello.txt", kRdOnly);
    Buffer buf(64);
    size_t n = co_await mp->read(fd, buf);
    EXPECT_EQ(n, 10u);
    EXPECT_EQ(sgfs::to_string(ByteView(buf.data(), n)), "hello grid");
    co_await mp->close(fd);
  }(rig, GetParam()));
}

TEST_P(NfsEndToEnd, WriteReadBack) {
  Rig rig;
  rig.eng.run_task([](Rig& rig, bool v4) -> Task<void> {
    auto mp = co_await rig.do_mount(v4);
    int fd = co_await mp->open("data/new.txt", kWrOnly | kCreate, 0644);
    Buffer payload = to_bytes("written through NFS");
    EXPECT_EQ(co_await mp->write(fd, payload), payload.size());
    co_await mp->close(fd);

    // Verify on the server's VFS directly (data must have been committed).
    auto content = rig.fs->read_file(vfs::Cred(0, 0), "/GFS/data/new.txt");
    EXPECT_TRUE(content.ok());
    EXPECT_EQ(content.value, payload);
  }(rig, GetParam()));
}

TEST_P(NfsEndToEnd, LargeSequentialWriteAndRead) {
  Rig rig;
  rig.eng.run_task([](Rig& rig, bool v4) -> Task<void> {
    auto mp = co_await rig.do_mount(v4);
    Rng rng(77);
    Buffer payload = rng.bytes(1 << 20);  // 1 MiB: spans many 32K blocks
    int fd = co_await mp->open("data/big.bin", kWrOnly | kCreate);
    co_await mp->write(fd, payload);
    co_await mp->close(fd);

    mp->drop_caches();
    fd = co_await mp->open("data/big.bin", kRdOnly);
    Buffer back(payload.size());
    size_t n = co_await mp->read(fd, back);
    EXPECT_EQ(n, payload.size());
    EXPECT_EQ(back, payload);
    co_await mp->close(fd);
  }(rig, GetParam()));
}

TEST_P(NfsEndToEnd, MkdirReaddirRemove) {
  Rig rig;
  rig.eng.run_task([](Rig& rig, bool v4) -> Task<void> {
    auto mp = co_await rig.do_mount(v4);
    co_await mp->mkdir("data/sub");
    int fd = co_await mp->open("data/sub/a.txt", kWrOnly | kCreate);
    co_await mp->close(fd);
    fd = co_await mp->open("data/sub/b.txt", kWrOnly | kCreate);
    co_await mp->close(fd);

    auto entries = co_await mp->readdir("data/sub");
    EXPECT_EQ(entries.size(), 2u);
    if (entries.size() == 2) {
      EXPECT_EQ(entries[0].name, "a.txt");
      EXPECT_EQ(entries[1].name, "b.txt");
    }

    co_await mp->unlink("data/sub/a.txt");
    co_await mp->unlink("data/sub/b.txt");
    co_await mp->rmdir("data/sub");
    bool gone = false;
    try {
      (void)co_await mp->stat("data/sub");
    } catch (const FsError& e) {
      gone = e.status() == Status::kNoEnt;
    }
    EXPECT_TRUE(gone);
  }(rig, GetParam()));
}

TEST_P(NfsEndToEnd, RenameAcrossDirectories) {
  Rig rig;
  rig.eng.run_task([](Rig& rig, bool v4) -> Task<void> {
    auto mp = co_await rig.do_mount(v4);
    co_await mp->mkdir("data/dst");
    co_await mp->rename("data/hello.txt", "data/dst/renamed.txt");
    auto attrs = co_await mp->stat("data/dst/renamed.txt");
    EXPECT_EQ(attrs.size, 10u);
  }(rig, GetParam()));
}

TEST_P(NfsEndToEnd, SymlinkReadlink) {
  Rig rig;
  rig.eng.run_task([](Rig& rig, bool v4) -> Task<void> {
    auto mp = co_await rig.do_mount(v4);
    co_await mp->symlink("/GFS/data/hello.txt", "data/ln");
    EXPECT_EQ(co_await mp->readlink("data/ln"), "/GFS/data/hello.txt");
  }(rig, GetParam()));
}

TEST_P(NfsEndToEnd, AccessBitsPropagate) {
  Rig rig;
  rig.eng.run_task([](Rig& rig, bool v4) -> Task<void> {
    auto mp = co_await rig.do_mount(v4);
    // hello.txt was created by root with 0644; caller is uid 1000.
    uint32_t bits = co_await mp->access(
        "data/hello.txt", vfs::kAccessRead | vfs::kAccessModify);
    EXPECT_EQ(bits, vfs::kAccessRead);
  }(rig, GetParam()));
}

TEST_P(NfsEndToEnd, TruncateAndAppend) {
  Rig rig;
  rig.eng.run_task([](Rig& rig, bool v4) -> Task<void> {
    auto mp = co_await rig.do_mount(v4);
    // Work on a file the client owns.
    int fd = co_await mp->open("data/mine.txt", kWrOnly | kCreate);
    co_await mp->write(fd, to_bytes("hello grid"));
    co_await mp->close(fd);
    co_await mp->truncate("data/mine.txt", 5);
    EXPECT_EQ((co_await mp->stat("data/mine.txt")).size, 5u);
    fd = co_await mp->open("data/mine.txt", kWrOnly | kAppend);
    co_await mp->write(fd, to_bytes("!!"));
    co_await mp->close(fd);
    EXPECT_EQ((co_await mp->stat("data/mine.txt")).size, 7u);
    auto content = rig.fs->read_file(vfs::Cred(0, 0), "/GFS/data/mine.txt");
    EXPECT_EQ(sgfs::to_string(content.value), "hello!!");
  }(rig, GetParam()));
}

TEST_P(NfsEndToEnd, TruncateKeepsDirtyBytesBelowTheNewSize) {
  Rig rig;
  rig.eng.run_task([](Rig& rig, bool v4) -> Task<void> {
    auto mp = co_await rig.do_mount(v4);
    int fd = co_await mp->open("data/cut.txt", kWrOnly | kCreate);
    co_await mp->write(fd, to_bytes("hello grid"));  // dirty, not flushed
    co_await mp->truncate("data/cut.txt", 5);
    co_await mp->close(fd);
    auto content = rig.fs->read_file(vfs::Cred(0, 0), "/GFS/data/cut.txt");
    EXPECT_EQ(sgfs::to_string(content.value), "hello");
  }(rig, GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Versions, NfsEndToEnd, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "v4" : "v3";
                         });

// --- v3-specific behaviours ----------------------------------------------------

TEST(NfsClient, PageCacheAvoidsRereadRpcs) {
  Rig rig;
  rig.eng.run_task([](Rig& rig) -> Task<void> {
    auto mp = co_await rig.do_mount(false);
    int fd = co_await mp->open("data/hello.txt", kRdOnly);
    Buffer buf(16);
    co_await mp->read(fd, buf);
    const uint64_t reads_before = mp->rpc_calls_for(Proc3::kRead);
    co_await mp->close(fd);
    // Re-open within the attribute TTL: data still cached, no new READ.
    fd = co_await mp->open("data/hello.txt", kRdOnly);
    co_await mp->pread(fd, 0, buf);
    co_await mp->close(fd);
    EXPECT_EQ(mp->rpc_calls_for(Proc3::kRead), reads_before);
    EXPECT_GT(mp->cache_hits(), 0u);
  }(rig));
}

TEST(NfsClient, WriteBehindBatchesToCloseCommit) {
  Rig rig;
  rig.eng.run_task([](Rig& rig) -> Task<void> {
    auto mp = co_await rig.do_mount(false);
    int fd = co_await mp->open("data/wb.bin", kWrOnly | kCreate);
    Buffer chunk(4096, 0xAB);
    for (int i = 0; i < 8; ++i) co_await mp->write(fd, chunk);  // one block
    // Nothing hits the wire until close.
    EXPECT_EQ(mp->rpc_calls_for(Proc3::kWrite), 0u);
    co_await mp->close(fd);
    EXPECT_EQ(mp->rpc_calls_for(Proc3::kWrite), 1u);
    EXPECT_EQ(mp->rpc_calls_for(Proc3::kCommit), 1u);
  }(rig));
}

TEST(NfsClient, WriteThroughModeWritesSynchronously) {
  Rig rig;
  rig.eng.run_task([](Rig& rig) -> Task<void> {
    Nfs3ClientConfig cfg;
    cfg.write_behind = false;
    auto mp = co_await rig.do_mount(false, cfg);
    int fd = co_await mp->open("data/wt.bin", kWrOnly | kCreate);
    co_await mp->write(fd, Buffer(1000, 1));
    EXPECT_EQ(mp->rpc_calls_for(Proc3::kWrite), 1u);
    co_await mp->close(fd);
    EXPECT_EQ(mp->rpc_calls_for(Proc3::kCommit), 0u);  // FILE_SYNC: no commit
  }(rig));
}

TEST(NfsClient, AttrCacheServesStatWithinTtl) {
  Rig rig;
  rig.eng.run_task([](Rig& rig) -> Task<void> {
    auto mp = co_await rig.do_mount(false);
    (void)co_await mp->stat("data/hello.txt");
    const uint64_t getattrs = mp->rpc_calls_for(Proc3::kGetattr);
    const uint64_t lookups = mp->rpc_calls_for(Proc3::kLookup);
    for (int i = 0; i < 10; ++i) (void)co_await mp->stat("data/hello.txt");
    // All ten stats served from dnlc + attribute cache.
    EXPECT_EQ(mp->rpc_calls_for(Proc3::kGetattr), getattrs);
    EXPECT_EQ(mp->rpc_calls_for(Proc3::kLookup), lookups);
  }(rig));
}

TEST(NfsClient, AttrCacheExpiresAfterTtl) {
  Rig rig;
  rig.eng.run_task([](Rig& rig) -> Task<void> {
    auto mp = co_await rig.do_mount(false);
    (void)co_await mp->stat("data/hello.txt");
    const uint64_t getattrs = mp->rpc_calls_for(Proc3::kGetattr);
    co_await rig.eng.sleep(120_s);  // past ac_max
    (void)co_await mp->stat("data/hello.txt");
    EXPECT_GT(mp->rpc_calls_for(Proc3::kGetattr), getattrs);
  }(rig));
}

TEST(NfsClient, CloseToOpenSeesRemoteChange) {
  Rig rig;
  rig.eng.run_task([](Rig& rig) -> Task<void> {
    auto mp = co_await rig.do_mount(false);
    int fd = co_await mp->open("data/hello.txt", kRdOnly);
    Buffer buf(64);
    size_t n = co_await mp->read(fd, buf);
    EXPECT_EQ(sgfs::to_string(ByteView(buf.data(), n)), "hello grid");
    co_await mp->close(fd);

    // Another client (the server itself) rewrites the file.
    co_await rig.eng.sleep(2_s);
    rig.fs->write_file(vfs::Cred(0, 0), "/GFS/data/hello.txt",
                       to_bytes("CHANGED CONTENT"));

    fd = co_await mp->open("data/hello.txt", kRdOnly);  // revalidates
    n = co_await mp->read(fd, buf);
    EXPECT_EQ(sgfs::to_string(ByteView(buf.data(), n)), "CHANGED CONTENT");
    co_await mp->close(fd);
  }(rig));
}

TEST(NfsClient, CachePressureEvictsLru) {
  Rig rig;
  rig.eng.run_task([](Rig& rig) -> Task<void> {
    Nfs3ClientConfig cfg;
    cfg.cache_bytes = 8 * cfg.block_size;  // tiny cache: 8 blocks
    cfg.readahead_blocks = 0;
    auto mp = co_await rig.do_mount(false, cfg);
    Rng rng(3);
    Buffer payload = rng.bytes(32 * cfg.block_size);
    int fd = co_await mp->open("data/large.bin", kWrOnly | kCreate);
    co_await mp->write(fd, payload);  // forces eviction write-backs
    EXPECT_LE(mp->bytes_cached(), cfg.cache_bytes);
    co_await mp->close(fd);
    EXPECT_GE(mp->rpc_calls_for(Proc3::kWrite), 24u);
    // Data integrity after all that eviction:
    mp->drop_caches();
    fd = co_await mp->open("data/large.bin", kRdOnly);
    Buffer back(payload.size());
    co_await mp->read(fd, back);
    EXPECT_EQ(back, payload);
    co_await mp->close(fd);
  }(rig));
}

TEST(NfsClient, ReadaheadPipelinesSequentialReads) {
  Rig rig;
  rig.eng.run_task([](Rig& rig) -> Task<void> {
    // Create a 64-block file first.
    vfs::Cred root(0, 0);
    Rng rng(4);
    rig.fs->write_file(root, "/GFS/data/seq.bin", rng.bytes(64 * 32768));
    rig.nfs_server->warm_file("/GFS/data/seq.bin");

    Nfs3ClientConfig with_ra;
    with_ra.readahead_blocks = 8;
    auto mp1 = co_await rig.do_mount(false, with_ra);
    sim::SimTime t0 = rig.eng.now();
    int fd = co_await mp1->open("data/seq.bin", kRdOnly);
    Buffer buf(64 * 32768);
    co_await mp1->read(fd, buf);
    co_await mp1->close(fd);
    const sim::SimDur with_time = rig.eng.now() - t0;

    Nfs3ClientConfig without_ra;
    without_ra.readahead_blocks = 0;
    auto mp2 = co_await rig.do_mount(false, without_ra);
    t0 = rig.eng.now();
    fd = co_await mp2->open("data/seq.bin", kRdOnly);
    co_await mp2->read(fd, buf);
    co_await mp2->close(fd);
    const sim::SimDur without_time = rig.eng.now() - t0;

    // Read-ahead must overlap RTTs: at least 2x faster on sequential scan.
    EXPECT_LT(with_time * 2, without_time);
  }(rig));
}

TEST(NfsServer, ExportsEnforcedByHost) {
  Engine eng;
  net::Network net(eng);
  net::Host& good = net.add_host("good");
  net.add_host("bad");
  net::Host& bad = net.host("bad");
  net::Host& server = net.add_host("server");
  auto fs = std::make_shared<vfs::FileSystem>();
  fs->mkdir_p(vfs::Cred(0, 0), "/GFS");
  auto nfs = std::make_shared<Nfs3Server>(server, fs);
  nfs->add_export(ExportEntry("/GFS", {"good"}));
  rpc::RpcServer srv(server, 2049);
  srv.register_program(kNfsProgram, kNfsVersion3, nfs);
  srv.register_program(kMountProgram, kMountVersion3, nfs->mount_program());
  srv.start();

  eng.run_task([](net::Host& good, net::Host& bad) -> Task<void> {
    net::Address addr("server", 2049);
    rpc::AuthSys auth(1000, 1000);
    auto mp = co_await MountPoint::mount(good, addr, "/GFS", auth);
    EXPECT_TRUE(mp != nullptr);
    bool refused = false;
    try {
      auto mp2 = co_await MountPoint::mount(bad, addr, "/GFS", auth);
    } catch (const FsError& e) {
      refused = e.status() == Status::kAcces;
    }
    EXPECT_TRUE(refused);
  }(good, bad));
}

TEST(NfsServer, UnknownExportRefused) {
  Rig rig;
  rig.eng.run_task([](Rig& rig) -> Task<void> {
    net::Address addr("server", 2049);
    rpc::AuthSys auth(1000, 1000);
    bool refused = false;
    try {
      auto mp = co_await MountPoint::mount(*rig.client_host, addr,
                                           "/not-exported", auth);
    } catch (const FsError&) {
      refused = true;
    }
    EXPECT_TRUE(refused);
  }(rig));
}

TEST(NfsServer, PermissionDeniedPropagates) {
  Rig rig;
  // Root-owned 0600 file.
  rig.fs->write_file(vfs::Cred(0, 0), "/GFS/data/secret.txt",
                     to_bytes("root only"), 0600);
  rig.eng.run_task([](Rig& rig) -> Task<void> {
    auto mp = co_await rig.do_mount(false);
    bool denied = false;
    try {
      int fd = co_await mp->open("data/secret.txt", kRdOnly);
      Buffer b(16);
      co_await mp->read(fd, b);
    } catch (const FsError& e) {
      denied = e.status() == Status::kAcces;
    }
    EXPECT_TRUE(denied);
  }(rig));
}

TEST(NfsServer, DiskChargedOnColdReadsOnly) {
  Rig rig;
  rig.fs->write_file(vfs::Cred(0, 0), "/GFS/data/cold.bin",
                     Buffer(256 * 1024, 7));
  rig.eng.run_task([](Rig& rig) -> Task<void> {
    auto mp = co_await rig.do_mount(false);
    int fd = co_await mp->open("data/cold.bin", kRdOnly);
    Buffer buf(256 * 1024);
    co_await mp->read(fd, buf);
    co_await mp->close(fd);
    EXPECT_GT(rig.nfs_server->disk_reads(), 0u);
    const uint64_t cold = rig.nfs_server->disk_reads();

    // Second client re-reads: server page cache is warm now.
    auto mp2 = co_await rig.do_mount(false);
    fd = co_await mp2->open("data/cold.bin", kRdOnly);
    co_await mp2->read(fd, buf);
    co_await mp2->close(fd);
    EXPECT_EQ(rig.nfs_server->disk_reads(), cold);
  }(rig));
}

TEST(NfsServer, PageCacheEvictsLeastRecentlyUsedBlock) {
  // Room for three 32 KiB blocks.  a, b and c fill it, a is used again, and
  // d needs a slot: LRU evicts b, where FIFO would have evicted a.
  ServerCostModel cost;
  cost.memory_bytes = 3 * 32 * 1024;
  Rig rig(cost);
  for (const char* name : {"a", "b", "c", "d"}) {
    rig.fs->write_file(vfs::Cred(0, 0), std::string("/GFS/data/") + name,
                       Buffer(4096, 7));
  }
  for (const char* name : {"a", "b", "c", "a", "d"}) {
    rig.nfs_server->warm_file(std::string("/GFS/data/") + name);
  }
  rig.eng.run_task([](Rig& rig) -> Task<void> {
    auto mp = co_await rig.do_mount(false);
    Buffer buf(4096);
    int fd = co_await mp->open("data/a", kRdOnly);
    co_await mp->read(fd, buf);
    co_await mp->close(fd);
    EXPECT_EQ(rig.nfs_server->disk_reads(), 0u);  // a is still resident
    fd = co_await mp->open("data/b", kRdOnly);
    co_await mp->read(fd, buf);
    co_await mp->close(fd);
    EXPECT_EQ(rig.nfs_server->disk_reads(), 1u);  // b was the victim
  }(rig));
}

TEST(NfsServer, OpCountersTrack) {
  Rig rig;
  rig.eng.run_task([](Rig& rig) -> Task<void> {
    auto mp = co_await rig.do_mount(false);
    (void)co_await mp->stat("data/hello.txt");
    EXPECT_GT(rig.nfs_server->ops_total(), 0u);
    EXPECT_GT(rig.nfs_server->ops_for(Proc3::kLookup), 0u);
  }(rig));
}

TEST(Nfs3Drc, RetransmittedCreateReturnsOriginalReply) {
  Rig rig;
  BufChain wire1, wire2;
  rig.eng.run_task([](Rig& rig, BufChain* w1, BufChain* w2) -> Task<void> {
    net::Address addr("server", 2049);
    rpc::AuthSys auth(1000, 1000, "client");
    auto ops = co_await V3WireOps::connect(*rig.client_host, addr, auth);
    Fh root = co_await ops->mount("/GFS");
    LookupRes dir = co_await ops->lookup(root, "data");
    ops->close();

    // A raw NFSv3 CREATE, retransmitted byte-for-byte with the same xid —
    // the duplicate-request cache must return the original reply instead of
    // re-running the (non-idempotent) procedure.
    // (exclusive: a re-execution would fail with kExist)
    const CreateArgs cargs({dir.fh, "drc.txt"}, 0644, /*exclusive=*/true);
    rpc::CallMsg call;
    call.xid = 424242;
    call.prog = kNfsProgram;
    call.vers = kNfsVersion3;
    call.proc = static_cast<uint32_t>(Proc3::kCreate);
    call.cred = rpc::OpaqueAuth::sys(auth);
    call.args = xdr::encode(cargs);
    const BufChain wire = call.serialize();

    net::StreamPtr s = co_await rig.net.connect(*rig.client_host, addr);
    rpc::StreamTransport t(std::move(s));
    co_await t.send(wire);
    *w1 = co_await t.recv();
    co_await t.send(wire);
    *w2 = co_await t.recv();
    t.close();
  }(rig, &wire1, &wire2));

  // Byte-identical replies, one execution, one cache hit.
  EXPECT_EQ(wire1, wire2);
  EXPECT_EQ(rig.nfs_server->ops_for(Proc3::kCreate), 1u);
  EXPECT_EQ(rig.rpc_server->drc_hits(), 1u);
  rpc::ReplyMsg reply = rpc::ReplyMsg::deserialize(wire1);
  const auto res = xdr::decode<CreateRes>(reply.results);
  EXPECT_EQ(res.status, Status::kOk);
}

TEST(Nfs3Drc, IdempotentOpsAreNotCached) {
  Rig rig;
  rig.eng.run_task([](Rig& rig) -> Task<void> {
    net::Address addr("server", 2049);
    rpc::AuthSys auth(1000, 1000, "client");
    auto ops = co_await V3WireOps::connect(*rig.client_host, addr, auth);
    Fh root = co_await ops->mount("/GFS");
    (void)co_await ops->getattr(root);
    ops->close();
  }(rig));
  EXPECT_EQ(rig.rpc_server->drc_hits(), 0u);
  EXPECT_TRUE(proc3_is_idempotent(Proc3::kGetattr));
  EXPECT_TRUE(proc3_is_idempotent(Proc3::kRead));
  EXPECT_FALSE(proc3_is_idempotent(Proc3::kCreate));
  EXPECT_FALSE(proc3_is_idempotent(Proc3::kRemove));
  EXPECT_FALSE(proc3_is_idempotent(Proc3::kRename));
  EXPECT_FALSE(proc3_is_idempotent(Proc3::kSetattr));
}

// --- metrics-asserted protocol behaviour ---------------------------------------
//
// These re-state the cache/consistency invariants in terms of the
// engine-wide metrics registry (eng.metrics()) rather than per-object
// counters, pinning both the protocol behaviour and the metric names the
// benches report.

TEST(NfsMetrics, WarmRereadIssuesZeroReadRpcs) {
  Rig rig;
  rig.eng.run_task([](Rig& rig) -> Task<void> {
    auto mp = co_await rig.do_mount(false);
    int fd = co_await mp->open("data/hello.txt", kRdOnly);
    Buffer buf(16);
    co_await mp->read(fd, buf);
    co_await mp->close(fd);

    auto& reg = rig.eng.metrics();
    const uint64_t reads = reg.counter_value("nfs.client.rpc.READ");
    const uint64_t hits = reg.counter_value("nfs.client.page_cache.hits");
    EXPECT_GT(reads, 0u);

    // Warm re-read within the attribute TTL: zero new READ RPCs, served
    // entirely from the page cache.
    fd = co_await mp->open("data/hello.txt", kRdOnly);
    co_await mp->pread(fd, 0, buf);
    co_await mp->close(fd);
    EXPECT_EQ(reg.counter_value("nfs.client.rpc.READ"), reads);
    EXPECT_GT(reg.counter_value("nfs.client.page_cache.hits"), hits);
  }(rig));
}

TEST(NfsMetrics, CloseToOpenRevalidatesExactlyOnce) {
  Rig rig;
  rig.eng.run_task([](Rig& rig) -> Task<void> {
    auto mp = co_await rig.do_mount(false);
    int fd = co_await mp->open("data/hello.txt", kRdOnly);
    co_await mp->close(fd);

    auto& reg = rig.eng.metrics();
    const uint64_t revals = reg.counter_value("nfs.client.cto.revalidations");
    const uint64_t getattrs = reg.counter_value("nfs.client.rpc.GETATTR");

    // Re-open: close-to-open consistency forces exactly one GETATTR
    // revalidation, even though the attribute cache is still fresh.
    fd = co_await mp->open("data/hello.txt", kRdOnly);
    co_await mp->close(fd);
    EXPECT_EQ(reg.counter_value("nfs.client.cto.revalidations"), revals + 1);
    EXPECT_EQ(reg.counter_value("nfs.client.rpc.GETATTR"), getattrs + 1);
  }(rig));
}

TEST(NfsMetrics, WriteBehindGaugeRisesThenDrainsOnClose) {
  Rig rig;
  rig.eng.run_task([](Rig& rig) -> Task<void> {
    auto mp = co_await rig.do_mount(false);
    auto& reg = rig.eng.metrics();
    int fd = co_await mp->open("data/gauge.bin", kWrOnly | kCreate);
    co_await mp->write(fd, Buffer(3 * 32768, 0xCD));  // three dirty blocks
    EXPECT_GT(reg.gauge_value("nfs.client.writeback.dirty_blocks"), 0);
    co_await mp->close(fd);  // close-to-open flush drains the queue
    EXPECT_EQ(reg.gauge_value("nfs.client.writeback.dirty_blocks"), 0);
    EXPECT_GE(reg.gauge("nfs.client.writeback.dirty_blocks").max(), 3);
    EXPECT_EQ(reg.counter_value("nfs.client.cto.flushes"), 1u);
  }(rig));
}

TEST(NfsMetrics, InjectedDropRetransmitsAndDrcSuppressesReexecution) {
  Rig rig;
  constexpr int kCreates = 60;
  rig.eng.run_task([](Rig& rig) -> Task<void> {
    Nfs3ClientConfig cfg;
    cfg.retry = rpc::RetryPolicy::standard();  // 1s/x2/30s-cap retransmission
    auto mp = co_await rig.do_mount(false, cfg);
    co_await mp->mkdir("data/drc");

    // Lossy link from here on (mount stays clean so setup cannot flake).
    auto plan = std::make_shared<net::FaultPlan>(/*seed=*/99);
    plan->set_link_faults("client", "server", net::LinkFaults(0.15, 0.0));
    rig.net.set_fault_plan(plan);

    // Exclusive creates are non-idempotent: if a retransmitted CREATE were
    // re-executed instead of replayed from the DRC, it would fail kExist.
    for (int i = 0; i < kCreates; ++i) {
      int fd = co_await mp->open("data/drc/f" + std::to_string(i),
                                 kWrOnly | kCreate | kExcl);
      co_await mp->close(fd);
    }
    rig.net.set_fault_plan(nullptr);
  }(rig));

  auto& reg = rig.eng.metrics();
  // Drops happened, the client retransmitted, and at least one dropped
  // *reply* was replayed from the duplicate-request cache...
  EXPECT_GT(reg.counter_value("rpc.client.retransmits"), 0u);
  EXPECT_GT(reg.counter_value("rpc.server.drc.hits"), 0u);
  // ...yet every non-idempotent CREATE executed exactly once.
  EXPECT_EQ(rig.nfs_server->ops_for(Proc3::kCreate), kCreates + 0u);
  EXPECT_TRUE(rig.eng.errors().empty());
}

TEST(NfsV4, CompoundCountsTrack) {
  Rig rig;
  auto v4 = std::make_shared<Nfs4Server>(rig.nfs_server);
  // Re-register to grab a handle on the same instance the rig registered.
  rig.rpc_server->register_program(kNfsProgram, kNfsVersion4, v4);
  rig.eng.run_task([](Rig& rig, Nfs4Server& v4) -> Task<void> {
    auto mp = co_await rig.do_mount(true);
    (void)co_await mp->stat("data/hello.txt");
    EXPECT_GT(v4.compounds(), 0u);
    EXPECT_GT(v4.ops(), v4.compounds());
  }(rig, *v4));
}


// --- v3 and v4 on one server -------------------------------------------------
//
// Testbeds serve v3 and v4 from one Nfs3Server, so both protocols share its
// crash model: unstable bytes are reverted by a crash and committed bytes
// survive it, whichever protocol wrote or committed them.

struct BothProtocols {
  std::unique_ptr<V3WireOps> v3;
  std::unique_ptr<V4WireOps> v4;
  Fh dir;
  BothProtocols() = default;

  void close() {
    v3->close();
    v4->close();
  }
};

Task<BothProtocols> connect_both(Rig& rig) {
  net::Address addr("server", 2049);
  rpc::AuthSys auth(1000, 1000, "client");
  BothProtocols both;
  both.v3 = co_await V3WireOps::connect(*rig.client_host, addr, auth);
  both.v4 = co_await V4WireOps::connect(*rig.client_host, addr, auth);
  const Fh root = co_await both.v3->mount("/GFS");
  both.dir = (co_await both.v3->lookup(root, "data")).fh;
  co_return both;
}

Task<void> crash_server(Rig& rig) {
  rig.server_host->crash_restart(rig.eng.now() + 1_ms, 50_ms);
  co_await rig.eng.sleep(200_ms);
}

Buffer file_bytes(Rig& rig, const std::string& path) {
  auto got = rig.fs->read_file(vfs::Cred(0, 0), path);
  EXPECT_TRUE(got.ok()) << path;
  return got.value;
}

TEST(NfsV4, CommitThroughV4SurvivesCrash) {
  Rig rig;
  rig.eng.run_task([](Rig& rig) -> Task<void> {
    BothProtocols both = co_await connect_both(rig);
    const Fh fh = (co_await both.v3->create(both.dir, "mixed.bin", 0644,
                                            false)).fh;
    const WriteRes w = co_await both.v3->write(
        fh, 0, StableHow::kUnstable, BufChain(to_bytes("committed by v4")));
    EXPECT_EQ(w.committed, StableHow::kUnstable);
    EXPECT_EQ((co_await both.v4->commit(fh)).status, Status::kOk);
    EXPECT_EQ(rig.nfs_server->unstable_files(), 0u);
    both.close();
    co_await crash_server(rig);
  }(rig));
  EXPECT_EQ(file_bytes(rig, "/GFS/data/mixed.bin"),
            to_bytes("committed by v4"));
}

TEST(NfsV4, UnstableWritesAreRevertedByCrashAsInV3) {
  Rig rig;
  rig.eng.run_task([](Rig& rig) -> Task<void> {
    BothProtocols both = co_await connect_both(rig);
    WireOps* protocols[] = {both.v3.get(), both.v4.get()};
    const char* names[] = {"v3.bin", "v4.bin"};
    for (int i = 0; i < 2; ++i) {
      const Fh fh = (co_await both.v3->create(both.dir, names[i], 0644,
                                              false)).fh;
      (void)co_await both.v3->write(fh, 0, StableHow::kFileSync,
                                    BufChain(to_bytes("stable base")));
      const WriteRes w = co_await protocols[i]->write(
          fh, 0, StableHow::kUnstable, BufChain(to_bytes("UNSTABLE")));
      EXPECT_EQ(w.committed, StableHow::kUnstable) << names[i];
    }
    both.close();
    co_await crash_server(rig);
  }(rig));
  EXPECT_EQ(file_bytes(rig, "/GFS/data/v3.bin"), to_bytes("stable base"));
  EXPECT_EQ(file_bytes(rig, "/GFS/data/v4.bin"), to_bytes("stable base"));
}

TEST(NfsV4, OversizedSymlinkTargetIsGarbageArgsAsInV3) {
  Rig rig;
  rig.eng.run_task([](Rig& rig) -> Task<void> {
    BothProtocols both = co_await connect_both(rig);
    const std::string target(2048, 't');  // twice kMaxPathBytes
    WireOps* protocols[] = {both.v3.get(), both.v4.get()};
    for (WireOps* ops : protocols) {
      rpc::AcceptStat stat = rpc::AcceptStat::kSuccess;
      try {
        (void)co_await ops->symlink(both.dir, "long", target);
      } catch (const rpc::RpcError& e) {
        stat = e.stat();
      }
      EXPECT_EQ(stat, rpc::AcceptStat::kGarbageArgs);
    }
    both.close();
  }(rig));
  EXPECT_FALSE(rig.fs->resolve(vfs::Cred(0, 0), "/GFS/data/long").ok());
}

}  // namespace
}  // namespace sgfs::nfs

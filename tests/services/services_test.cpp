#include <gtest/gtest.h>

#include "nfs/nfs3_client.hpp"
#include "nfs/nfs3_server.hpp"
#include "services/services.hpp"

namespace sgfs::services {
namespace {

using sim::Engine;
using sim::Task;

struct Pki {
  Rng rng{900};
  crypto::CertificateAuthority ca{
      rng, crypto::DistinguishedName("Grid", "RootCA"), 0, 1ll << 40};
  crypto::Credential alice{ca.issue(rng,
                                    crypto::DistinguishedName("UFL", "alice"),
                                    crypto::CertType::kIdentity, 0,
                                    1ll << 40)};
  crypto::Credential mallory_cred{
      ca.issue(rng, crypto::DistinguishedName("UFL", "mallory"),
               crypto::CertType::kIdentity, 0, 1ll << 40)};
  crypto::Credential dss{ca.issue(rng,
                                  crypto::DistinguishedName("Grid", "dss"),
                                  crypto::CertType::kHost, 0, 1ll << 40)};
  crypto::Credential fss1{ca.issue(rng,
                                   crypto::DistinguishedName("Grid", "fss1"),
                                   crypto::CertType::kHost, 0, 1ll << 40)};
  crypto::Credential fss2{ca.issue(rng,
                                   crypto::DistinguishedName("Grid", "fss2"),
                                   crypto::CertType::kHost, 0, 1ll << 40)};
};

Pki& pki() {
  static Pki p;
  return p;
}

// --- envelope unit tests ------------------------------------------------------

TEST(Envelope, SignVerifyRoundTrip) {
  Envelope env = sign_envelope("CreateSession", {{"path", "/GFS/x"}},
                               pki().alice, 1000);
  Envelope back = Envelope::deserialize(env.serialize());
  auto verdict = verify_envelope(back, {pki().ca.root()}, 1000);
  ASSERT_TRUE(verdict.ok) << verdict.error;
  EXPECT_EQ(verdict.signer.to_string(), "/O=UFL/CN=alice");
  EXPECT_EQ(back.fields.at("path"), "/GFS/x");
}

TEST(Envelope, TamperedFieldRejected) {
  Envelope env = sign_envelope("CreateSession", {{"path", "/GFS/x"}},
                               pki().alice, 1000);
  env.fields["path"] = "/GFS/other";  // tamper after signing
  auto verdict = verify_envelope(env, {pki().ca.root()}, 1000);
  EXPECT_FALSE(verdict.ok);
}

TEST(Envelope, StaleTimestampRejected) {
  Envelope env = sign_envelope("X", {}, pki().alice, 1000);
  EXPECT_FALSE(verify_envelope(env, {pki().ca.root()}, 1000 + 301).ok);
  EXPECT_TRUE(verify_envelope(env, {pki().ca.root()}, 1000 + 299).ok);
}

TEST(Envelope, UntrustedSignerRejected) {
  Rng rng(901);
  crypto::CertificateAuthority rogue(
      rng, crypto::DistinguishedName("Evil", "CA"), 0, 1ll << 40);
  auto evil = rogue.issue(rng, crypto::DistinguishedName("Evil", "m"),
                          crypto::CertType::kIdentity, 0, 1ll << 40);
  Envelope env = sign_envelope("X", {}, evil, 1000);
  EXPECT_FALSE(verify_envelope(env, {pki().ca.root()}, 1000).ok);
}

TEST(Envelope, XmlRenderingContainsBodyAndSecurity) {
  Envelope env = sign_envelope("CreateSession", {{"path", "/GFS/x"}},
                               pki().alice, 42);
  std::string xml = env.to_xml();
  EXPECT_NE(xml.find("<soap:Envelope>"), std::string::npos);
  EXPECT_NE(xml.find("wsse:Security"), std::string::npos);
  EXPECT_NE(xml.find("CreateSession"), std::string::npos);
  EXPECT_NE(xml.find("/O=UFL/CN=alice"), std::string::npos);
}

TEST(Envelope, CredentialFieldRoundTrip) {
  std::string field = credential_to_field(pki().alice);
  crypto::Credential back = credential_from_field(field);
  EXPECT_EQ(back.cert, pki().alice.cert);
  EXPECT_EQ(back.private_key.d, pki().alice.private_key.d);
}

TEST(Envelope, CredentialFromFieldSignsLikeTheOriginal) {
  // The field carries (n, e, d) only, so the rebuilt key signs over n
  // while the original uses its CRT factors; the bytes must agree.
  const crypto::Credential& alice = pki().alice;
  crypto::Credential back = credential_from_field(credential_to_field(alice));
  ASSERT_FALSE(alice.private_key.p.is_zero());
  EXPECT_TRUE(back.private_key.p.is_zero());
  for (const char* msg : {"", "CreateSession", "/GFS/alice/data"}) {
    EXPECT_EQ(crypto::rsa_sign_sha1(back.private_key, to_bytes(msg)),
              crypto::rsa_sign_sha1(alice.private_key, to_bytes(msg)))
        << msg;
  }
}

// --- full control-plane test ---------------------------------------------------

struct ServiceRig {
  Engine eng;
  net::Network net{eng};
  net::Host* compute;
  net::Host* fileserver;
  net::Host* middleware;
  std::shared_ptr<vfs::FileSystem> fs;
  std::shared_ptr<nfs::Nfs3Server> kernel_nfs;
  std::unique_ptr<rpc::RpcServer> kernel_rpc;
  std::shared_ptr<FileSystemService> fss_server;
  std::shared_ptr<FileSystemService> fss_client;
  std::shared_ptr<DataSchedulerService> dss;

  ServiceRig() {
    compute = &net.add_host("compute");
    fileserver = &net.add_host("fileserver");
    middleware = &net.add_host("middleware");

    fs = std::make_shared<vfs::FileSystem>();
    vfs::Cred root(0, 0);
    fs->mkdir_p(root, "/GFS/alice", 0755);
    auto home = fs->resolve(root, "/GFS/alice");
    vfs::SetAttrs chown;
    chown.uid = 2001;
    chown.gid = 2001;
    fs->setattr(root, home.value, chown);
    kernel_nfs = std::make_shared<nfs::Nfs3Server>(*fileserver, fs);
    kernel_nfs->add_export(nfs::ExportEntry("/GFS", {"fileserver"}));
    kernel_rpc = std::make_unique<rpc::RpcServer>(*fileserver, 2049);
    kernel_rpc->register_program(nfs::kNfsProgram, nfs::kNfsVersion3,
                                 kernel_nfs);
    kernel_rpc->register_program(nfs::kMountProgram, nfs::kMountVersion3,
                                 kernel_nfs->mount_program());
    kernel_rpc->start();

    std::vector<crypto::Certificate> trusted = {pki().ca.root()};
    std::vector<std::string> controllers = {"/O=Grid/CN=dss"};
    fss_server = std::make_shared<FileSystemService>(
        *fileserver, pki().fss1, trusted, controllers, fs,
        net::Address("fileserver", 2049), Rng(902));
    fss_server->start(6000);
    fss_client = std::make_shared<FileSystemService>(
        *compute, pki().fss2, trusted, controllers, nullptr, net::Address(),
        Rng(903));
    fss_client->start(6000);

    dss = std::make_shared<DataSchedulerService>(*middleware, pki().dss,
                                                 trusted, Rng(904));
    dss->register_filesystem("/GFS/alice", net::Address("fileserver", 6000),
                             "alice", 2001, 2001);
    dss->grant("/GFS/alice", "/O=UFL/CN=alice");
    dss->start(7000);
  }
};

TEST(Services, CreateSessionEndToEnd) {
  ServiceRig rig;
  rig.eng.run_task([](ServiceRig& rig) -> Task<void> {
    DssClient client(*rig.compute, net::Address("middleware", 7000),
                     pki().alice, {pki().ca.root()}, Rng(905));
    core::CacheConfig cache;
    auto session = co_await client.create_session(
        "/GFS/alice", "compute", net::Address("compute", 6000),
        crypto::Cipher::kAes256Cbc, crypto::MacAlgo::kHmacSha1, cache);
    EXPECT_EQ(session.client_host, "compute");
    EXPECT_GT(session.client_proxy_port, 0);
    EXPECT_EQ(rig.fss_client->session_count(), 1u);
    EXPECT_EQ(rig.fss_server->session_count(), 1u);

    // The created session actually serves files end to end.
    net::Address proxy(session.client_host, session.client_proxy_port);
    rpc::AuthSys job(1000, 1000, "compute");
    auto mp = co_await nfs::MountPoint::mount(*rig.compute, proxy,
                                              "/GFS/alice", job);
    int fd = co_await mp->open("from-dss.txt", nfs::kWrOnly | nfs::kCreate);
    co_await mp->write(fd, to_bytes("managed"));
    co_await mp->close(fd);
    auto proxy_obj =
        rig.fss_client->client_proxy(session.client_proxy_port);
    EXPECT_TRUE(proxy_obj != nullptr);
    co_await proxy_obj->flush();
    auto content =
        rig.fs->read_file(vfs::Cred(0, 0), "/GFS/alice/from-dss.txt");
    EXPECT_EQ(sgfs::to_string(content.value), "managed");
  }(rig));
  EXPECT_TRUE(rig.eng.errors().empty())
      << (rig.eng.errors().empty() ? "" : rig.eng.errors()[0]);
}

TEST(Services, UnauthorizedUserRefused) {
  ServiceRig rig;
  rig.eng.run_task([](ServiceRig& rig) -> Task<void> {
    DssClient client(*rig.compute, net::Address("middleware", 7000),
                     pki().mallory_cred, {pki().ca.root()}, Rng(906));
    bool refused = false;
    try {
      core::CacheConfig cache;
      (void)co_await client.create_session(
          "/GFS/alice", "compute", net::Address("compute", 6000),
          crypto::Cipher::kAes256Cbc, crypto::MacAlgo::kHmacSha1, cache);
    } catch (const std::runtime_error& e) {
      refused = std::string(e.what()).find("denied") != std::string::npos;
    }
    EXPECT_TRUE(refused);
  }(rig));
}

TEST(Services, GrantExtendsSharing) {
  ServiceRig rig;
  rig.dss->grant("/GFS/alice", "/O=UFL/CN=mallory");
  rig.eng.run_task([](ServiceRig& rig) -> Task<void> {
    DssClient client(*rig.compute, net::Address("middleware", 7000),
                     pki().mallory_cred, {pki().ca.root()}, Rng(907));
    core::CacheConfig cache;
    auto session = co_await client.create_session(
        "/GFS/alice", "compute", net::Address("compute", 6000),
        crypto::Cipher::kRc4_128, crypto::MacAlgo::kHmacSha1, cache);
    EXPECT_GT(session.client_proxy_port, 0);
  }(rig));
}

TEST(Services, FssRejectsNonControllerEnvelopes) {
  ServiceRig rig;
  rig.eng.run_task([](ServiceRig& rig) -> Task<void> {
    // alice tries to drive the FSS directly (only the DSS may).
    Envelope env = sign_envelope(
        "CreateServerProxy", {{"gridmap", ""}}, pki().alice,
        static_cast<int64_t>(rig.eng.now() / sim::kSecond));
    auto client = co_await rpc::clnt_create(
        *rig.compute, net::Address("fileserver", 6000), kFssProgram,
        kFssVersion);
    BufChain reply = co_await client->call(
        static_cast<uint32_t>(ServiceProc::kCreateServerProxy),
        env.serialize());
    Buffer scratch;
    Envelope out = Envelope::deserialize(linearize(reply, scratch));
    EXPECT_EQ(out.action, "Fault");
    client->close();
  }(rig));
}

TEST(Services, PutFileAclThroughDss) {
  ServiceRig rig;
  rig.fs->write_file(vfs::Cred(2001, 2001), "/GFS/alice/data.txt",
                     to_bytes("x"));
  rig.eng.run_task([](ServiceRig& rig) -> Task<void> {
    DssClient client(*rig.compute, net::Address("middleware", 7000),
                     pki().alice, {pki().ca.root()}, Rng(908));
    core::Acl acl;
    acl.entries["/O=UFL/CN=alice"] = 0x3f;
    bool ok = co_await client.put_file_acl("/GFS/alice", "data.txt", acl);
    EXPECT_TRUE(ok);
    // The ACL file landed next to the data.
    vfs::Cred root(0, 0);
    auto acl_file =
        rig.fs->resolve(root, "/GFS/alice/.data.txt.acl");
    EXPECT_TRUE(acl_file.ok());
  }(rig));
}

// --- fleet shard-map procs (kPutShardMap / kGetShardMap) -----------------------

Task<Envelope> call_fss_raw(net::Host& from, const net::Address& fss,
                            ServiceProc proc, BufChain args) {
  auto client = co_await rpc::clnt_create(from, fss, kFssProgram,
                                          kFssVersion);
  BufChain reply =
      co_await client->call(static_cast<uint32_t>(proc), std::move(args));
  client->close();
  Buffer scratch;
  co_return Envelope::deserialize(linearize(reply, scratch));
}

core::ShardMap test_map(uint64_t epoch) {
  std::vector<core::ShardInfo> shards;
  shards.emplace_back("shard0", net::Address("shard0", 3049));
  shards.emplace_back("shard1", net::Address("shard1", 3049));
  return core::ShardMap(epoch, std::move(shards));
}

Envelope put_env(uint64_t epoch, const crypto::Credential& signer) {
  return sign_envelope("PutShardMap", {{"map", test_map(epoch).to_string()}},
                       signer, 0);
}

TEST(ShardMapService, PublishAndDiscover) {
  ServiceRig rig;
  rig.eng.run_task([](ServiceRig& rig) -> Task<void> {
    const net::Address fss("compute", 6000);
    // Controller (the DSS identity) publishes epoch 5.
    Envelope put = put_env(5, pki().dss);
    Envelope ack = co_await call_fss_raw(*rig.middleware, fss,
                                         ServiceProc::kPutShardMap,
                                         put.serialize());
    EXPECT_EQ(ack.action, "PutShardMapResponse") << ack.to_xml();
    EXPECT_EQ(ack.fields.at("epoch"), "5");

    // Discovery is an UNSIGNED read: the reply comes back signed by the
    // FSS and verifies against the CA.
    Envelope got = co_await call_fss_raw(*rig.compute, fss,
                                         ServiceProc::kGetShardMap,
                                         BufChain());
    EXPECT_EQ(got.action, "GetShardMapResponse") << got.to_xml();
    auto verdict = verify_envelope(got, {pki().ca.root()}, 0);
    EXPECT_TRUE(verdict.ok) << verdict.error;
    EXPECT_EQ(verdict.signer.to_string(), "/O=Grid/CN=fss2");
    core::ShardMap map = core::ShardMap::parse(got.fields.at("map"));
    EXPECT_EQ(map.epoch(), 5u);
    EXPECT_EQ(map.size(), 2u);
    EXPECT_NE(map.find("shard1"), nullptr);
  }(rig));
}

TEST(ShardMapService, StaleEpochRejected) {
  ServiceRig rig;
  rig.eng.run_task([](ServiceRig& rig) -> Task<void> {
    const net::Address fss("compute", 6000);
    Envelope first = co_await call_fss_raw(
        *rig.middleware, fss, ServiceProc::kPutShardMap,
        put_env(5, pki().dss).serialize());
    EXPECT_EQ(first.action, "PutShardMapResponse");
    // Same epoch again and an older epoch: both refused, map unchanged.
    Envelope same = co_await call_fss_raw(
        *rig.middleware, fss, ServiceProc::kPutShardMap,
        put_env(5, pki().dss).serialize());
    EXPECT_EQ(same.action, "Fault");
    EXPECT_NE(same.fields.at("reason").find("stale"), std::string::npos);
    Envelope older = co_await call_fss_raw(
        *rig.middleware, fss, ServiceProc::kPutShardMap,
        put_env(4, pki().dss).serialize());
    EXPECT_EQ(older.action, "Fault");
    // A NEWER epoch is accepted.
    Envelope newer = co_await call_fss_raw(
        *rig.middleware, fss, ServiceProc::kPutShardMap,
        put_env(6, pki().dss).serialize());
    EXPECT_EQ(newer.action, "PutShardMapResponse");
    EXPECT_EQ(newer.fields.at("epoch"), "6");
  }(rig));
  ASSERT_TRUE(rig.fss_client->shard_map().has_value());
  EXPECT_EQ(rig.fss_client->shard_map()->epoch(), 6u);
}

TEST(ShardMapService, PublicationRequiresControllerIdentity) {
  ServiceRig rig;
  rig.eng.run_task([](ServiceRig& rig) -> Task<void> {
    const net::Address fss("compute", 6000);
    // alice's signature verifies but she is not an authorized controller.
    Envelope deny = co_await call_fss_raw(
        *rig.compute, fss, ServiceProc::kPutShardMap,
        put_env(5, pki().alice).serialize());
    EXPECT_EQ(deny.action, "Fault");
    EXPECT_NE(deny.fields.at("reason").find("not authorized"),
              std::string::npos);
  }(rig));
  EXPECT_FALSE(rig.fss_client->shard_map().has_value());
}

TEST(ShardMapService, DiscoveryBeforePublicationFaults) {
  ServiceRig rig;
  rig.eng.run_task([](ServiceRig& rig) -> Task<void> {
    Envelope got = co_await call_fss_raw(*rig.compute,
                                         net::Address("compute", 6000),
                                         ServiceProc::kGetShardMap,
                                         BufChain());
    EXPECT_EQ(got.action, "Fault");
    EXPECT_NE(got.fields.at("reason").find("no shard map"),
              std::string::npos);
  }(rig));
}

TEST(ShardMapService, DiscoveryServesCachedSignedReply) {
  ServiceRig rig;
  rig.eng.run_task([](ServiceRig& rig) -> Task<void> {
    const net::Address fss("compute", 6000);
    (void)co_await call_fss_raw(*rig.middleware, fss,
                                ServiceProc::kPutShardMap,
                                put_env(5, pki().dss).serialize());
    // Back-to-back discoveries reuse the pre-signed reply byte for byte:
    // a thousand-session establishment wave costs the FSS one signature.
    Envelope a = co_await call_fss_raw(*rig.compute, fss,
                                       ServiceProc::kGetShardMap,
                                       BufChain());
    Envelope b = co_await call_fss_raw(*rig.compute, fss,
                                       ServiceProc::kGetShardMap,
                                       BufChain());
    EXPECT_EQ(a.serialize(), b.serialize());
    // A new epoch invalidates the cache: fresh signature, fresh body.
    (void)co_await call_fss_raw(*rig.middleware, fss,
                                ServiceProc::kPutShardMap,
                                put_env(9, pki().dss).serialize());
    Envelope c = co_await call_fss_raw(*rig.compute, fss,
                                       ServiceProc::kGetShardMap,
                                       BufChain());
    EXPECT_NE(a.serialize(), c.serialize());
    EXPECT_EQ(core::ShardMap::parse(c.fields.at("map")).epoch(), 9u);
  }(rig));
}

// --- FSS kReconfigure ------------------------------------------------------------

TEST(Services, ReconfigureRekeysALiveClientProxy) {
  ServiceRig rig;
  rig.eng.run_task([](ServiceRig& rig) -> Task<void> {
    DssClient client(*rig.compute, net::Address("middleware", 7000),
                     pki().alice, {pki().ca.root()}, Rng(909));
    core::CacheConfig cache;
    auto session = co_await client.create_session(
        "/GFS/alice", "compute", net::Address("compute", 6000),
        crypto::Cipher::kAes256Cbc, crypto::MacAlgo::kHmacSha1, cache);
    // Mounting through the proxy brings its secure upstream session up.
    net::Address proxy(session.client_host, session.client_proxy_port);
    rpc::AuthSys job(1000, 1000, "compute");
    auto mp = co_await nfs::MountPoint::mount(*rig.compute, proxy,
                                              "/GFS/alice", job);
    core::ClientProxy* live =
        rig.fss_client->client_proxy(session.client_proxy_port);
    const uint32_t before = live->key_generation();
    EXPECT_GT(before, 0u);

    const net::Address fss("compute", 6000);
    auto reconfigure = [&rig](uint16_t port) {
      return sign_envelope("Reconfigure", {{"port", std::to_string(port)}},
                           pki().dss,
                           static_cast<int64_t>(rig.eng.now() / sim::kSecond))
          .serialize();
    };
    Envelope done = co_await call_fss_raw(
        *rig.middleware, fss, ServiceProc::kReconfigure,
        reconfigure(session.client_proxy_port));
    EXPECT_EQ(done.action, "ReconfigureResponse") << done.to_xml();
    EXPECT_EQ(live->key_generation(), before + 1);

    Envelope missing = co_await call_fss_raw(
        *rig.middleware, fss, ServiceProc::kReconfigure,
        reconfigure(static_cast<uint16_t>(session.client_proxy_port + 1)));
    EXPECT_EQ(missing.action, "Fault") << missing.to_xml();
    EXPECT_EQ(missing.fields.at("reason"), "no such session");
    EXPECT_EQ(live->key_generation(), before + 1);
  }(rig));
  EXPECT_TRUE(rig.eng.errors().empty())
      << (rig.eng.errors().empty() ? "" : rig.eng.errors()[0]);
}

}  // namespace
}  // namespace sgfs::services

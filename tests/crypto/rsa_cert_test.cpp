#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "crypto/accel.hpp"
#include "crypto/cert.hpp"
#include "crypto/rsa.hpp"

namespace sgfs::crypto {
namespace {

// Key generation is the slow part; share one deterministic fixture.
class RsaTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(100);
    kp_ = new RsaKeyPair(rsa_generate(rng, 512));
  }
  static void TearDownTestSuite() {
    delete kp_;
    kp_ = nullptr;
  }
  static RsaKeyPair* kp_;
};
RsaKeyPair* RsaTest::kp_ = nullptr;

TEST_F(RsaTest, KeyProperties) {
  EXPECT_GE(kp_->pub.n.bit_length(), 504u);
  EXPECT_EQ(kp_->pub.e, BigInt(65537));
  EXPECT_EQ(kp_->priv.public_key(), kp_->pub);
}

TEST_F(RsaTest, SignVerifyRoundTrip) {
  Buffer msg = to_bytes("grid file system message");
  Buffer sig = rsa_sign_sha1(kp_->priv, msg);
  EXPECT_EQ(sig.size(), kp_->pub.modulus_bytes());
  EXPECT_TRUE(rsa_verify_sha1(kp_->pub, msg, sig));
}

TEST_F(RsaTest, VerifyRejectsTamperedMessage) {
  Buffer msg = to_bytes("original");
  Buffer sig = rsa_sign_sha1(kp_->priv, msg);
  EXPECT_FALSE(rsa_verify_sha1(kp_->pub, to_bytes("0riginal"), sig));
}

TEST_F(RsaTest, VerifyRejectsTamperedSignature) {
  Buffer msg = to_bytes("message");
  Buffer sig = rsa_sign_sha1(kp_->priv, msg);
  sig[sig.size() / 2] ^= 1;
  EXPECT_FALSE(rsa_verify_sha1(kp_->pub, msg, sig));
}

TEST_F(RsaTest, VerifyRejectsWrongKey) {
  Rng rng(101);
  RsaKeyPair other = rsa_generate(rng, 512);
  Buffer msg = to_bytes("message");
  Buffer sig = rsa_sign_sha1(kp_->priv, msg);
  EXPECT_FALSE(rsa_verify_sha1(other.pub, msg, sig));
}

TEST_F(RsaTest, VerifyRejectsWrongLength) {
  Buffer msg = to_bytes("message");
  Buffer sig = rsa_sign_sha1(kp_->priv, msg);
  sig.pop_back();
  EXPECT_FALSE(rsa_verify_sha1(kp_->pub, msg, sig));
}

TEST_F(RsaTest, EncryptDecryptRoundTrip) {
  Rng rng(102);
  Buffer secret = rng.bytes(48);  // premaster size
  Buffer ct = rsa_encrypt(kp_->pub, rng, secret);
  EXPECT_EQ(ct.size(), kp_->pub.modulus_bytes());
  EXPECT_EQ(rsa_decrypt(kp_->priv, ct), secret);
}

TEST_F(RsaTest, EncryptionIsRandomized) {
  Rng rng(103);
  Buffer secret = to_bytes("same plaintext");
  Buffer c1 = rsa_encrypt(kp_->pub, rng, secret);
  Buffer c2 = rsa_encrypt(kp_->pub, rng, secret);
  EXPECT_NE(c1, c2);
  EXPECT_EQ(rsa_decrypt(kp_->priv, c1), rsa_decrypt(kp_->priv, c2));
}

TEST_F(RsaTest, DecryptRejectsTamperedCiphertext) {
  Rng rng(104);
  Buffer ct = rsa_encrypt(kp_->pub, rng, to_bytes("secret"));
  ct[10] ^= 0xFF;
  // Either padding fails or the plaintext differs; both are detectable.
  try {
    Buffer out = rsa_decrypt(kp_->priv, ct);
    EXPECT_NE(out, to_bytes("secret"));
  } catch (const std::runtime_error&) {
    SUCCEED();
  }
}

TEST_F(RsaTest, PlaintextTooLargeThrows) {
  Rng rng(105);
  Buffer big(kp_->pub.modulus_bytes() - 10, 1);
  EXPECT_THROW(rsa_encrypt(kp_->pub, rng, big), std::runtime_error);
}

TEST_F(RsaTest, PublicKeySerializeRoundTrip) {
  Buffer raw = kp_->pub.serialize();
  RsaPublicKey back = RsaPublicKey::deserialize(raw);
  EXPECT_EQ(back, kp_->pub);
  EXPECT_EQ(back.fingerprint(), kp_->pub.fingerprint());
  EXPECT_EQ(back.fingerprint().size(), 64u);
}

TEST(Rsa, GenerationIsDeterministic) {
  Rng a(7), b(7);
  RsaKeyPair ka = rsa_generate(a, 256);
  RsaKeyPair kb = rsa_generate(b, 256);
  EXPECT_EQ(ka.pub, kb.pub);
}

TEST(Rsa, GenerationKnownAnswer) {
  // Pins the keygen Rng stream (prime candidates, small-prime sieve,
  // Miller-Rabin witness draws): a change to any of them moves every
  // simulated key, certificate and signature.
  Rng rng(11);
  RsaKeyPair kp = rsa_generate(rng, 512);
  EXPECT_EQ(kp.priv.n.to_hex(),
            "5aaa57cbe356b683227eac760dc009101599be0ec3e346b07c2db1f8a54fb5ca"
            "cc2774f4e643e1336fab75ee9a9064cb5b1cb1b339541b8363a5525c5ef6962b");
  EXPECT_EQ(kp.priv.d.to_hex(),
            "53dc3f7cfcf855b491916d5f7c74656d952d315862e3b39cc61f560050979be3"
            "ac733572c7e7d64884f99a08bb7d0b4534d188ec839e3c507e09ce090ca883b1");
  EXPECT_EQ(rng.next_u64(), 4340536231259699837ull);  // no extra draws

  // More streams at both sizes simulated and tested keys use.
  struct Pinned {
    uint64_t seed;
    size_t bits;
    const char* n;
    const char* d;
    uint64_t next;
  };
  const Pinned pinned[] = {
      {1, 512,
       "6c1a01623561b13bc41bc3d09b57642c9f690a615745436a73d08b229cf89df3"
       "1e7dfddf7988440221d811d465362a82d331ab58f9d29bd591ef704c61528327",
       "44b49e8e81a90e9112ca26c14e09d4243c48f18cfe7f8a227d6b5d12e9bb65ff"
       "49b006fbd9ae63cf9d0fc684be486825580ce812f3740ab1e4fcf81e9430a449",
       9299927363573429491ull},
      {1, 1024,
       "7ea59dea22d0d8ffb115995e6be630aa91f02e38b9a11f9a425ca8b7c7b2339a"
       "42f14b38a319c895d4e8e7e65624eff8ea2b23bdd284ef78bf17616701a19a02"
       "100d4a75691778267999a34b42ef25d706df4168cf8bb7cad4892f2aa2c318ad"
       "118d90d883f1d831ccf6efe07f178c5e2b7c6ad9fa505b338df1b10e776785b3",
       "1636a85f13e23bdd854afb8ea33049e2f11c068f6e87c34a444f8a4c49db88cf"
       "8ae455c4465f545e6b6cba981d0df7855a555cbc83bb4b618b6ae76bb0ce8e7b"
       "82bf8820ab7591f26999efd166e8c7f0e39f0f53dcda6f5446e56340d4dfbb19"
       "f5011188572c965c01dcd8265f05cd2b66bc5e52e0f1d8381653a50c6ad0fa49",
       8458908918799258338ull},
      {7, 512,
       "d1e19dbccd580f974bc56d51e4d7986ff8ed3870a046a1d98d4984ca700565f4"
       "7bbd2a14568b0141c5aeef6fcdcc7d4c5ad01e767f50fd8693c77b8232e2c5a3",
       "36d95666abe75293c07a84da3d0ad6cc946a3230c4c210b41107608ba300d626"
       "b7fa6455237f5926d18b24338960a190b575a3e2fa04194838466fd8ddb4faf9",
       1681587322410121618ull},
      {7, 1024,
       "daa79ac234270f8498cd211710ee8fa7bca27c785affb0d321f5cb8ad02bb0cc"
       "9a6ab26f4b5d819b2c3ad5018ad325412daa9bf2cfe56a068adbd05c65d602bf"
       "6ef1b5a67cfc7fd4e9555bc6d6be1d45dde6ee6d176e3d7a7bfce61d5b1ed3e7"
       "09cc58dbaf883c498b0632ca091d2b29132e76c432671732f37564a44dcbb74d",
       "5ad87a1f2805f69793d8de5fb4043a2169e964a7a8bf455b6367b92ab275049e"
       "eda558ff8ea389fecbb0a1e1632978f80c9e2eef025b81e2b7fcbe243597664a"
       "186e7d6419f0824af77c8982052b294202dc094413b0ae77d1f3c6506a667ede"
       "cadf4e0a9c742964199c2f76ba49a8a6faf3ac20b6486423bd590218f96bc2cd",
       10784530682811447777ull},
      {42, 512,
       "6f9fe14a11246b881c5629fa27f4ae9775b7c3d7876221d1225a9234905255e7"
       "06d77f071f589c7c4baaf0e8c649cc4c91c15c2da8980b4d47751cc213bf2383",
       "6a5f9c1c2f55dbbbabf558af71a03539550f386c8e31b034525ea971ba0f1c98"
       "75ea713e0ada9855da74d3ffb6c138f71ed97d1162291ad09ffb01f79358dd61",
       16329587693157525757ull},
      {42, 1024,
       "b86efe67919472b7c2c616c113a7d811b6dcc58d5ed3cd5fe11d78f9c112eaf6"
       "b88030ca2e89fbc7797635c36bbed789f2228b4fd0e47678364013cfc7a404fd"
       "46ae761fb19f178f0a5c7efc9ef455379a453ba0e452679cfac413095771f846"
       "d5a1288b13c951f76936cdd013fcfe85979d73a4cf3efc6dc4e298bea32c1163",
       "22a034031dc1d107cef981ac1e1494ec3e78945e463f5d7f72b425d23dfd5f3f"
       "92c3fe64f6f7d0dd52606f179152f3046301394672e1719c8012e7a54ac5f069"
       "8b00d1269ee1f0016b0f11b9db5d3f1863826945d6f18d3b6fb0f3b20954cb60"
       "a7a89c0345c85b3bfb51e8e5fb3aa16bae7001e0b6af2d9c63e8334a84d38901",
       4669449104607994800ull},
  };
  for (const Pinned& k : pinned) {
    Rng r(k.seed);
    const RsaKeyPair got = rsa_generate(r, k.bits);
    EXPECT_EQ(got.priv.n.to_hex(), k.n) << "seed " << k.seed << ", " << k.bits;
    EXPECT_EQ(got.priv.d.to_hex(), k.d) << "seed " << k.seed << ", " << k.bits;
    EXPECT_EQ(r.next_u64(), k.next) << "seed " << k.seed << ", " << k.bits;
  }
}

TEST(Rsa, SignKnownAnswer) {
  // PKCS#1 v1.5 signature bytes for a fixed key and message.
  Rng rng(7);
  const RsaKeyPair kp = rsa_generate(rng, 512);
  const Buffer msg = to_bytes("grid file system message");
  const Buffer sig = rsa_sign_sha1(kp.priv, msg);
  EXPECT_EQ(to_hex(sig),
            "5b08a99ea7e7d9fbc9c9da31afc9dfb613b31a1dab9568658cc5878a95f643f7"
            "6f5871f43cb647b8dadfb27109a8223b6144d5ad13036b212f7f74bbe202e8ed");
  EXPECT_TRUE(rsa_verify_sha1(kp.pub, msg, sig));
}

// The key as credential_from_field rebuilds it: (n, e, d), no factors.
RsaPrivateKey without_factors(const RsaPrivateKey& key) {
  RsaPrivateKey out;
  out.n = key.n;
  out.e = key.e;
  out.d = key.d;
  return out;
}

TEST(Rsa, CrtFactorsAreConsistent) {
  Rng rng(200);
  for (size_t bits : {256u, 512u, 1024u}) {
    const RsaPrivateKey k = rsa_generate(rng, bits).priv;
    const BigInt one(1);
    EXPECT_EQ(k.p * k.q, k.n);
    EXPECT_EQ(k.dp, k.d % (k.p - one));
    EXPECT_EQ(k.dq, k.d % (k.q - one));
    EXPECT_EQ((k.qinv * k.q) % k.p, one);
  }
}

TEST(Rsa, QinvMatchesExtendedEuclid) {
  // rsa_generate computes qinv = q^(p-2) mod p; extended Euclid must give
  // the same value on every key, at every size keys are made at.
  Rng rng(300);
  for (size_t bits : {256u, 512u, 1024u}) {
    for (int i = 0; i < (bits == 1024u ? 8 : 40); ++i) {
      const RsaPrivateKey k = rsa_generate(rng, bits).priv;
      ASSERT_EQ(k.qinv, BigInt::mod_inverse(k.q, k.p)) << bits << "-bit key "
                                                       << i;
    }
  }
}

TEST(Rsa, CrtSignAndDecryptMatchThePlainPath) {
  // The CRT private operation against the plain one over n and against
  // the reference exponentiation, byte for byte.  A 256-bit modulus is
  // too short for the SHA-1 DigestInfo, so it runs decrypt only.
  Rng rng(201);
  for (size_t bits : {256u, 512u, 1024u}) {
    const RsaKeyPair kp = rsa_generate(rng, bits);
    const RsaPrivateKey plain = without_factors(kp.priv);
    const size_t width = kp.pub.modulus_bytes();
    for (int i = 0; i < 12; ++i) {
      const Buffer secret = rng.bytes(1 + static_cast<size_t>(i) % 20);
      const Buffer ct = rsa_encrypt(kp.pub, rng, secret);
      EXPECT_EQ(rsa_decrypt(kp.priv, ct), secret);
      EXPECT_EQ(rsa_decrypt(plain, ct), secret);

      if (bits == 256) continue;
      const Buffer msg = rng.bytes(static_cast<size_t>(i) * 37);
      const Buffer sig = rsa_sign_sha1(kp.priv, msg);
      EXPECT_EQ(sig, rsa_sign_sha1(plain, msg)) << bits << " bits, msg " << i;
      const BigInt em =
          accel::mod_exp_reference(BigInt::from_bytes(sig), kp.pub.e, kp.pub.n);
      EXPECT_EQ(accel::mod_exp_reference(em, kp.priv.d, kp.priv.n)
                    .to_bytes_padded(width),
                sig);
      EXPECT_TRUE(rsa_verify_sha1(kp.pub, msg, sig));
    }
  }
}

TEST(Rsa, CrtDecryptAgreesOnArbitraryCiphertexts) {
  // Ciphertexts that are not rsa_encrypt output, including multiples of a
  // factor: both paths must fail alike or return the same bytes.
  Rng rng(202);
  auto outcome = [](const RsaPrivateKey& key, const Buffer& ct) {
    try {
      return to_hex(rsa_decrypt(key, ct));
    } catch (const std::runtime_error& e) {
      return std::string("error: ") + e.what();
    }
  };
  for (size_t bits : {256u, 512u, 1024u}) {
    const RsaKeyPair kp = rsa_generate(rng, bits);
    const RsaPrivateKey plain = without_factors(kp.priv);
    const size_t width = kp.pub.modulus_bytes();
    std::vector<BigInt> inputs = {BigInt(), BigInt(1), kp.priv.p, kp.priv.q,
                                  kp.priv.p * BigInt(3),
                                  kp.pub.n - BigInt(1)};
    for (int i = 0; i < 30; ++i) {
      inputs.push_back(BigInt::random_below(rng, kp.pub.n));
    }
    for (const BigInt& c : inputs) {
      const Buffer ct = c.to_bytes_padded(width);
      EXPECT_EQ(outcome(kp.priv, ct), outcome(plain, ct))
          << bits << " bits, c=" << c.to_hex();
    }
  }
}

// --- Distinguished names ----------------------------------------------------

TEST(Dn, ToStringAndParse) {
  DistinguishedName dn("UFL-ACIS", "Ming Zhao");
  EXPECT_EQ(dn.to_string(), "/O=UFL-ACIS/CN=Ming Zhao");
  EXPECT_EQ(DistinguishedName::parse(dn.to_string()), dn);
}

TEST(Dn, ParseRejectsMalformed) {
  EXPECT_THROW(DistinguishedName::parse("no tags"), std::invalid_argument);
  EXPECT_THROW(DistinguishedName::parse("/CN=only"), std::invalid_argument);
}

// --- Certificates -----------------------------------------------------------

class CertTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    rng_ = new Rng(200);
    ca_ = new CertificateAuthority(*rng_, DistinguishedName("Grid", "RootCA"),
                                   0, 1000000);
    user_ = new Credential(ca_->issue(
        *rng_, DistinguishedName("UFL", "alice"), CertType::kIdentity, 0,
        500000));
    host_ = new Credential(ca_->issue(
        *rng_, DistinguishedName("UFL", "fileserver"), CertType::kHost, 0,
        500000));
  }
  static void TearDownTestSuite() {
    delete user_;
    delete host_;
    delete ca_;
    delete rng_;
    user_ = nullptr;
    host_ = nullptr;
    ca_ = nullptr;
    rng_ = nullptr;
  }
  static Rng* rng_;
  static CertificateAuthority* ca_;
  static Credential* user_;
  static Credential* host_;
};
Rng* CertTest::rng_ = nullptr;
CertificateAuthority* CertTest::ca_ = nullptr;
Credential* CertTest::user_ = nullptr;
Credential* CertTest::host_ = nullptr;

TEST_F(CertTest, RootIsSelfSigned) {
  EXPECT_TRUE(ca_->root().is_self_signed());
  EXPECT_EQ(ca_->root().type, CertType::kCa);
  EXPECT_TRUE(rsa_verify_sha1(ca_->root().key, ca_->root().tbs_bytes(),
                              ca_->root().signature));
}

TEST_F(CertTest, SerializeRoundTrip) {
  Buffer raw = user_->cert.serialize();
  Certificate back = Certificate::deserialize(raw);
  EXPECT_EQ(back, user_->cert);
}

TEST_F(CertTest, ValidUserChainAccepted) {
  auto result = validate_chain({user_->cert}, {ca_->root()}, 100);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.effective_identity.to_string(), "/O=UFL/CN=alice");
}

TEST_F(CertTest, HostChainAccepted) {
  auto result = validate_chain({host_->cert}, {ca_->root()}, 100);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.effective_identity.common_name, "fileserver");
}

TEST_F(CertTest, ExpiredCertificateRejected) {
  auto result = validate_chain({user_->cert}, {ca_->root()}, 500001);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("expired"), std::string::npos);
}

TEST_F(CertTest, NotYetValidRejected) {
  Rng rng(201);
  auto late = ca_->issue(rng, DistinguishedName("UFL", "late"),
                         CertType::kIdentity, 1000, 2000);
  EXPECT_FALSE(validate_chain({late.cert}, {ca_->root()}, 500).ok);
  EXPECT_TRUE(validate_chain({late.cert}, {ca_->root()}, 1500).ok);
}

TEST_F(CertTest, UntrustedIssuerRejected) {
  Rng rng(202);
  CertificateAuthority rogue(rng, DistinguishedName("Evil", "RootCA"), 0,
                             1000000);
  auto mallory = rogue.issue(rng, DistinguishedName("Evil", "mallory"),
                             CertType::kIdentity, 0, 500000);
  auto result = validate_chain({mallory.cert}, {ca_->root()}, 100);
  EXPECT_FALSE(result.ok);
}

TEST_F(CertTest, ForgedSignatureRejected) {
  Certificate forged = user_->cert;
  forged.subject.common_name = "root";  // tamper with the subject
  auto result = validate_chain({forged}, {ca_->root()}, 100);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("signature"), std::string::npos);
}

TEST_F(CertTest, EmptyChainRejected) {
  EXPECT_FALSE(validate_chain({}, {ca_->root()}, 100).ok);
}

TEST_F(CertTest, ProxyDelegationAccepted) {
  Rng rng(203);
  Credential proxy = issue_proxy(rng, *user_, 0, 3600);
  auto result = validate_chain(proxy.presented_chain(), {ca_->root()}, 100);
  ASSERT_TRUE(result.ok) << result.error;
  // Effective identity unwraps to the base user.
  EXPECT_EQ(result.effective_identity.to_string(), "/O=UFL/CN=alice");
}

TEST_F(CertTest, NestedProxyDelegationAccepted) {
  Rng rng(204);
  Credential proxy1 = issue_proxy(rng, *user_, 0, 3600);
  Credential proxy2 = issue_proxy(rng, proxy1, 0, 1800);
  auto result = validate_chain(proxy2.presented_chain(), {ca_->root()}, 100);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.effective_identity.to_string(), "/O=UFL/CN=alice");
}

TEST_F(CertTest, ExpiredProxyRejected) {
  Rng rng(205);
  Credential proxy = issue_proxy(rng, *user_, 0, 50);
  auto result = validate_chain(proxy.presented_chain(), {ca_->root()}, 100);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("proxy"), std::string::npos);
}

TEST_F(CertTest, ProxyWithoutSignerRejected) {
  Rng rng(206);
  Credential proxy = issue_proxy(rng, *user_, 0, 3600);
  auto result = validate_chain({proxy.cert}, {ca_->root()}, 100);
  EXPECT_FALSE(result.ok);
}

TEST_F(CertTest, ProxySignedByWrongKeyRejected) {
  Rng rng(207);
  Credential other = ca_->issue(rng, DistinguishedName("UFL", "bob"),
                                CertType::kIdentity, 0, 500000);
  Credential proxy = issue_proxy(rng, *user_, 0, 3600);
  // Present alice's proxy with bob's identity as the signer.
  auto result = validate_chain({proxy.cert, other.cert}, {ca_->root()}, 100);
  EXPECT_FALSE(result.ok);
}

TEST_F(CertTest, CaRefusesToIssueProxyType) {
  Rng rng(208);
  RsaKeyPair kp = rsa_generate(rng, 256);
  EXPECT_THROW(ca_->sign(DistinguishedName("UFL", "x"), CertType::kProxy,
                         kp.pub, 0, 100),
               std::invalid_argument);
}

TEST_F(CertTest, RootAndIssuedCertificateKnownAnswer) {
  // Every byte of a root and of one certificate it issues, from a fixed
  // stream of its own (not the fixture's): key generation, serial numbers
  // and signatures all feed them.
  Rng rng(300);
  CertificateAuthority ca(rng, DistinguishedName("Grid", "RootCA"), 0,
                          1000000);
  const Credential alice = ca.issue(rng, DistinguishedName("UFL", "alice"),
                                    CertType::kIdentity, 0, 500000);
  EXPECT_EQ(to_hex(ca.root().serialize()),
            "000000940000000000000001000000044772696400000006526f6f7443410000"
            "000000044772696400000006526f6f7443410000000000000000000000000000"
            "00000000000f42400000004c00000040917f59a4caadfd9fd4427676f3b32cdf"
            "6166ea9ae2b7b8a1bd28905eccfac3b8f0c09523e421e77ef4938ccf51ed348c"
            "2d6bba2e8dfcd9158f61c4f67438d03d000000030100010000000040373ee5f0"
            "6c4150b42a9c2a0ebac2635db745c1b48aad33108d5484f75ffad8559b42c798"
            "930e5cf79848647c78043920eeeb2bcd9d1023c86a76c69e2f64ac29");
  EXPECT_EQ(to_hex(alice.cert.serialize()),
            "0000009400000000000000020000000355464c0000000005616c696365000000"
            "000000044772696400000006526f6f7443410000000000010000000000000000"
            "000000000007a1200000004c000000405f5d181bc7fcd0c043a75198a58da0ab"
            "348deef590b83b40b390d2559389a71813c9a83337c48e52771fab0ce01f411e"
            "efa3e533913306d9ce879f686e4b6fbf00000003010001000000004082298da5"
            "ba91d841470d8a864a64a6b77acf85262cc90a42815af6c3ce2b2da0290466f8"
            "18bc21559023825a974e704969d7b30f396744ed35a8d3a48b05bf20");
  EXPECT_EQ(rng.next_u64(), 553828597586281885ull);  // no extra draws
}

TEST_F(CertTest, HostsCannotDelegate) {
  Rng rng(209);
  EXPECT_THROW(issue_proxy(rng, *host_, 0, 100), std::invalid_argument);
}

}  // namespace
}  // namespace sgfs::crypto

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

TEST_F(CertTest, HostsCannotDelegate) {
  Rng rng(209);
  EXPECT_THROW(issue_proxy(rng, *host_, 0, 100), std::invalid_argument);
}

}  // namespace
}  // namespace sgfs::crypto

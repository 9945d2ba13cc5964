#include "crypto/rsa.hpp"

#include <stdexcept>

#include "crypto/sha.hpp"
#include "xdr/xdr.hpp"

namespace sgfs::crypto {

Buffer RsaPublicKey::serialize() const {
  xdr::Encoder enc;
  enc.put_opaque(n.to_bytes());
  enc.put_opaque(e.to_bytes());
  return enc.take_flat();
}

RsaPublicKey RsaPublicKey::deserialize(ByteView data) {
  xdr::Decoder dec(data);
  RsaPublicKey key;
  key.n = BigInt::from_bytes(dec.get_opaque());
  key.e = BigInt::from_bytes(dec.get_opaque());
  return key;
}

std::string RsaPublicKey::fingerprint() const {
  auto d = Sha256::hash(serialize());
  return to_hex(ByteView(d.data(), d.size()));
}

RsaKeyPair rsa_generate(Rng& rng, size_t modulus_bits) {
  if (modulus_bits < 256) {
    throw std::invalid_argument("RSA modulus must be >= 256 bits");
  }
  const BigInt e(65537);
  for (;;) {
    BigInt p = BigInt::generate_prime(rng, modulus_bits / 2);
    BigInt q = BigInt::generate_prime(rng, modulus_bits - modulus_bits / 2);
    if (p == q) continue;
    BigInt n = p * q;
    BigInt phi = (p - BigInt(1)) * (q - BigInt(1));
    if (BigInt::gcd(e, phi) != BigInt(1)) continue;
    BigInt d = BigInt::mod_inverse(e, phi);
    BigInt dp = d % (p - BigInt(1));
    BigInt dq = d % (q - BigInt(1));
    // p is prime and q != p, so q^(p-2) is q's inverse mod p (Fermat).
    BigInt qinv = BigInt::mod_exp(q, p - BigInt(2), p);
    RsaKeyPair kp;
    kp.pub = {n, e};
    kp.priv = {n, e, d, p, q, dp, dq, qinv};
    return kp;
  }
}

namespace {

// Simplified DigestInfo: an ASCII tag in place of the DER-encoded OID.
// Both peers run this code, so the exact prefix bytes only need to be
// unambiguous and length-stable.
constexpr char kSha1Prefix[] = "DigestInfo:SHA1:";

Buffer pkcs1_pad_type1(ByteView payload, size_t width) {
  if (payload.size() + 11 > width) {
    throw std::runtime_error("PKCS#1 payload too large for modulus");
  }
  Buffer out;
  out.reserve(width);
  out.push_back(0x00);
  out.push_back(0x01);
  out.insert(out.end(), width - payload.size() - 3, 0xFF);
  out.push_back(0x00);
  append(out, payload);
  return out;
}

Buffer digest_info_sha1(ByteView message) {
  Buffer payload = to_bytes(kSha1Prefix);
  auto digest = Sha1::hash(message);
  append(payload, ByteView(digest.data(), digest.size()));
  return payload;
}

// x^d mod n, through the CRT factors where the key has them.
BigInt private_op(const RsaPrivateKey& key, const BigInt& x) {
  if (key.p.is_zero()) return BigInt::mod_exp(x, key.d, key.n);
  return BigInt::mod_exp_crt(x, key.p, key.q, key.dp, key.dq, key.qinv);
}

}  // namespace

Buffer rsa_sign_sha1(const RsaPrivateKey& key, ByteView message) {
  const size_t width = key.modulus_bytes();
  Buffer em = pkcs1_pad_type1(digest_info_sha1(message), width);
  BigInt m = BigInt::from_bytes(em);
  BigInt s = private_op(key, m);
  return s.to_bytes_padded(width);
}

bool rsa_verify_sha1(const RsaPublicKey& key, ByteView message,
                     ByteView signature) {
  const size_t width = key.modulus_bytes();
  if (signature.size() != width) return false;
  BigInt s = BigInt::from_bytes(signature);
  if (s >= key.n) return false;
  BigInt m = BigInt::mod_exp(s, key.e, key.n);
  Buffer em;
  try {
    em = m.to_bytes_padded(width);
  } catch (const std::overflow_error&) {
    return false;
  }
  Buffer expected = pkcs1_pad_type1(digest_info_sha1(message), width);
  return ct_equal(em, expected);
}

Buffer rsa_encrypt(const RsaPublicKey& key, Rng& rng, ByteView message) {
  const size_t width = key.modulus_bytes();
  if (message.size() + 11 > width) {
    throw std::runtime_error("RSA plaintext too large for modulus");
  }
  Buffer em;
  em.reserve(width);
  em.push_back(0x00);
  em.push_back(0x02);
  // PS: non-zero random bytes.
  for (size_t i = 0; i < width - message.size() - 3; ++i) {
    uint8_t b;
    do {
      b = static_cast<uint8_t>(rng.next_u64());
    } while (b == 0);
    em.push_back(b);
  }
  em.push_back(0x00);
  append(em, message);
  BigInt m = BigInt::from_bytes(em);
  BigInt c = BigInt::mod_exp(m, key.e, key.n);
  return c.to_bytes_padded(width);
}

Buffer rsa_decrypt(const RsaPrivateKey& key, ByteView ciphertext) {
  const size_t width = key.modulus_bytes();
  if (ciphertext.size() != width) {
    throw std::runtime_error("RSA ciphertext has wrong length");
  }
  BigInt c = BigInt::from_bytes(ciphertext);
  if (c >= key.n) throw std::runtime_error("RSA ciphertext out of range");
  BigInt m = private_op(key, c);
  Buffer em = m.to_bytes_padded(width);
  if (em.size() < 11 || em[0] != 0x00 || em[1] != 0x02) {
    throw std::runtime_error("RSA padding corrupt");
  }
  size_t sep = 2;
  while (sep < em.size() && em[sep] != 0x00) ++sep;
  if (sep < 10 || sep == em.size()) {
    throw std::runtime_error("RSA padding corrupt");
  }
  return Buffer(em.begin() + sep + 1, em.end());
}

}  // namespace sgfs::crypto

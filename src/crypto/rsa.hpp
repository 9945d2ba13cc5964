// RSA public-key primitives (keygen, PKCS#1-v1.5-style sign/verify and
// encrypt/decrypt) on top of the BigInt substrate.
//
// This is the asymmetric foundation of the GSI-style PKI: certificates are
// RSA-signed by a CA, the SecureChannel handshake encrypts its premaster
// secret to the server's RSA key, and the WS-Security substitute signs SOAP
// envelopes.  The padding follows PKCS#1 v1.5 shapes (block types 1 and 2)
// with a simplified DigestInfo prefix — both ends of every connection run
// this implementation, so DER OID bytes are unnecessary; the substitution is
// documented in DESIGN.md.
#pragma once

#include <string>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "crypto/bignum.hpp"

namespace sgfs::crypto {

struct RsaPublicKey {
  BigInt n;  // modulus
  BigInt e;  // public exponent

  size_t modulus_bytes() const { return (n.bit_length() + 7) / 8; }
  bool operator==(const RsaPublicKey&) const = default;

  /// Stable serialized form (for certificates and fingerprints).
  Buffer serialize() const;
  static RsaPublicKey deserialize(ByteView data);

  /// SHA-256 fingerprint of the serialized key, hex-encoded.
  std::string fingerprint() const;
};

struct RsaPrivateKey {
  BigInt n;
  BigInt e;
  BigInt d;  // private exponent
  // CRT factors (n = p*q, dp = d mod p-1, dq = d mod q-1, qinv = q^-1 mod
  // p).  rsa_generate fills them; a key rebuilt from (n, e, d) alone leaves
  // them zero and its private operations run over n.
  BigInt p, q, dp, dq, qinv;

  size_t modulus_bytes() const { return (n.bit_length() + 7) / 8; }
  RsaPublicKey public_key() const { return {n, e}; }
};

struct RsaKeyPair {
  RsaPublicKey pub;
  RsaPrivateKey priv;
};

/// Generates an RSA key pair with a modulus of `modulus_bits` (>= 256).
/// Deterministic given the Rng state; e = 65537.
RsaKeyPair rsa_generate(Rng& rng, size_t modulus_bits = 1024);

/// Signs SHA-1(message) with PKCS#1 v1.5 block type 1 padding.
Buffer rsa_sign_sha1(const RsaPrivateKey& key, ByteView message);

/// Verifies a signature produced by rsa_sign_sha1.
bool rsa_verify_sha1(const RsaPublicKey& key, ByteView message,
                     ByteView signature);

/// Encrypts a short message (<= modulus_bytes - 11) with block type 2
/// random padding.  Used for the handshake premaster secret.
Buffer rsa_encrypt(const RsaPublicKey& key, Rng& rng, ByteView message);

/// Decrypts rsa_encrypt output; throws std::runtime_error on bad padding.
Buffer rsa_decrypt(const RsaPrivateKey& key, ByteView ciphertext);

}  // namespace sgfs::crypto

// AES (Rijndael, FIPS-197) from scratch: AES-128 and AES-256, plus CBC mode
// with PKCS#7 padding.
//
// AES-256-CBC is the paper's "very strong cipher" (sgfs-aes configuration,
// §6.2.1) and the cipher of the emulated SSH tunnel (gfs-ssh).  CBC runs on
// AES-NI where the CPU has it; the reference and fallback is the classic
// 32-bit T-table formulation, tables derived programmatically from the
// GF(2^8) S-box at first use (see crypto/accel.hpp).
#pragma once

#include <array>
#include <cstdint>

#include "common/bufchain.hpp"
#include "common/bytes.hpp"
#include "crypto/hmac.hpp"

namespace sgfs::crypto {

class Aes {
 public:
  static constexpr size_t kBlockSize = 16;
  /// CBC over `n` whole blocks: `chain` holds the IV on entry and the last
  /// ciphertext block on return.  `in` and `out` may be unaligned.
  using CbcRun = void (*)(const uint8_t* round_keys, int rounds,
                          uint8_t* chain, const uint8_t* in, uint8_t* out,
                          size_t n);

  /// key must be 16 (AES-128) or 32 (AES-256) bytes.
  explicit Aes(ByteView key);

  /// Single blocks, always on the scalar reference.
  void encrypt_block(const uint8_t in[16], uint8_t out[16]) const;
  void decrypt_block(const uint8_t in[16], uint8_t out[16]) const;

  /// The block-run helpers every CBC entry point is built on.
  void cbc_encrypt_run(uint8_t chain[16], const uint8_t* in, uint8_t* out,
                       size_t n) const {
    encrypt_(ek_.data(), rounds_, chain, in, out, n);
  }
  void cbc_decrypt_run(uint8_t chain[16], const uint8_t* in, uint8_t* out,
                       size_t n) const {
    decrypt_(dk_.data(), rounds_, chain, in, out, n);
  }

  int rounds() const { return rounds_; }
  /// The encryption schedule, in the layout the CBC kernels take.
  const uint8_t* encrypt_round_keys() const { return ek_.data(); }

 protected:
  Aes(ByteView key, CbcRun encrypt, CbcRun decrypt);

 private:
  static constexpr size_t kMaxRoundKeyBytes = 16 * 15;
  // Round keys as FIPS-197 words stored big-endian: the byte order AESENC
  // and AESDEC take.  dk_ is the equivalent inverse cipher's schedule
  // (reversed, InvMixColumns on the inner rounds), which AESDEC also uses.
  alignas(16) std::array<uint8_t, kMaxRoundKeyBytes> ek_{};
  alignas(16) std::array<uint8_t, kMaxRoundKeyBytes> dk_{};
  int rounds_;
  CbcRun encrypt_;
  CbcRun decrypt_;
};

/// CBC-mode encryption with PKCS#7 padding; iv must be 16 bytes.
Buffer aes_cbc_encrypt(const Aes& aes, ByteView iv, ByteView plaintext);

/// Identical output to aes_cbc_encrypt over the flattened chain, but streams
/// the segments through a 16-byte staging block — no contiguous plaintext
/// copy is ever materialised.
Buffer aes_cbc_encrypt_chain(const Aes& aes, ByteView iv,
                             const BufChain& plaintext);

/// Length of the PKCS#7-padded CBC ciphertext of `plaintext_len` bytes.
constexpr size_t cbc_ciphertext_size(size_t plaintext_len) {
  return plaintext_len + Aes::kBlockSize - plaintext_len % Aes::kBlockSize;
}

/// Encrypt-then-MAC in one pass, the seal of the secure channel's AES
/// records and of the SSH tunnel's frames.  Writes the CBC encryption of
/// `head` followed by `body` (PKCS#7-padded, cbc_ciphertext_size bytes) at
/// `out`, then right behind it the MAC under `mac` of the `prefix_len` bytes
/// in front of `out` followed by that ciphertext.  `prefix_len` is below 64
/// and `mac` holds no partial message.  Where the CPU has AES-NI and SHA-NI
/// one stitched loop does both (crypto/accel.hpp); elsewhere the key's and
/// the hash's own kernels run one after the other.  The bytes are the same.
void cbc_encrypt_then_mac(const Aes& aes, ByteView iv, ByteView head,
                          const BufChain& body, HmacSha1& mac, uint8_t* out,
                          size_t prefix_len);

/// CBC-mode decryption; throws std::runtime_error on corrupt padding.
Buffer aes_cbc_decrypt(const Aes& aes, ByteView iv, ByteView ciphertext);

}  // namespace sgfs::crypto

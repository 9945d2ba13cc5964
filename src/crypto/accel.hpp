// Internal: the scalar and hardware kernels behind Sha1, Sha256, Aes and the
// one-pass record seal, and the reference exponentiation behind
// BigInt::mod_exp.
//
// Callers never include this header; `Sha1()`, `Sha256()` and `Aes(key)`
// pick the fastest kernel the CPU runs (CPUID is read once per primitive and
// cached), and `BigInt::mod_exp` runs Montgomery products for odd moduli.
// Only sha.cpp, aes.cpp, bignum.cpp, the equivalence tests and micro_crypto
// include it: they name a kernel explicitly to cross-check the fast path
// against the reference and to time one against the other.  There is no
// switch that forces a path at run time; the scalar kernels are the
// fallback on CPUs without the instructions and the reference here.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/bytes.hpp"
#include "crypto/aes.hpp"
#include "crypto/bignum.hpp"
#include "crypto/sha.hpp"

namespace sgfs::crypto::accel {

/// CPUID, read once and cached.  Always false off x86-64.
bool cpu_has_aesni();  // AES-NI + SSE4.1
bool cpu_has_shani();  // SHA extensions + SSE4.1

// Compression functions over `n` whole 64-byte blocks (Sha1::BlockFn).
void sha1_blocks_scalar(uint32_t* state, const uint8_t* blocks, size_t n);
void sha256_blocks_scalar(uint32_t* state, const uint8_t* blocks, size_t n);

// CBC over `n` whole 16-byte blocks (Aes::CbcRun).  Encrypt takes the
// encryption round keys, decrypt the equivalent-inverse ones.
void aes_cbc_encrypt_scalar(const uint8_t* round_keys, int rounds,
                            uint8_t* chain, const uint8_t* in, uint8_t* out,
                            size_t n);
void aes_cbc_decrypt_scalar(const uint8_t* round_keys, int rounds,
                            uint8_t* chain, const uint8_t* in, uint8_t* out,
                            size_t n);

// The record seal's pass (cbc_encrypt_then_mac): CBC-encrypts `n` whole
// blocks like a CbcRun and compresses into the SHA-1 `state` every whole
// 64-byte window of the MAC stream, which starts at `mac_at`, at most 63
// bytes before `out` (the MAC prefix the caller put there), and runs
// through the blocks written.  Returns the number of windows compressed;
// a partial window at the end is left to the caller.
using CbcSha1Run = size_t (*)(const uint8_t* round_keys, int rounds,
                              uint8_t* chain, const uint8_t* in, uint8_t* out,
                              size_t n, uint32_t* state,
                              const uint8_t* mac_at);

// The reference: aes_cbc_encrypt_scalar over every block, then
// sha1_blocks_scalar over every whole window.
size_t aes_cbc_sha1_scalar(const uint8_t* round_keys, int rounds,
                           uint8_t* chain, const uint8_t* in, uint8_t* out,
                           size_t n, uint32_t* state, const uint8_t* mac_at);

#if defined(__x86_64__)
// Hardware kernels; call only when the matching cpu_has_*() is true.
void sha1_blocks_shani(uint32_t* state, const uint8_t* blocks, size_t n);
void sha256_blocks_shani(uint32_t* state, const uint8_t* blocks, size_t n);
void aes_cbc_encrypt_aesni(const uint8_t* round_keys, int rounds,
                           uint8_t* chain, const uint8_t* in, uint8_t* out,
                           size_t n);
void aes_cbc_decrypt_aesni(const uint8_t* round_keys, int rounds,
                           uint8_t* chain, const uint8_t* in, uint8_t* out,
                           size_t n);
// AES-NI and SHA-NI in one loop (both cpu_has_*() true).  Each step of four
// blocks runs their AES chain interleaved with the rounds of the window
// completed one step earlier, never the window being written, so SHA-1
// does not wait on that step's chain; the windows the last steps complete
// are compressed after the loop.
size_t aes_cbc_sha1_stitched(const uint8_t* round_keys, int rounds,
                             uint8_t* chain, const uint8_t* in, uint8_t* out,
                             size_t n, uint32_t* state,
                             const uint8_t* mac_at);
#endif

/// (base ^ exp) mod m by right-to-left square-and-multiply with a full
/// division after every product.  BigInt::mod_exp's path for even moduli
/// and for odd ones over 2048 bits, and the reference its fixed-width
/// Montgomery path is checked and timed against.
BigInt mod_exp_reference(const BigInt& base, const BigInt& exp,
                         const BigInt& m);

/// A hash bound to one named compression kernel.  Usable wherever the hash
/// is, including as Hmac<PinnedHash<...>>.
template <typename Hash, typename Hash::BlockFn Kernel>
class PinnedHash : public Hash {
 public:
  PinnedHash() : Hash(Kernel) {}

  static typename Hash::Digest hash(ByteView data) {
    PinnedHash h;
    h.update(data);
    return h.finish();
  }
};

/// An AES key bound to one named pair of CBC kernels.
template <Aes::CbcRun Encrypt, Aes::CbcRun Decrypt>
class PinnedAes : public Aes {
 public:
  explicit PinnedAes(ByteView key) : Aes(key, Encrypt, Decrypt) {}
};

using ScalarSha1 = PinnedHash<Sha1, sha1_blocks_scalar>;
using ScalarSha256 = PinnedHash<Sha256, sha256_blocks_scalar>;
using ScalarAes = PinnedAes<aes_cbc_encrypt_scalar, aes_cbc_decrypt_scalar>;

#if defined(__x86_64__)
using ShaNiSha1 = PinnedHash<Sha1, sha1_blocks_shani>;
using ShaNiSha256 = PinnedHash<Sha256, sha256_blocks_shani>;
using AesNi = PinnedAes<aes_cbc_encrypt_aesni, aes_cbc_decrypt_aesni>;
#endif

}  // namespace sgfs::crypto::accel

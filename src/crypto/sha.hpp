// SHA-1 and SHA-256 message digests (FIPS 180-4), implemented from scratch.
//
// SHA1-HMAC is the integrity mechanism of every SGFS security configuration
// in the paper (sgfs-sha / sgfs-rc / sgfs-aes); SHA-256 is used by the
// certificate layer for fingerprints and by the WS-Security substitute.
//
// The compression function runs on the SHA extensions where the CPU has them
// and on the scalar reference otherwise (see crypto/accel.hpp).
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.hpp"

namespace sgfs::crypto {

namespace detail {

/// The Merkle–Damgård stream both hashes share: 64-byte blocks, a
/// big-endian 64-bit bit length, `Words` 32-bit state words.  Every whole
/// block of one update() goes to a single kernel call.
template <size_t Words>
class Md32 {
 public:
  static constexpr size_t kBlockSize = 64;
  /// Compresses `n` whole blocks into `state`.
  using BlockFn = void (*)(uint32_t* state, const uint8_t* blocks, size_t n);

  void update(ByteView data);

  /// For a kernel that compresses whole blocks itself (the stitched record
  /// seal): the chaining state, or nullptr while a partial block is
  /// buffered.  absorbed(n) then books the n blocks it compressed.
  uint32_t* block_state() {
    return buffer_len_ == 0 ? state_.data() : nullptr;
  }
  void absorbed(size_t blocks) { total_len_ += blocks * kBlockSize; }

 protected:
  Md32(const std::array<uint32_t, Words>& iv, BlockFn blocks)
      : state_(iv), blocks_(blocks) {}
  /// Pads, compresses the tail and writes the first `out_words` state words.
  void finish_into(uint8_t* out, size_t out_words);

 private:
  std::array<uint32_t, Words> state_;
  BlockFn blocks_;
  uint64_t total_len_ = 0;
  std::array<uint8_t, kBlockSize> buffer_{};
  size_t buffer_len_ = 0;
};

extern template class Md32<5>;
extern template class Md32<8>;

}  // namespace detail

class Sha1 : public detail::Md32<5> {
 public:
  static constexpr size_t kDigestSize = 20;
  using Digest = std::array<uint8_t, kDigestSize>;

  Sha1();
  Digest finish();

  /// One-shot convenience.
  static Digest hash(ByteView data);

 protected:
  explicit Sha1(BlockFn blocks);
};

class Sha256 : public detail::Md32<8> {
 public:
  static constexpr size_t kDigestSize = 32;
  using Digest = std::array<uint8_t, kDigestSize>;

  Sha256();
  Digest finish();

  static Digest hash(ByteView data);

 protected:
  explicit Sha256(BlockFn blocks);
};

/// Converts a digest to an owning Buffer.
template <typename D>
Buffer digest_bytes(const D& d) {
  return Buffer(d.begin(), d.end());
}

}  // namespace sgfs::crypto

// HMAC (FIPS 198 / RFC 2104) over any hash exposing update()/finish().
//
// SHA1-HMAC is the message-integrity mechanism of all SGFS security
// configurations evaluated in the paper (§6.2.1).
#pragma once

#include <cstring>

#include "common/bytes.hpp"
#include "crypto/sha.hpp"

namespace sgfs::crypto {

template <typename Hash>
class Hmac {
 public:
  static constexpr size_t kDigestSize = Hash::kDigestSize;
  using Digest = typename Hash::Digest;

  explicit Hmac(ByteView key) {
    uint8_t k[Hash::kBlockSize] = {};
    if (key.size() > Hash::kBlockSize) {
      const auto d = Hash::hash(key);
      std::memcpy(k, d.data(), d.size());
    } else if (!key.empty()) {
      std::memcpy(k, key.data(), key.size());
    }
    uint8_t pad[Hash::kBlockSize];
    for (size_t i = 0; i < Hash::kBlockSize; ++i) pad[i] = k[i] ^ 0x36;
    keyed_inner_.update(ByteView(pad, sizeof(pad)));
    for (size_t i = 0; i < Hash::kBlockSize; ++i) pad[i] = k[i] ^ 0x5c;
    keyed_outer_.update(ByteView(pad, sizeof(pad)));
    inner_ = keyed_inner_;
  }

  /// Drops a half-fed message; finish() does this on its own.
  void reset() { inner_ = keyed_inner_; }

  void update(ByteView data) { inner_.update(data); }

  /// The inner hash of the message being fed, for kernels that compress
  /// its blocks directly (Md32::block_state).
  Hash& inner() { return inner_; }

  /// The MAC of everything fed since the last finish() or reset(); the
  /// object is then ready for the next message under the same key.
  Digest finish() {
    const auto inner_digest = inner_.finish();
    inner_ = keyed_inner_;
    Hash outer = keyed_outer_;
    outer.update(ByteView(inner_digest.data(), inner_digest.size()));
    return outer.finish();
  }

  /// One-shot convenience.
  static Digest mac(ByteView key, ByteView data) {
    Hmac h(key);
    h.update(data);
    return h.finish();
  }

  /// Constant-time verification.
  static bool verify(ByteView key, ByteView data, ByteView expected) {
    auto d = mac(key, data);
    return ct_equal(ByteView(d.data(), d.size()), expected);
  }

 private:
  // The hash states after absorbing key^ipad and key^opad: each message
  // starts from copies, so the pads are hashed once per key.
  Hash keyed_inner_, keyed_outer_;
  Hash inner_;
};

using HmacSha1 = Hmac<Sha1>;
using HmacSha256 = Hmac<Sha256>;

}  // namespace sgfs::crypto

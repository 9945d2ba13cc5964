// Hardware-vs-scalar equivalence for the SHA-1, SHA-256, AES-CBC and
// record-seal kernels (crypto/accel.hpp).  Seeded and deterministic.  The scalar half
// always runs; the hardware half skips, with the reason, on a CPU or build
// without the instructions.
#include "crypto/accel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "common/bufchain.hpp"
#include "common/rng.hpp"
#include "crypto/aes.hpp"
#include "crypto/hmac.hpp"

namespace sgfs::crypto {
namespace {

using accel::ScalarAes;
using accel::ScalarSha1;
using accel::ScalarSha256;

constexpr const char* kNoShaNi = "CPU lacks SHA-NI + SSE4.1; scalar half only";
constexpr const char* kNoAesNi = "CPU lacks AES-NI + SSE4.1; scalar half only";

template <typename D>
std::string hex(const D& d) {
  return to_hex(ByteView(d.data(), d.size()));
}

// Feeds `data` in random pieces, with empty updates scattered between them.
template <typename H>
typename H::Digest hash_in_pieces(ByteView data, Rng& rng) {
  H h;
  size_t off = 0;
  while (off < data.size()) {
    if (rng.next_below(4) == 0) h.update(ByteView{});
    const size_t take = std::min<size_t>(data.size() - off,
                                         rng.next_range(1, 150));
    h.update(data.subspan(off, take));
    off += take;
  }
  h.update(ByteView{});
  return h.finish();
}

// Random lengths 0..4 KiB starting at offsets 0..15 of a larger buffer;
// every digest is checked against `Reference`'s one-shot hash.
template <typename H, typename Reference>
void expect_streams_match(uint64_t seed) {
  Rng rng(seed);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t len = rng.next_below(4097);
    const size_t start = rng.next_below(16);
    const Buffer backing = rng.bytes(len + start);
    const ByteView data(backing.data() + start, len);
    const auto want = Reference::hash(data);
    ASSERT_EQ(hex(H::hash(data)), hex(want)) << "len " << len;
    ASSERT_EQ(hex(hash_in_pieces<H>(data, rng)), hex(want)) << "len " << len;
  }
}

// Empty update() calls mid-block, at block boundaries and at the start.
template <typename H>
void expect_empty_updates_harmless() {
  Rng rng(11);
  const Buffer data = rng.bytes(300);
  for (size_t cut : {size_t{0}, size_t{1}, size_t{37}, size_t{63},
                     size_t{64}, size_t{65}, size_t{128}, size_t{200}}) {
    H h;
    h.update(ByteView{});
    h.update(ByteView(data.data(), cut));
    h.update(ByteView{});
    h.update(ByteView{});
    h.update(ByteView(data.data() + cut, data.size() - cut));
    h.update(ByteView{});
    EXPECT_EQ(hex(h.finish()), hex(H::hash(data))) << "cut at " << cut;
  }
}

// --- SHA: scalar half ----------------------------------------------------------

TEST(AccelShaScalar, KnownAnswers) {
  EXPECT_EQ(hex(ScalarSha1::hash(to_bytes("abc"))),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
  EXPECT_EQ(hex(ScalarSha256::hash(to_bytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(AccelShaScalar, Sha1StreamsMatchOneShot) {
  expect_streams_match<ScalarSha1, ScalarSha1>(1);
}

TEST(AccelShaScalar, Sha256StreamsMatchOneShot) {
  expect_streams_match<ScalarSha256, ScalarSha256>(2);
}

TEST(AccelShaScalar, EmptyUpdatesAreHarmless) {
  expect_empty_updates_harmless<ScalarSha1>();
  expect_empty_updates_harmless<ScalarSha256>();
}

// --- SHA: hardware half -------------------------------------------------------

TEST(AccelShaHardware, Sha1MatchesScalar) {
  if (!accel::cpu_has_shani()) GTEST_SKIP() << kNoShaNi;
#if defined(__x86_64__)
  expect_streams_match<accel::ShaNiSha1, ScalarSha1>(3);
#endif
}

TEST(AccelShaHardware, Sha256MatchesScalar) {
  if (!accel::cpu_has_shani()) GTEST_SKIP() << kNoShaNi;
#if defined(__x86_64__)
  expect_streams_match<accel::ShaNiSha256, ScalarSha256>(4);
#endif
}

TEST(AccelShaHardware, EmptyUpdatesAreHarmless) {
  if (!accel::cpu_has_shani()) GTEST_SKIP() << kNoShaNi;
#if defined(__x86_64__)
  expect_empty_updates_harmless<accel::ShaNiSha1>();
  expect_empty_updates_harmless<accel::ShaNiSha256>();
#endif
}

// --- AES-CBC ------------------------------------------------------------------

// CBC built by hand from the scalar single-block cipher: the reference.
Buffer reference_cbc_encrypt(const Aes& aes, ByteView iv, ByteView blocks) {
  Buffer out(blocks.size());
  uint8_t chain[16];
  std::memcpy(chain, iv.data(), 16);
  for (size_t off = 0; off < blocks.size(); off += 16) {
    uint8_t x[16];
    for (size_t i = 0; i < 16; ++i) x[i] = blocks[off + i] ^ chain[i];
    aes.encrypt_block(x, chain);
    std::memcpy(out.data() + off, chain, 16);
  }
  return out;
}

// Runs both block-run helpers at every chain length 0..64 with input and
// output at odd offsets, against the hand-built reference.
template <typename A>
void expect_runs_match_reference(size_t key_len, uint64_t seed) {
  Rng rng(seed);
  const A aes(rng.bytes(key_len));
  for (size_t n = 0; n <= 64; ++n) {
    const Buffer iv = rng.bytes(16);
    const size_t in_off = rng.next_range(1, 15), out_off = rng.next_range(1, 15);
    const Buffer plain = rng.bytes(16 * n);
    const Buffer want = reference_cbc_encrypt(aes, iv, plain);
    Buffer in(16 * n + in_off), out(16 * n + out_off);

    std::copy(plain.begin(), plain.end(), in.begin() + in_off);
    uint8_t chain[16];
    std::memcpy(chain, iv.data(), 16);
    aes.cbc_encrypt_run(chain, in.data() + in_off, out.data() + out_off, n);
    ASSERT_EQ(to_hex(ByteView(out.data() + out_off, 16 * n)), to_hex(want))
        << "encrypt, " << n << " blocks";
    const Buffer last =
        n == 0 ? iv : Buffer(want.end() - 16, want.end());
    ASSERT_EQ(to_hex(ByteView(chain, 16)), to_hex(last)) << n << " blocks";

    // Decrypt the reference ciphertext from an odd offset.
    std::copy(want.begin(), want.end(), in.begin() + in_off);
    std::memcpy(chain, iv.data(), 16);
    aes.cbc_decrypt_run(chain, in.data() + in_off, out.data() + out_off, n);
    ASSERT_EQ(to_hex(ByteView(out.data() + out_off, 16 * n)), to_hex(plain))
        << "decrypt, " << n << " blocks";
    ASSERT_EQ(to_hex(ByteView(chain, 16)), to_hex(last)) << n << " blocks";
  }
}

// aes_cbc_encrypt on `A` equals the reference; decrypt round-trips; the
// chain form over random segmentations equals the flat form.
template <typename A>
void expect_entry_points_match(size_t key_len, uint64_t seed) {
  Rng rng(seed);
  const A aes(rng.bytes(key_len));
  for (int trial = 0; trial < 150; ++trial) {
    const Buffer iv = rng.bytes(16);
    const size_t len = rng.next_below(16 * 70);
    const Buffer plain = rng.bytes(len);
    Buffer padded = plain;
    padded.insert(padded.end(), 16 - len % 16,
                  static_cast<uint8_t>(16 - len % 16));
    const Buffer flat = aes_cbc_encrypt(aes, iv, plain);
    ASSERT_EQ(to_hex(flat), to_hex(reference_cbc_encrypt(aes, iv, padded)))
        << "len " << len;
    ASSERT_EQ(aes_cbc_decrypt(aes, iv, flat), plain) << "len " << len;

    BufChain chain;
    for (size_t off = 0; off < len;) {
      const size_t take =
          std::min<size_t>(len - off, rng.next_below(4) == 0
                                          ? rng.next_range(1, 5)
                                          : rng.next_range(1, 200));
      chain.append(Buffer(plain.begin() + off, plain.begin() + off + take));
      off += take;
    }
    ASSERT_EQ(to_hex(aes_cbc_encrypt_chain(aes, iv, chain)), to_hex(flat))
        << "len " << len << ", " << chain.segments().size() << " segments";
  }
}

// Ciphertexts whose plaintext carries each kind of bad PKCS#7 padding.
template <typename A>
void expect_corrupt_padding_rejected() {
  Rng rng(9);
  const A aes(rng.bytes(32));
  const Buffer iv = rng.bytes(16);
  Buffer pad16_but_one(16, 0x10);
  pad16_but_one[0] = 0x02;
  const std::vector<Buffer> bad_tails = {
      {0x00},              // zero pad length
      {0x11},              // longer than a block
      {0xff},              // far longer than a block
      {0x05, 0x03, 0x03},  // pad 3 over a non-3 byte
      pad16_but_one,       // pad 16 over a non-16 byte
  };
  for (size_t blocks : {size_t{1}, size_t{2}, size_t{9}}) {
    for (const auto& tail : bad_tails) {
      Buffer plain = rng.bytes(16 * blocks);
      std::copy(tail.begin(), tail.end(), plain.end() - tail.size());
      Buffer ct(plain.size());
      uint8_t chain[16];
      std::memcpy(chain, iv.data(), 16);
      aes.cbc_encrypt_run(chain, plain.data(), ct.data(), blocks);
      EXPECT_THROW(aes_cbc_decrypt(aes, iv, ct), std::runtime_error)
          << blocks << " blocks, tail ending " << int(tail.back());
    }
  }
  // A flipped bit in the last block's predecessor turns valid padding bad.
  const Buffer ct = aes_cbc_encrypt(aes, iv, rng.bytes(32));
  Buffer tampered = ct;
  tampered[tampered.size() - 17] ^= 0x01;
  EXPECT_THROW(aes_cbc_decrypt(aes, iv, tampered), std::runtime_error);
}

TEST(AccelAesScalar, RunsMatchReferenceAtEveryChainLength) {
  expect_runs_match_reference<ScalarAes>(16, 21);
  expect_runs_match_reference<ScalarAes>(32, 22);
}

TEST(AccelAesScalar, EntryPointsAndChainMatchFlat) {
  expect_entry_points_match<ScalarAes>(16, 23);
  expect_entry_points_match<ScalarAes>(32, 24);
}

TEST(AccelAesScalar, CorruptPaddingRejected) {
  expect_corrupt_padding_rejected<ScalarAes>();
}

TEST(AccelAesHardware, RunsMatchReferenceAtEveryChainLength) {
  if (!accel::cpu_has_aesni()) GTEST_SKIP() << kNoAesNi;
#if defined(__x86_64__)
  expect_runs_match_reference<accel::AesNi>(16, 31);
  expect_runs_match_reference<accel::AesNi>(32, 32);
#endif
}

TEST(AccelAesHardware, EntryPointsAndChainMatchFlat) {
  if (!accel::cpu_has_aesni()) GTEST_SKIP() << kNoAesNi;
#if defined(__x86_64__)
  expect_entry_points_match<accel::AesNi>(16, 33);
  expect_entry_points_match<accel::AesNi>(32, 34);
#endif
}

TEST(AccelAesHardware, MatchesScalarCiphertext) {
  if (!accel::cpu_has_aesni()) GTEST_SKIP() << kNoAesNi;
#if defined(__x86_64__)
  Rng rng(35);
  for (size_t key_len : {size_t{16}, size_t{32}}) {
    const Buffer key = rng.bytes(key_len);
    const accel::AesNi hw(key);
    const ScalarAes sw(key);
    for (size_t len = 0; len <= 16 * 64 + 15; len += 7) {
      const Buffer iv = rng.bytes(16);
      const Buffer plain = rng.bytes(len);
      const Buffer ct = aes_cbc_encrypt(hw, iv, plain);
      ASSERT_EQ(ct, aes_cbc_encrypt(sw, iv, plain)) << "len " << len;
      ASSERT_EQ(aes_cbc_decrypt(sw, iv, ct), plain) << "len " << len;
    }
  }
#endif
}

TEST(AccelAesHardware, CorruptPaddingRejected) {
  if (!accel::cpu_has_aesni()) GTEST_SKIP() << kNoAesNi;
#if defined(__x86_64__)
  expect_corrupt_padding_rejected<accel::AesNi>();
#endif
}

// --- record seal: AES-CBC and the HMAC-SHA1 inner hash in one pass ----------

// `n` random blocks at an odd input offset, and an output area at an odd
// offset that starts with a random `prefix`-byte MAC prefix; a random chain
// and SHA-1 state.
struct SealCase {
  size_t prefix = 0, n = 0, in_off = 0, out_off = 0;
  Buffer in, out, chain;
  std::vector<uint32_t> state;
  size_t windows = 0;  // set by run()

  SealCase(size_t prefix_len, size_t blocks, Rng& rng)
      : prefix(prefix_len), n(blocks) {
    in_off = rng.next_range(1, 15);
    out_off = rng.next_range(1, 15);
    in = rng.bytes(in_off + 16 * n);
    out = rng.bytes(out_off + prefix + 16 * n);
    chain = rng.bytes(16);
    for (int i = 0; i < 5; ++i) {
      state.push_back(static_cast<uint32_t>(rng.next_u64()));
    }
  }

  ByteView plain() const { return ByteView(in.data() + in_off, 16 * n); }
  // The MAC stream: prefix, then ciphertext.
  ByteView stream() const {
    return ByteView(out.data() + out_off, prefix + 16 * n);
  }

  SealCase run(accel::CbcSha1Run kernel, const Aes& aes) const {
    SealCase c = *this;
    uint8_t* ct = c.out.data() + out_off + prefix;
    c.windows = kernel(aes.encrypt_round_keys(), aes.rounds(), c.chain.data(),
                       c.in.data() + in_off, ct, n, c.state.data(),
                       ct - prefix);
    return c;
  }
};

// The reference kernel is the two passes it claims to be.
TEST(AccelSealScalar, ReferenceIsCbcThenWindows) {
  Rng rng(51);
  for (size_t key_len : {size_t{16}, size_t{32}}) {
    const ScalarAes aes(rng.bytes(key_len));
    for (size_t prefix : {size_t{0}, size_t{8}}) {
      for (size_t n : {size_t{0}, size_t{3}, size_t{4}, size_t{13},
                       size_t{64}}) {
        const SealCase before(prefix, n, rng);
        const SealCase after = before.run(accel::aes_cbc_sha1_scalar, aes);
        Buffer stream(before.stream().begin(),
                      before.stream().begin() + static_cast<ptrdiff_t>(prefix));
        append(stream, reference_cbc_encrypt(aes, before.chain, before.plain()));
        const size_t windows = (prefix + 16 * n) / 64;
        std::vector<uint32_t> state = before.state;
        accel::sha1_blocks_scalar(state.data(), stream.data(), windows);
        EXPECT_EQ(after.windows, windows);
        EXPECT_EQ(to_hex(after.stream()), to_hex(stream));
        EXPECT_EQ(after.state, state) << prefix << " + " << n << " blocks";
      }
    }
  }
}

TEST(AccelSealHardware, StitchedMatchesScalarReference) {
  if (!accel::cpu_has_aesni() || !accel::cpu_has_shani()) {
    GTEST_SKIP() << "CPU lacks AES-NI + SHA-NI; the stitched kernel is off";
  }
#if defined(__x86_64__)
  Rng rng(52);
  std::vector<size_t> counts;
  for (size_t n = 0; n <= 40; ++n) counts.push_back(n);
  counts.push_back(1024);
  for (size_t key_len : {size_t{16}, size_t{32}}) {
    for (int key = 0; key < 3; ++key) {
      const Aes aes(rng.bytes(key_len));
      for (size_t prefix : {size_t{0}, size_t{8}}) {
        for (size_t n : counts) {
          const SealCase before(prefix, n, rng);
          const SealCase hw = before.run(accel::aes_cbc_sha1_stitched, aes);
          const SealCase sw = before.run(accel::aes_cbc_sha1_scalar, aes);
          ASSERT_EQ(hw.windows, sw.windows) << n << " blocks";
          ASSERT_EQ(to_hex(hw.out), to_hex(sw.out)) << n << " blocks";
          ASSERT_EQ(to_hex(hw.chain), to_hex(sw.chain)) << n << " blocks";
          ASSERT_EQ(hw.state, sw.state)
              << "AES-" << 8 * key_len << ", prefix " << prefix << ", " << n
              << " blocks";
        }
      }
    }
  }
#endif
}

// cbc_encrypt_then_mac, on whichever path this CPU takes, equals
// aes_cbc_encrypt followed by a separate HMAC over prefix || ciphertext,
// for every plaintext length 0..300 and random segmentations.
TEST(AccelSeal, EncryptThenMacMatchesTwoCalls) {
  Rng rng(53);
  for (size_t key_len : {size_t{16}, size_t{32}}) {
    const Aes aes(rng.bytes(key_len));
    const Buffer mac_key = rng.bytes(20);
    HmacSha1 mac(mac_key);
    for (size_t prefix : {size_t{0}, size_t{8}}) {
      for (size_t len = 0; len <= 300; ++len) {
        const Buffer iv = rng.bytes(16);
        const Buffer plain = rng.bytes(len);
        const size_t head = std::min<size_t>(len, rng.next_below(3));
        BufChain body;
        for (size_t off = head; off < len;) {
          const size_t take = std::min<size_t>(len - off, rng.next_range(1, 90));
          body.append(Buffer(plain.begin() + static_cast<ptrdiff_t>(off),
                             plain.begin() + static_cast<ptrdiff_t>(off + take)));
          off += take;
        }
        const size_t ct_len = cbc_ciphertext_size(len);
        Buffer out = rng.bytes(prefix + ct_len + 20);
        cbc_encrypt_then_mac(aes, iv, ByteView(plain.data(), head), body, mac,
                             out.data() + prefix, prefix);

        Buffer want(out.begin(), out.begin() + static_cast<ptrdiff_t>(prefix));
        append(want, aes_cbc_encrypt(aes, iv, plain));
        append(want, digest_bytes(HmacSha1::mac(mac_key, want)));
        ASSERT_EQ(to_hex(out), to_hex(want))
            << "len " << len << ", prefix " << prefix << ", "
            << body.segments().size() << " body segments";
      }
    }
  }
}

// --- HMAC: one keyed object, many messages -----------------------------------

template <typename H>
void expect_keyed_reuse(uint64_t seed) {
  Rng rng(seed);
  for (size_t key_len : {size_t{0}, size_t{20}, size_t{64}, size_t{100}}) {
    const Buffer key = rng.bytes(key_len);
    Hmac<H> h(key);
    for (int msg = 0; msg < 20; ++msg) {
      const Buffer data = rng.bytes(rng.next_below(300));
      const auto want = Hmac<H>::mac(key, data);
      h.update(data);
      const auto first = h.finish();
      h.update(data);
      const auto second = h.finish();
      EXPECT_EQ(hex(first), hex(want)) << "key " << key_len;
      EXPECT_EQ(hex(second), hex(want)) << "key " << key_len;
      // A half-fed message dropped by reset() leaves no trace.
      h.update(rng.bytes(33));
      h.reset();
      h.update(data);
      EXPECT_EQ(hex(h.finish()), hex(want)) << "key " << key_len;
    }
  }
}

TEST(AccelHmacScalar, KeyedObjectIsReusable) {
  expect_keyed_reuse<ScalarSha1>(41);
  expect_keyed_reuse<ScalarSha256>(42);
  // RFC 2202 case 2 through the scalar kernel.
  EXPECT_EQ(hex(Hmac<ScalarSha1>::mac(to_bytes("Jefe"),
                                      to_bytes("what do ya want for nothing?"))),
            "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79");
}

TEST(AccelHmacHardware, KeyedObjectIsReusableAndMatchesScalar) {
  if (!accel::cpu_has_shani()) GTEST_SKIP() << kNoShaNi;
#if defined(__x86_64__)
  expect_keyed_reuse<accel::ShaNiSha1>(43);
  expect_keyed_reuse<accel::ShaNiSha256>(44);
  Rng rng(45);
  for (int i = 0; i < 50; ++i) {
    const Buffer key = rng.bytes(rng.next_below(130));
    const Buffer data = rng.bytes(rng.next_below(2000));
    EXPECT_EQ(hex(Hmac<accel::ShaNiSha1>::mac(key, data)),
              hex(Hmac<ScalarSha1>::mac(key, data)));
    EXPECT_EQ(hex(Hmac<accel::ShaNiSha256>::mac(key, data)),
              hex(Hmac<ScalarSha256>::mac(key, data)));
  }
#endif
}

}  // namespace
}  // namespace sgfs::crypto

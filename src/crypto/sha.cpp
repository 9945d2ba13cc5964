#include "crypto/sha.hpp"

#include <cstring>
#include <utility>

#include "crypto/accel.hpp"

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace sgfs::crypto {

namespace {
inline uint32_t rotl32(uint32_t x, int k) { return (x << k) | (x >> (32 - k)); }
inline uint32_t rotr32(uint32_t x, int k) { return (x >> k) | (x << (32 - k)); }

inline uint32_t load_be32(const uint8_t* p) {
  return (static_cast<uint32_t>(p[0]) << 24) |
         (static_cast<uint32_t>(p[1]) << 16) |
         (static_cast<uint32_t>(p[2]) << 8) | static_cast<uint32_t>(p[3]);
}

inline void store_be32(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v >> 24);
  p[1] = static_cast<uint8_t>(v >> 16);
  p[2] = static_cast<uint8_t>(v >> 8);
  p[3] = static_cast<uint8_t>(v);
}

constexpr std::array<uint32_t, 5> kSha1Iv = {
    0x67452301u, 0xEFCDAB89u, 0x98BADCFEu, 0x10325476u, 0xC3D2E1F0u};

constexpr std::array<uint32_t, 8> kSha256Iv = {
    0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u, 0xa54ff53au,
    0x510e527fu, 0x9b05688cu, 0x1f83d9abu, 0x5be0cd19u};

alignas(16) constexpr uint32_t kSha256K[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

detail::Md32<5>::BlockFn best_sha1_blocks() {
#if defined(__x86_64__)
  if (accel::cpu_has_shani()) return accel::sha1_blocks_shani;
#endif
  return accel::sha1_blocks_scalar;
}

detail::Md32<8>::BlockFn best_sha256_blocks() {
#if defined(__x86_64__)
  if (accel::cpu_has_shani()) return accel::sha256_blocks_shani;
#endif
  return accel::sha256_blocks_scalar;
}
}  // namespace

// --- the shared stream --------------------------------------------------------

namespace detail {

template <size_t Words>
void Md32<Words>::update(ByteView data) {
  // An empty view may carry a null pointer; memcpy must never see it.
  if (data.empty()) return;
  total_len_ += data.size();
  const uint8_t* p = data.data();
  size_t n = data.size();
  if (buffer_len_ > 0) {
    const size_t take = std::min(kBlockSize - buffer_len_, n);
    std::memcpy(buffer_.data() + buffer_len_, p, take);
    buffer_len_ += take;
    p += take;
    n -= take;
    if (buffer_len_ < kBlockSize) return;
    blocks_(state_.data(), buffer_.data(), 1);
    buffer_len_ = 0;
  }
  if (n >= kBlockSize) {
    blocks_(state_.data(), p, n / kBlockSize);
    p += n - n % kBlockSize;
    n %= kBlockSize;
  }
  if (n > 0) {
    std::memcpy(buffer_.data(), p, n);
    buffer_len_ = n;
  }
}

template <size_t Words>
void Md32<Words>::finish_into(uint8_t* out, size_t out_words) {
  const uint64_t bit_len = total_len_ * 8;
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > kBlockSize - 8) {
    std::memset(buffer_.data() + buffer_len_, 0, kBlockSize - buffer_len_);
    blocks_(state_.data(), buffer_.data(), 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_.data() + buffer_len_, 0, kBlockSize - 8 - buffer_len_);
  store_be32(buffer_.data() + kBlockSize - 8,
             static_cast<uint32_t>(bit_len >> 32));
  store_be32(buffer_.data() + kBlockSize - 4, static_cast<uint32_t>(bit_len));
  blocks_(state_.data(), buffer_.data(), 1);
  buffer_len_ = 0;
  for (size_t i = 0; i < out_words; ++i) store_be32(out + 4 * i, state_[i]);
}

template class Md32<5>;
template class Md32<8>;

}  // namespace detail

// --- SHA-1 ------------------------------------------------------------------

Sha1::Sha1() : Md32(kSha1Iv, best_sha1_blocks()) {}

Sha1::Sha1(BlockFn blocks) : Md32(kSha1Iv, blocks) {}

Sha1::Digest Sha1::finish() {
  Digest out;
  finish_into(out.data(), 5);
  return out;
}

Sha1::Digest Sha1::hash(ByteView data) {
  Sha1 h;
  h.update(data);
  return h.finish();
}

// --- SHA-256 ----------------------------------------------------------------

Sha256::Sha256() : Md32(kSha256Iv, best_sha256_blocks()) {}

Sha256::Sha256(BlockFn blocks) : Md32(kSha256Iv, blocks) {}

Sha256::Digest Sha256::finish() {
  Digest out;
  finish_into(out.data(), 8);
  return out;
}

Sha256::Digest Sha256::hash(ByteView data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

// --- kernels -------------------------------------------------------------------

namespace accel {

void sha1_blocks_scalar(uint32_t* state, const uint8_t* block, size_t n) {
  for (; n > 0; --n, block += 64) {
    uint32_t w[80];
    for (int i = 0; i < 16; ++i) w[i] = load_be32(block + 4 * i);
    for (int i = 16; i < 80; ++i) {
      w[i] = rotl32(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1);
    }
    uint32_t a = state[0], b = state[1], c = state[2], d = state[3],
             e = state[4];
    for (int i = 0; i < 80; ++i) {
      uint32_t f, k;
      if (i < 20) {
        f = (b & c) | (~b & d);
        k = 0x5A827999u;
      } else if (i < 40) {
        f = b ^ c ^ d;
        k = 0x6ED9EBA1u;
      } else if (i < 60) {
        f = (b & c) | (b & d) | (c & d);
        k = 0x8F1BBCDCu;
      } else {
        f = b ^ c ^ d;
        k = 0xCA62C1D6u;
      }
      uint32_t tmp = rotl32(a, 5) + f + e + k + w[i];
      e = d;
      d = c;
      c = rotl32(b, 30);
      b = a;
      a = tmp;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
  }
}

void sha256_blocks_scalar(uint32_t* state, const uint8_t* block, size_t n) {
  for (; n > 0; --n, block += 64) {
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) w[i] = load_be32(block + 4 * i);
    for (int i = 16; i < 64; ++i) {
      uint32_t s0 = rotr32(w[i - 15], 7) ^ rotr32(w[i - 15], 18) ^
                    (w[i - 15] >> 3);
      uint32_t s1 = rotr32(w[i - 2], 17) ^ rotr32(w[i - 2], 19) ^
                    (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    uint32_t a = state[0], b = state[1], c = state[2], d = state[3],
             e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      uint32_t s1 = rotr32(e, 6) ^ rotr32(e, 11) ^ rotr32(e, 25);
      uint32_t ch = (e & f) ^ (~e & g);
      uint32_t t1 = h + s1 + ch + kSha256K[i] + w[i];
      uint32_t s0 = rotr32(a, 2) ^ rotr32(a, 13) ^ rotr32(a, 22);
      uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

size_t aes_cbc_sha1_scalar(const uint8_t* round_keys, int rounds,
                           uint8_t* chain, const uint8_t* in, uint8_t* out,
                           size_t n, uint32_t* state, const uint8_t* mac_at) {
  aes_cbc_encrypt_scalar(round_keys, rounds, chain, in, out, n);
  const size_t windows =
      static_cast<size_t>(out + 16 * n - mac_at) / Sha1::kBlockSize;
  sha1_blocks_scalar(state, mac_at, windows);
  return windows;
}

#if defined(__x86_64__)

bool cpu_has_shani() {
  static const bool ok = [] {
    unsigned a, b, c, d;
    if (!__get_cpuid(1, &a, &b, &c, &d)) return false;
    const bool sse41 = (c & bit_SSE4_1) != 0;
    if (!__get_cpuid_count(7, 0, &a, &b, &c, &d)) return false;
    return sse41 && (b & bit_SHA) != 0;
  }();
  return ok;
}

namespace {

// The message words of four-round group G sit in m[G % 4]; the schedule for
// later groups is built in the free registers as the rounds go (Intel SHA
// extensions programming reference, SHA-1 flow).
struct Sha1Regs {
  __m128i abcd, e[2], m[4];
};

template <int G>
__attribute__((target("sha,sse4.1"), always_inline)) inline void sha1_group(
    Sha1Regs& r, const uint8_t* block, __m128i bswap) {
  constexpr int cur = G % 4;
  if constexpr (G < 4) {
    r.m[cur] = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 16 * G)),
        bswap);
  }
  __m128i& e = r.e[G % 2];
  if constexpr (G == 0) {
    e = _mm_add_epi32(e, r.m[0]);
  } else {
    e = _mm_sha1nexte_epu32(e, r.m[cur]);
  }
  r.e[(G + 1) % 2] = r.abcd;
  r.abcd = _mm_sha1rnds4_epu32(r.abcd, e, G / 5);
  if constexpr (G >= 3 && G <= 18) {  // completes the words of group G+1
    r.m[(G + 1) % 4] = _mm_sha1msg2_epu32(r.m[(G + 1) % 4], r.m[cur]);
  }
  if constexpr (G >= 2 && G <= 17) {
    r.m[(G + 2) % 4] = _mm_xor_si128(r.m[(G + 2) % 4], r.m[cur]);
  }
  if constexpr (G >= 1 && G <= 16) {  // starts the words of group G+3
    r.m[(G + 3) % 4] = _mm_sha1msg1_epu32(r.m[(G + 3) % 4], r.m[cur]);
  }
}

// Groups From .. From + sizeof...(G) - 1 of one block.
template <int From, size_t... G>
__attribute__((target("sha,sse4.1"), always_inline)) inline void sha1_groups(
    Sha1Regs& r, const uint8_t* block, __m128i bswap,
    std::index_sequence<G...>) {
  (sha1_group<From + static_cast<int>(G)>(r, block, bswap), ...);
}

// One block, all 20 groups, fed forward into the state.
__attribute__((target("sha,sse4.1"), always_inline)) inline void sha1_block(
    Sha1Regs& r, const uint8_t* block, __m128i bswap) {
  const __m128i abcd_save = r.abcd;
  const __m128i e_save = r.e[0];
  sha1_groups<0>(r, block, bswap, std::make_index_sequence<20>());
  r.e[0] = _mm_sha1nexte_epu32(r.e[0], e_save);
  r.abcd = _mm_add_epi32(r.abcd, abcd_save);
}

inline __m128i sha1_bswap() {
  return _mm_set_epi64x(0x0001020304050607LL, 0x08090a0b0c0d0e0fLL);
}

__attribute__((target("sha,sse4.1"), always_inline)) inline void sha1_load(
    Sha1Regs& r, const uint32_t* state) {
  r.abcd = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0x1B);
  r.e[0] = _mm_set_epi32(static_cast<int>(state[4]), 0, 0, 0);
}

__attribute__((target("sha,sse4.1"), always_inline)) inline void sha1_store(
    const Sha1Regs& r, uint32_t* state) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_shuffle_epi32(r.abcd, 0x1B));
  state[4] = static_cast<uint32_t>(_mm_extract_epi32(r.e[0], 3));
}

// SHA-256 flow: two rounds per sha256rnds2, the words of group G (four
// rounds) in m[G % 4], state held as ABEF/CDGH.
struct Sha256Regs {
  __m128i abef, cdgh, m[4];
};

template <int G>
__attribute__((target("sha,sse4.1"), always_inline)) inline void sha256_group(
    Sha256Regs& r, const uint8_t* block, __m128i bswap) {
  constexpr int cur = G % 4;
  if constexpr (G < 4) {
    r.m[cur] = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 16 * G)),
        bswap);
  }
  __m128i wk = _mm_add_epi32(
      r.m[cur], _mm_load_si128(reinterpret_cast<const __m128i*>(kSha256K) + G));
  r.cdgh = _mm_sha256rnds2_epu32(r.cdgh, r.abef, wk);
  if constexpr (G >= 3 && G <= 14) {  // completes the words of group G+1
    constexpr int next = (G + 1) % 4;
    const __m128i tmp = _mm_alignr_epi8(r.m[cur], r.m[(G + 3) % 4], 4);
    r.m[next] = _mm_sha256msg2_epu32(_mm_add_epi32(r.m[next], tmp), r.m[cur]);
  }
  wk = _mm_shuffle_epi32(wk, 0x0E);
  r.abef = _mm_sha256rnds2_epu32(r.abef, r.cdgh, wk);
  if constexpr (G >= 1 && G <= 12) {  // starts the words of group G+3
    r.m[(G + 3) % 4] = _mm_sha256msg1_epu32(r.m[(G + 3) % 4], r.m[cur]);
  }
}

template <size_t... G>
__attribute__((target("sha,sse4.1"), always_inline)) inline void
sha256_rounds(Sha256Regs& r, const uint8_t* block, __m128i bswap,
              std::index_sequence<G...>) {
  (sha256_group<static_cast<int>(G)>(r, block, bswap), ...);
}

}  // namespace

__attribute__((target("sha,sse4.1"))) void sha1_blocks_shani(
    uint32_t* state, const uint8_t* block, size_t n) {
  const __m128i bswap = sha1_bswap();
  Sha1Regs r;
  sha1_load(r, state);
  for (; n > 0; --n, block += 64) sha1_block(r, block, bswap);
  sha1_store(r, state);
}

namespace {

inline __m128i load128(const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// One CBC block: chain c in, ciphertext out (stored) and returned.
template <int Rounds>
__attribute__((target("aes,sse4.1"), always_inline)) inline __m128i
cbc_block(__m128i c, const __m128i* k, const uint8_t* in, uint8_t* out) {
  __m128i b = _mm_xor_si128(c, _mm_xor_si128(load128(in), k[0]));
#pragma GCC unroll 14
  for (int r = 1; r < Rounds; ++r) b = _mm_aesenc_si128(b, k[r]);
  c = _mm_aesenclast_si128(b, k[Rounds]);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out), c);
  return c;
}

template <int Rounds>
__attribute__((target("aes,sha,sse4.1"))) size_t cbc_sha1_stitched(
    const uint8_t* round_keys, uint8_t* chain, const uint8_t* in,
    uint8_t* out, size_t n, uint32_t* state, const uint8_t* mac_at) {
  __m128i k[Rounds + 1];
  for (int r = 0; r <= Rounds; ++r) k[r] = load128(round_keys + 16 * r);
  __m128i c = load128(chain);
  const __m128i bswap = sha1_bswap();
  Sha1Regs r;
  sha1_load(r, state);
  // The stream bytes in front of block i are lead + 16 i; window w is whole
  // once they reach 64 (w + 1).  lead < 64, so before step j (blocks
  // 4j .. 4j+3) exactly windows 0 .. j-1 are whole: step j hashes j - 1.
  const size_t lead = static_cast<size_t>(out - mac_at);
  const uint8_t* window = mac_at;
  size_t i = 0;
  for (; i + 4 <= n; i += 4, in += 64, out += 64) {
    if (window + 64 > out) {  // the first step: nothing whole yet
      for (int b = 0; b < 4; ++b) {
        c = cbc_block<Rounds>(c, k, in + 16 * b, out + 16 * b);
      }
      continue;
    }
    const __m128i abcd_save = r.abcd;
    const __m128i e_save = r.e[0];
    c = cbc_block<Rounds>(c, k, in, out);
    sha1_groups<0>(r, window, bswap, std::make_index_sequence<5>());
    c = cbc_block<Rounds>(c, k, in + 16, out + 16);
    sha1_groups<5>(r, window, bswap, std::make_index_sequence<5>());
    c = cbc_block<Rounds>(c, k, in + 32, out + 32);
    sha1_groups<10>(r, window, bswap, std::make_index_sequence<5>());
    c = cbc_block<Rounds>(c, k, in + 48, out + 48);
    sha1_groups<15>(r, window, bswap, std::make_index_sequence<5>());
    r.e[0] = _mm_sha1nexte_epu32(r.e[0], e_save);
    r.abcd = _mm_add_epi32(r.abcd, abcd_save);
    window += 64;
  }
  for (; i < n; ++i, in += 16, out += 16) c = cbc_block<Rounds>(c, k, in, out);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(chain), c);
  // The windows the last steps completed.
  const size_t windows = (lead + 16 * n) / 64;
  const uint8_t* end = mac_at + 64 * windows;
  for (; window < end; window += 64) sha1_block(r, window, bswap);
  sha1_store(r, state);
  return windows;
}

}  // namespace

__attribute__((target("aes,sha,sse4.1"))) size_t aes_cbc_sha1_stitched(
    const uint8_t* round_keys, int rounds, uint8_t* chain, const uint8_t* in,
    uint8_t* out, size_t n, uint32_t* state, const uint8_t* mac_at) {
  return rounds == 14 ? cbc_sha1_stitched<14>(round_keys, chain, in, out, n,
                                               state, mac_at)
                      : cbc_sha1_stitched<10>(round_keys, chain, in, out, n,
                                              state, mac_at);
}

__attribute__((target("sha,sse4.1"))) void sha256_blocks_shani(
    uint32_t* state, const uint8_t* block, size_t n) {
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  Sha256Regs r;
  const __m128i dcba = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4)), 0x1B);
  r.abef = _mm_alignr_epi8(dcba, efgh, 8);
  r.cdgh = _mm_blend_epi16(efgh, dcba, 0xF0);
  for (; n > 0; --n, block += 64) {
    const __m128i abef_save = r.abef;
    const __m128i cdgh_save = r.cdgh;
    sha256_rounds(r, block, bswap, std::make_index_sequence<16>());
    r.abef = _mm_add_epi32(r.abef, abef_save);
    r.cdgh = _mm_add_epi32(r.cdgh, cdgh_save);
  }
  const __m128i feba = _mm_shuffle_epi32(r.abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(r.cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}

#else

bool cpu_has_shani() { return false; }

#endif

}  // namespace accel

}  // namespace sgfs::crypto

#include "crypto/aes.hpp"

#include <cstring>
#include <stdexcept>

#include "crypto/accel.hpp"

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace sgfs::crypto {

namespace {

// GF(2^8) helpers (polynomial x^8 + x^4 + x^3 + x + 1).
uint8_t xtime(uint8_t x) {
  return static_cast<uint8_t>((x << 1) ^ ((x >> 7) * 0x1b));
}

uint8_t gmul(uint8_t a, uint8_t b) {
  uint8_t p = 0;
  while (b) {
    if (b & 1) p ^= a;
    a = xtime(a);
    b >>= 1;
  }
  return p;
}

struct Tables {
  uint8_t sbox[256];
  uint8_t inv_sbox[256];
  uint32_t te[4][256];  // encryption T-tables
  uint32_t td[4][256];  // decryption T-tables

  Tables() {
    // Build the S-box from multiplicative inverses + affine transform,
    // using log/antilog tables over generator 3.
    uint8_t log_t[256], alog[256];
    uint8_t p = 1;
    for (int i = 0; i < 255; ++i) {
      alog[i] = p;
      log_t[p] = static_cast<uint8_t>(i);
      p = static_cast<uint8_t>(p ^ xtime(p));  // multiply by 3
    }
    alog[255] = alog[0];
    for (int i = 0; i < 256; ++i) {
      uint8_t inv = i == 0 ? 0 : alog[255 - log_t[i]];
      uint8_t s = inv;
      // Affine transform: s ^= rotl(inv,1..4); s ^= 0x63.
      uint8_t x = inv;
      for (int r = 0; r < 4; ++r) {
        x = static_cast<uint8_t>((x << 1) | (x >> 7));
        s ^= x;
      }
      s ^= 0x63;
      sbox[i] = s;
      inv_sbox[s] = static_cast<uint8_t>(i);
    }
    for (int i = 0; i < 256; ++i) {
      const uint8_t s = sbox[i];
      const uint32_t enc = (static_cast<uint32_t>(gmul(s, 2)) << 24) |
                           (static_cast<uint32_t>(s) << 16) |
                           (static_cast<uint32_t>(s) << 8) |
                           static_cast<uint32_t>(gmul(s, 3));
      te[0][i] = enc;
      te[1][i] = (enc >> 8) | (enc << 24);
      te[2][i] = (enc >> 16) | (enc << 16);
      te[3][i] = (enc >> 24) | (enc << 8);

      const uint8_t si = inv_sbox[i];
      const uint32_t dec = (static_cast<uint32_t>(gmul(si, 14)) << 24) |
                           (static_cast<uint32_t>(gmul(si, 9)) << 16) |
                           (static_cast<uint32_t>(gmul(si, 13)) << 8) |
                           static_cast<uint32_t>(gmul(si, 11));
      td[0][i] = dec;
      td[1][i] = (dec >> 8) | (dec << 24);
      td[2][i] = (dec >> 16) | (dec << 16);
      td[3][i] = (dec >> 24) | (dec << 8);
    }
  }
};

const Tables& tables() {
  static const Tables t;
  return t;
}

uint32_t load_be32(const uint8_t* p) {
  return (static_cast<uint32_t>(p[0]) << 24) |
         (static_cast<uint32_t>(p[1]) << 16) |
         (static_cast<uint32_t>(p[2]) << 8) | static_cast<uint32_t>(p[3]);
}

void store_be32(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v >> 24);
  p[1] = static_cast<uint8_t>(v >> 16);
  p[2] = static_cast<uint8_t>(v >> 8);
  p[3] = static_cast<uint8_t>(v);
}

uint32_t sub_word(uint32_t w) {
  const auto& t = tables();
  return (static_cast<uint32_t>(t.sbox[(w >> 24) & 0xff]) << 24) |
         (static_cast<uint32_t>(t.sbox[(w >> 16) & 0xff]) << 16) |
         (static_cast<uint32_t>(t.sbox[(w >> 8) & 0xff]) << 8) |
         static_cast<uint32_t>(t.sbox[w & 0xff]);
}

uint32_t rot_word(uint32_t w) { return (w << 8) | (w >> 24); }

// InvMixColumns applied to a round-key word (equivalent inverse cipher).
uint32_t inv_mix(uint32_t w) {
  uint8_t b[4] = {static_cast<uint8_t>(w >> 24), static_cast<uint8_t>(w >> 16),
                  static_cast<uint8_t>(w >> 8), static_cast<uint8_t>(w)};
  uint8_t o[4];
  o[0] = gmul(b[0], 14) ^ gmul(b[1], 11) ^ gmul(b[2], 13) ^ gmul(b[3], 9);
  o[1] = gmul(b[0], 9) ^ gmul(b[1], 14) ^ gmul(b[2], 11) ^ gmul(b[3], 13);
  o[2] = gmul(b[0], 13) ^ gmul(b[1], 9) ^ gmul(b[2], 14) ^ gmul(b[3], 11);
  o[3] = gmul(b[0], 11) ^ gmul(b[1], 13) ^ gmul(b[2], 9) ^ gmul(b[3], 14);
  return (static_cast<uint32_t>(o[0]) << 24) |
         (static_cast<uint32_t>(o[1]) << 16) |
         (static_cast<uint32_t>(o[2]) << 8) | static_cast<uint32_t>(o[3]);
}

// T-table rounds over round keys stored as big-endian words.
void encrypt_block_scalar(const uint8_t* rk, int rounds, const uint8_t in[16],
                          uint8_t out[16]) {
  const auto& t = tables();
  uint32_t s0 = load_be32(in) ^ load_be32(rk);
  uint32_t s1 = load_be32(in + 4) ^ load_be32(rk + 4);
  uint32_t s2 = load_be32(in + 8) ^ load_be32(rk + 8);
  uint32_t s3 = load_be32(in + 12) ^ load_be32(rk + 12);
  for (int r = 1; r < rounds; ++r) {
    rk += 16;
    uint32_t t0 = t.te[0][s0 >> 24] ^ t.te[1][(s1 >> 16) & 0xff] ^
                  t.te[2][(s2 >> 8) & 0xff] ^ t.te[3][s3 & 0xff] ^
                  load_be32(rk);
    uint32_t t1 = t.te[0][s1 >> 24] ^ t.te[1][(s2 >> 16) & 0xff] ^
                  t.te[2][(s3 >> 8) & 0xff] ^ t.te[3][s0 & 0xff] ^
                  load_be32(rk + 4);
    uint32_t t2 = t.te[0][s2 >> 24] ^ t.te[1][(s3 >> 16) & 0xff] ^
                  t.te[2][(s0 >> 8) & 0xff] ^ t.te[3][s1 & 0xff] ^
                  load_be32(rk + 8);
    uint32_t t3 = t.te[0][s3 >> 24] ^ t.te[1][(s0 >> 16) & 0xff] ^
                  t.te[2][(s1 >> 8) & 0xff] ^ t.te[3][s2 & 0xff] ^
                  load_be32(rk + 12);
    s0 = t0;
    s1 = t1;
    s2 = t2;
    s3 = t3;
  }
  rk += 16;
  auto final_word = [&](uint32_t a, uint32_t b, uint32_t c, uint32_t d,
                        const uint8_t* k) {
    return ((static_cast<uint32_t>(t.sbox[a >> 24]) << 24) |
            (static_cast<uint32_t>(t.sbox[(b >> 16) & 0xff]) << 16) |
            (static_cast<uint32_t>(t.sbox[(c >> 8) & 0xff]) << 8) |
            static_cast<uint32_t>(t.sbox[d & 0xff])) ^
           load_be32(k);
  };
  store_be32(out, final_word(s0, s1, s2, s3, rk));
  store_be32(out + 4, final_word(s1, s2, s3, s0, rk + 4));
  store_be32(out + 8, final_word(s2, s3, s0, s1, rk + 8));
  store_be32(out + 12, final_word(s3, s0, s1, s2, rk + 12));
}

void decrypt_block_scalar(const uint8_t* rk, int rounds, const uint8_t in[16],
                          uint8_t out[16]) {
  const auto& t = tables();
  uint32_t s0 = load_be32(in) ^ load_be32(rk);
  uint32_t s1 = load_be32(in + 4) ^ load_be32(rk + 4);
  uint32_t s2 = load_be32(in + 8) ^ load_be32(rk + 8);
  uint32_t s3 = load_be32(in + 12) ^ load_be32(rk + 12);
  for (int r = 1; r < rounds; ++r) {
    rk += 16;
    uint32_t t0 = t.td[0][s0 >> 24] ^ t.td[1][(s3 >> 16) & 0xff] ^
                  t.td[2][(s2 >> 8) & 0xff] ^ t.td[3][s1 & 0xff] ^
                  load_be32(rk);
    uint32_t t1 = t.td[0][s1 >> 24] ^ t.td[1][(s0 >> 16) & 0xff] ^
                  t.td[2][(s3 >> 8) & 0xff] ^ t.td[3][s2 & 0xff] ^
                  load_be32(rk + 4);
    uint32_t t2 = t.td[0][s2 >> 24] ^ t.td[1][(s1 >> 16) & 0xff] ^
                  t.td[2][(s0 >> 8) & 0xff] ^ t.td[3][s3 & 0xff] ^
                  load_be32(rk + 8);
    uint32_t t3 = t.td[0][s3 >> 24] ^ t.td[1][(s2 >> 16) & 0xff] ^
                  t.td[2][(s1 >> 8) & 0xff] ^ t.td[3][s0 & 0xff] ^
                  load_be32(rk + 12);
    s0 = t0;
    s1 = t1;
    s2 = t2;
    s3 = t3;
  }
  rk += 16;
  auto final_word = [&](uint32_t a, uint32_t b, uint32_t c, uint32_t d,
                        const uint8_t* k) {
    return ((static_cast<uint32_t>(t.inv_sbox[a >> 24]) << 24) |
            (static_cast<uint32_t>(t.inv_sbox[(b >> 16) & 0xff]) << 16) |
            (static_cast<uint32_t>(t.inv_sbox[(c >> 8) & 0xff]) << 8) |
            static_cast<uint32_t>(t.inv_sbox[d & 0xff])) ^
           load_be32(k);
  };
  store_be32(out, final_word(s0, s3, s2, s1, rk));
  store_be32(out + 4, final_word(s1, s0, s3, s2, rk + 4));
  store_be32(out + 8, final_word(s2, s1, s0, s3, rk + 8));
  store_be32(out + 12, final_word(s3, s2, s1, s0, rk + 12));
}

void xor_block(uint8_t* dst, const uint8_t* a, const uint8_t* b) {
  for (size_t i = 0; i < Aes::kBlockSize; ++i) dst[i] = a[i] ^ b[i];
}

Aes::CbcRun best_encrypt_run() {
#if defined(__x86_64__)
  if (accel::cpu_has_aesni()) return accel::aes_cbc_encrypt_aesni;
#endif
  return accel::aes_cbc_encrypt_scalar;
}

Aes::CbcRun best_decrypt_run() {
#if defined(__x86_64__)
  if (accel::cpu_has_aesni()) return accel::aes_cbc_decrypt_aesni;
#endif
  return accel::aes_cbc_decrypt_scalar;
}

void check_iv(ByteView iv) {
  if (iv.size() != Aes::kBlockSize) {
    throw std::invalid_argument("CBC IV must be 16 bytes");
  }
}

// The stitched record-seal kernel where the CPU has AES-NI and SHA-NI, else
// nullptr: the seal then runs the key's and the hash's kernels in turn.
accel::CbcSha1Run stitched_cbc_sha1() {
#if defined(__x86_64__)
  if (accel::cpu_has_aesni() && accel::cpu_has_shani()) {
    return accel::aes_cbc_sha1_stitched;
  }
#endif
  return nullptr;
}

// CBC-encrypts a plaintext arriving in pieces, PKCS#7-padded, to `out`.
// Whole blocks inside a piece go straight to the kernel; only a block that
// straddles two pieces (and the final padded block) passes through the
// staging block.  After stitch(), every block run also hashes the MAC
// stream's windows through the stitched kernel.
class CbcWriter {
 public:
  CbcWriter(const Aes& aes, ByteView iv, uint8_t* out) : aes_(aes), dst_(out) {
    check_iv(iv);
    std::memcpy(chain_, iv.data(), Aes::kBlockSize);
  }

  /// The MAC stream starts at `mac_at`; a null kernel only records that.
  void stitch(accel::CbcSha1Run kernel, uint32_t* state,
              const uint8_t* mac_at) {
    stitched_ = kernel;
    sha1_state_ = state;
    mac_at_ = mac_at;
  }

  void feed(const uint8_t* p, size_t n) {
    if (n == 0) return;
    if (fill_ > 0) {
      const size_t take = std::min(n, Aes::kBlockSize - fill_);
      std::memcpy(staging_ + fill_, p, take);
      fill_ += take;
      p += take;
      n -= take;
      if (fill_ < Aes::kBlockSize) return;
      run(staging_, 1);
      fill_ = 0;
    }
    run(p, n / Aes::kBlockSize);
    p += n - n % Aes::kBlockSize;
    fill_ = n % Aes::kBlockSize;
    std::memcpy(staging_, p, fill_);
  }

  void finish() {
    const size_t pad = Aes::kBlockSize - fill_;
    std::memset(staging_ + fill_, static_cast<int>(pad), pad);
    run(staging_, 1);
  }

  /// The first MAC stream byte no kernel has hashed yet, and the number of
  /// 64-byte windows hashed before it.
  const uint8_t* mac_at() const { return mac_at_; }
  size_t windows() const { return windows_; }

 private:
  void run(const uint8_t* p, size_t blocks) {
    if (blocks == 0) return;
    if (stitched_) {
      const size_t w =
          stitched_(aes_.encrypt_round_keys(), aes_.rounds(), chain_, p, dst_,
                    blocks, sha1_state_, mac_at_);
      mac_at_ += w * Sha1::kBlockSize;
      windows_ += w;
    } else {
      aes_.cbc_encrypt_run(chain_, p, dst_, blocks);
    }
    dst_ += blocks * Aes::kBlockSize;
  }

  const Aes& aes_;
  uint8_t* dst_;
  uint8_t chain_[Aes::kBlockSize];
  uint8_t staging_[Aes::kBlockSize];
  size_t fill_ = 0;  // plaintext bytes staged for the next block
  accel::CbcSha1Run stitched_ = nullptr;
  uint32_t* sha1_state_ = nullptr;
  const uint8_t* mac_at_ = nullptr;
  size_t windows_ = 0;
};

}  // namespace

Aes::Aes(ByteView key) : Aes(key, best_encrypt_run(), best_decrypt_run()) {}

Aes::Aes(ByteView key, CbcRun encrypt, CbcRun decrypt)
    : encrypt_(encrypt), decrypt_(decrypt) {
  const size_t nk = key.size() / 4;  // key length in words
  if (key.size() != 16 && key.size() != 32) {
    throw std::invalid_argument("AES key must be 16 or 32 bytes");
  }
  rounds_ = static_cast<int>(nk) + 6;  // 10 or 14
  const size_t total = 4 * (rounds_ + 1);
  uint32_t w[kMaxRoundKeyBytes / 4];
  for (size_t i = 0; i < nk; ++i) w[i] = load_be32(key.data() + 4 * i);
  uint32_t rcon = 0x01000000u;
  for (size_t i = nk; i < total; ++i) {
    uint32_t temp = w[i - 1];
    if (i % nk == 0) {
      temp = sub_word(rot_word(temp)) ^ rcon;
      rcon = static_cast<uint32_t>(xtime(static_cast<uint8_t>(rcon >> 24)))
             << 24;
    } else if (nk == 8 && i % nk == 4) {
      temp = sub_word(temp);
    }
    w[i] = w[i - nk] ^ temp;
  }
  // ek_ is the schedule as is; dk_ is the equivalent inverse cipher's:
  // reverse order, InvMixColumns on all but the first and last rounds.
  for (int r = 0; r <= rounds_; ++r) {
    for (int c = 0; c < 4; ++c) {
      const uint32_t word = w[4 * (rounds_ - r) + c];
      store_be32(&ek_[16 * (rounds_ - r) + 4 * c], word);
      store_be32(&dk_[16 * r + 4 * c],
                 (r == 0 || r == rounds_) ? word : inv_mix(word));
    }
  }
}

void Aes::encrypt_block(const uint8_t in[16], uint8_t out[16]) const {
  encrypt_block_scalar(ek_.data(), rounds_, in, out);
}

void Aes::decrypt_block(const uint8_t in[16], uint8_t out[16]) const {
  decrypt_block_scalar(dk_.data(), rounds_, in, out);
}

Buffer aes_cbc_encrypt(const Aes& aes, ByteView iv, ByteView plaintext) {
  Buffer out(cbc_ciphertext_size(plaintext.size()));
  CbcWriter w(aes, iv, out.data());
  w.feed(plaintext.data(), plaintext.size());
  w.finish();
  return out;
}

Buffer aes_cbc_encrypt_chain(const Aes& aes, ByteView iv,
                             const BufChain& plaintext) {
  Buffer out(cbc_ciphertext_size(plaintext.size()));
  CbcWriter w(aes, iv, out.data());
  for (const auto& seg : plaintext.segments()) {
    w.feed(seg.store->data() + seg.offset, seg.len);
  }
  w.finish();
  return out;
}

void cbc_encrypt_then_mac(const Aes& aes, ByteView iv, ByteView head,
                          const BufChain& body, HmacSha1& mac, uint8_t* out,
                          size_t prefix_len) {
  static const accel::CbcSha1Run stitched = stitched_cbc_sha1();
  Sha1& inner = mac.inner();
  CbcWriter w(aes, iv, out);
  uint32_t* state = inner.block_state();
  w.stitch(state ? stitched : nullptr, state, out - prefix_len);
  w.feed(head.data(), head.size());
  for (const auto& seg : body.segments()) {
    w.feed(seg.store->data() + seg.offset, seg.len);
  }
  w.finish();
  // Whatever the kernel left (all of it on the two-pass path) goes through
  // the hash's own update().
  uint8_t* const end = out + cbc_ciphertext_size(head.size() + body.size());
  inner.absorbed(w.windows());
  inner.update(ByteView(w.mac_at(), static_cast<size_t>(end - w.mac_at())));
  const auto tag = mac.finish();
  std::memcpy(end, tag.data(), tag.size());
}

Buffer aes_cbc_decrypt(const Aes& aes, ByteView iv, ByteView ciphertext) {
  check_iv(iv);
  if (ciphertext.empty() || ciphertext.size() % Aes::kBlockSize != 0) {
    throw std::runtime_error("CBC ciphertext not block-aligned");
  }
  Buffer out(ciphertext.size());
  uint8_t chain[Aes::kBlockSize];
  std::memcpy(chain, iv.data(), Aes::kBlockSize);
  aes.cbc_decrypt_run(chain, ciphertext.data(), out.data(),
                      ciphertext.size() / Aes::kBlockSize);
  const uint8_t pad = out.back();
  if (pad == 0 || pad > Aes::kBlockSize || pad > out.size()) {
    throw std::runtime_error("CBC padding corrupt");
  }
  for (size_t i = out.size() - pad; i < out.size(); ++i) {
    if (out[i] != pad) throw std::runtime_error("CBC padding corrupt");
  }
  // erase (never grows) rather than resize: GCC 12 + asan cannot prove the
  // pad guard above keeps resize's grow path dead and trips
  // -Wstringop-overflow on it.
  out.erase(out.end() - pad, out.end());
  return out;
}

// --- kernels -------------------------------------------------------------------

namespace accel {

void aes_cbc_encrypt_scalar(const uint8_t* round_keys, int rounds,
                            uint8_t* chain, const uint8_t* in, uint8_t* out,
                            size_t n) {
  for (; n > 0; --n, in += Aes::kBlockSize, out += Aes::kBlockSize) {
    uint8_t block[Aes::kBlockSize];
    xor_block(block, in, chain);
    encrypt_block_scalar(round_keys, rounds, block, chain);
    std::memcpy(out, chain, Aes::kBlockSize);
  }
}

void aes_cbc_decrypt_scalar(const uint8_t* round_keys, int rounds,
                            uint8_t* chain, const uint8_t* in, uint8_t* out,
                            size_t n) {
  for (; n > 0; --n, in += Aes::kBlockSize, out += Aes::kBlockSize) {
    uint8_t ct[Aes::kBlockSize], block[Aes::kBlockSize];
    std::memcpy(ct, in, Aes::kBlockSize);  // `out` may alias `in`
    decrypt_block_scalar(round_keys, rounds, ct, block);
    xor_block(out, block, chain);
    std::memcpy(chain, ct, Aes::kBlockSize);
  }
}

#if defined(__x86_64__)

bool cpu_has_aesni() {
  static const bool ok = [] {
    unsigned a, b, c, d;
    if (!__get_cpuid(1, &a, &b, &c, &d)) return false;
    return (c & bit_AES) != 0 && (c & bit_SSE4_1) != 0;
  }();
  return ok;
}

namespace {
inline __m128i load128(const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}
inline void store128(uint8_t* p, __m128i v) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
}
}  // namespace

__attribute__((target("aes,sse4.1"))) void aes_cbc_encrypt_aesni(
    const uint8_t* round_keys, int rounds, uint8_t* chain, const uint8_t* in,
    uint8_t* out, size_t n) {
  __m128i k[15];
  for (int r = 0; r <= rounds; ++r) k[r] = load128(round_keys + 16 * r);
  __m128i c = load128(chain);
  // Serial by construction: each block's input depends on the last output.
  for (; n > 0; --n, in += 16, out += 16) {
    __m128i b = _mm_xor_si128(c, _mm_xor_si128(load128(in), k[0]));
    for (int r = 1; r < rounds; ++r) b = _mm_aesenc_si128(b, k[r]);
    c = _mm_aesenclast_si128(b, k[rounds]);
    store128(out, c);
  }
  store128(chain, c);
}

__attribute__((target("aes,sse4.1"))) void aes_cbc_decrypt_aesni(
    const uint8_t* round_keys, int rounds, uint8_t* chain, const uint8_t* in,
    uint8_t* out, size_t n) {
  constexpr size_t kLanes = 8;
  __m128i k[15];
  for (int r = 0; r <= rounds; ++r) k[r] = load128(round_keys + 16 * r);
  __m128i prev = load128(chain);
  // Block decryptions are independent: keep eight in flight.
  for (; n >= kLanes; n -= kLanes, in += 16 * kLanes, out += 16 * kLanes) {
    // Unrolled so the lanes live in registers, not on the stack.
    __m128i c[kLanes], b[kLanes];
#pragma GCC unroll 8
    for (size_t j = 0; j < kLanes; ++j) {
      c[j] = load128(in + 16 * j);
      b[j] = _mm_xor_si128(c[j], k[0]);
    }
    for (int r = 1; r < rounds; ++r) {
#pragma GCC unroll 8
      for (size_t j = 0; j < kLanes; ++j) b[j] = _mm_aesdec_si128(b[j], k[r]);
    }
#pragma GCC unroll 8
    for (size_t j = 0; j < kLanes; ++j) {
      b[j] = _mm_aesdeclast_si128(b[j], k[rounds]);
      store128(out + 16 * j, _mm_xor_si128(b[j], j == 0 ? prev : c[j - 1]));
    }
    prev = c[kLanes - 1];
  }
  for (; n > 0; --n, in += 16, out += 16) {
    const __m128i c = load128(in);
    __m128i b = _mm_xor_si128(c, k[0]);
    for (int r = 1; r < rounds; ++r) b = _mm_aesdec_si128(b, k[r]);
    store128(out, _mm_xor_si128(_mm_aesdeclast_si128(b, k[rounds]), prev));
    prev = c;
  }
  store128(chain, prev);
}

#else

bool cpu_has_aesni() { return false; }

#endif

}  // namespace accel

}  // namespace sgfs::crypto

#include "crypto/bignum.hpp"

#include <algorithm>
#include <array>
#include <iterator>
#include <span>
#include <stdexcept>

#include "crypto/accel.hpp"

namespace sgfs::crypto {

void BigInt::trim() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

BigInt::BigInt(uint64_t v) {
  if (v) limbs_.push_back(static_cast<uint32_t>(v));
  if (v >> 32) limbs_.push_back(static_cast<uint32_t>(v >> 32));
}

BigInt BigInt::from_bytes(ByteView be) {
  BigInt out;
  out.limbs_.assign((be.size() + 3) / 4, 0);
  for (size_t i = 0; i < be.size(); ++i) {
    const size_t pos = be.size() - 1 - i;  // byte significance
    out.limbs_[pos / 4] |= static_cast<uint32_t>(be[i]) << (8 * (pos % 4));
  }
  out.trim();
  return out;
}

Buffer BigInt::to_bytes() const {
  if (is_zero()) return {};
  Buffer out;
  const size_t bytes = (bit_length() + 7) / 8;
  out.reserve(bytes);
  for (size_t i = bytes; i-- > 0;) {
    const size_t limb = i / 4, shift = (i % 4) * 8;
    uint8_t b = limb < limbs_.size()
                    ? static_cast<uint8_t>(limbs_[limb] >> shift)
                    : 0;
    out.push_back(b);
  }
  return out;
}

Buffer BigInt::to_bytes_padded(size_t width) const {
  Buffer raw = to_bytes();
  if (raw.size() > width) throw std::overflow_error("BigInt exceeds width");
  Buffer out(width - raw.size(), 0);
  append(out, raw);
  return out;
}

BigInt BigInt::from_hex(std::string_view hex) {
  std::string padded(hex);
  if (padded.size() % 2) padded.insert(padded.begin(), '0');
  return from_bytes(sgfs::from_hex(padded));
}

std::string BigInt::to_hex() const {
  if (is_zero()) return "0";
  std::string s = sgfs::to_hex(to_bytes());
  size_t nz = s.find_first_not_of('0');
  return s.substr(nz);
}

size_t BigInt::bit_length() const {
  if (limbs_.empty()) return 0;
  uint32_t top = limbs_.back();
  size_t bits = (limbs_.size() - 1) * 32;
  while (top) {
    ++bits;
    top >>= 1;
  }
  return bits;
}

bool BigInt::bit(size_t i) const {
  const size_t limb = i / 32;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 32)) & 1;
}

std::strong_ordering BigInt::operator<=>(const BigInt& other) const {
  if (limbs_.size() != other.limbs_.size()) {
    return limbs_.size() <=> other.limbs_.size();
  }
  for (size_t i = limbs_.size(); i-- > 0;) {
    if (limbs_[i] != other.limbs_[i]) return limbs_[i] <=> other.limbs_[i];
  }
  return std::strong_ordering::equal;
}

BigInt BigInt::operator+(const BigInt& other) const {
  BigInt out;
  const size_t n = std::max(limbs_.size(), other.limbs_.size());
  out.limbs_.resize(n);
  uint64_t carry = 0;
  for (size_t i = 0; i < n; ++i) {
    uint64_t sum = carry;
    if (i < limbs_.size()) sum += limbs_[i];
    if (i < other.limbs_.size()) sum += other.limbs_[i];
    out.limbs_[i] = static_cast<uint32_t>(sum);
    carry = sum >> 32;
  }
  if (carry) out.limbs_.push_back(static_cast<uint32_t>(carry));
  return out;
}

BigInt BigInt::operator-(const BigInt& other) const {
  if (*this < other) throw std::underflow_error("BigInt subtraction");
  BigInt out;
  out.limbs_.resize(limbs_.size());
  int64_t borrow = 0;
  for (size_t i = 0; i < limbs_.size(); ++i) {
    int64_t diff = static_cast<int64_t>(limbs_[i]) - borrow;
    if (i < other.limbs_.size()) diff -= other.limbs_[i];
    if (diff < 0) {
      diff += int64_t{1} << 32;
      borrow = 1;
    } else {
      borrow = 0;
    }
    out.limbs_[i] = static_cast<uint32_t>(diff);
  }
  out.trim();
  return out;
}

BigInt BigInt::operator*(const BigInt& other) const {
  if (is_zero() || other.is_zero()) return {};
  BigInt out;
  out.limbs_.assign(limbs_.size() + other.limbs_.size(), 0);
  for (size_t i = 0; i < limbs_.size(); ++i) {
    uint64_t carry = 0;
    for (size_t j = 0; j < other.limbs_.size(); ++j) {
      uint64_t cur = static_cast<uint64_t>(limbs_[i]) * other.limbs_[j] +
                     out.limbs_[i + j] + carry;
      out.limbs_[i + j] = static_cast<uint32_t>(cur);
      carry = cur >> 32;
    }
    out.limbs_[i + other.limbs_.size()] += static_cast<uint32_t>(carry);
  }
  out.trim();
  return out;
}

BigInt BigInt::operator<<(size_t bits) const {
  if (is_zero()) return {};
  const size_t limb_shift = bits / 32, bit_shift = bits % 32;
  BigInt out;
  out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (size_t i = 0; i < limbs_.size(); ++i) {
    const uint64_t v = static_cast<uint64_t>(limbs_[i]) << bit_shift;
    out.limbs_[i + limb_shift] |= static_cast<uint32_t>(v);
    out.limbs_[i + limb_shift + 1] |= static_cast<uint32_t>(v >> 32);
  }
  out.trim();
  return out;
}

BigInt BigInt::operator>>(size_t bits) const {
  const size_t limb_shift = bits / 32, bit_shift = bits % 32;
  if (limb_shift >= limbs_.size()) return {};
  BigInt out;
  out.limbs_.assign(limbs_.size() - limb_shift, 0);
  for (size_t i = 0; i < out.limbs_.size(); ++i) {
    uint64_t v = limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift && i + limb_shift + 1 < limbs_.size()) {
      v |= static_cast<uint64_t>(limbs_[i + limb_shift + 1])
           << (32 - bit_shift);
    }
    out.limbs_[i] = static_cast<uint32_t>(v);
  }
  out.trim();
  return out;
}

std::pair<BigInt, BigInt> BigInt::divmod(const BigInt& num,
                                         const BigInt& den) {
  if (den.is_zero()) throw std::domain_error("BigInt division by zero");
  if (num < den) return {BigInt{}, num};
  if (den.limbs_.size() == 1) {
    // Short division.
    const uint64_t d = den.limbs_[0];
    BigInt q;
    q.limbs_.resize(num.limbs_.size());
    uint64_t rem = 0;
    for (size_t i = num.limbs_.size(); i-- > 0;) {
      const uint64_t cur = (rem << 32) | num.limbs_[i];
      q.limbs_[i] = static_cast<uint32_t>(cur / d);
      rem = cur % d;
    }
    q.trim();
    return {q, BigInt(rem)};
  }

  // Knuth Algorithm D.  Normalize so the divisor's top limb has its MSB set.
  size_t shift = 0;
  uint32_t top = den.limbs_.back();
  while (!(top & 0x80000000u)) {
    top <<= 1;
    ++shift;
  }
  BigInt u = num << shift;
  const BigInt v = den << shift;
  const size_t n = v.limbs_.size();
  const size_t m = u.limbs_.size() - n;
  u.limbs_.push_back(0);  // u has m+n+1 limbs

  BigInt q;
  q.limbs_.assign(m + 1, 0);
  const uint64_t v_top = v.limbs_[n - 1];
  const uint64_t v_next = v.limbs_[n - 2];

  for (size_t j = m + 1; j-- > 0;) {
    const uint64_t u2 =
        (static_cast<uint64_t>(u.limbs_[j + n]) << 32) | u.limbs_[j + n - 1];
    uint64_t qhat = u2 / v_top;
    uint64_t rhat = u2 % v_top;
    while (qhat >= (uint64_t{1} << 32) ||
           qhat * v_next > ((rhat << 32) | u.limbs_[j + n - 2])) {
      --qhat;
      rhat += v_top;
      if (rhat >= (uint64_t{1} << 32)) break;
    }
    // Multiply-subtract qhat * v from u[j .. j+n].
    int64_t borrow = 0;
    uint64_t carry = 0;
    for (size_t i = 0; i < n; ++i) {
      const uint64_t p = qhat * v.limbs_[i] + carry;
      carry = p >> 32;
      const int64_t sub = static_cast<int64_t>(u.limbs_[i + j]) -
                          static_cast<int64_t>(p & 0xffffffffu) - borrow;
      u.limbs_[i + j] = static_cast<uint32_t>(sub);
      borrow = sub < 0 ? 1 : 0;
    }
    const int64_t sub = static_cast<int64_t>(u.limbs_[j + n]) -
                        static_cast<int64_t>(carry) - borrow;
    u.limbs_[j + n] = static_cast<uint32_t>(sub);

    if (sub < 0) {
      // qhat was one too large: add v back once.
      --qhat;
      uint64_t c = 0;
      for (size_t i = 0; i < n; ++i) {
        const uint64_t s =
            static_cast<uint64_t>(u.limbs_[i + j]) + v.limbs_[i] + c;
        u.limbs_[i + j] = static_cast<uint32_t>(s);
        c = s >> 32;
      }
      u.limbs_[j + n] = static_cast<uint32_t>(u.limbs_[j + n] + c);
    }
    q.limbs_[j] = static_cast<uint32_t>(qhat);
  }
  q.trim();
  u.limbs_.resize(n);
  u.trim();
  return {q, u >> shift};
}

BigInt BigInt::operator/(const BigInt& other) const {
  return divmod(*this, other).first;
}

BigInt BigInt::operator%(const BigInt& other) const {
  return divmod(*this, other).second;
}

BigInt accel::mod_exp_reference(const BigInt& base, const BigInt& exp,
                                const BigInt& m) {
  if (m.is_zero()) throw std::domain_error("mod_exp modulus is zero");
  if (m == BigInt(1)) return {};
  BigInt result(1);
  BigInt b = base % m;
  const size_t bits = exp.bit_length();
  for (size_t i = 0; i < bits; ++i) {
    if (exp.bit(i)) result = (result * b) % m;
    b = (b * b) % m;
  }
  return result;
}

// The Montgomery code works on little-endian 64-bit words; BigInt keeps
// 32-bit limbs.  These are the two crossings.
struct BigIntWords {
  static std::span<const uint32_t> limbs(const BigInt& v) { return v.limbs_; }

  static BigInt from_words(const uint64_t* w, size_t n) {
    BigInt out;
    out.limbs_.resize(2 * n);
    for (size_t i = 0; i < 2 * n; ++i) {
      out.limbs_[i] = static_cast<uint32_t>(w[i / 2] >> (32 * (i % 2)));
    }
    out.trim();
    return out;
  }
};

namespace {

using u128 = unsigned __int128;
using Limbs = std::span<const uint32_t>;

// Words [0, N) of the value whose limbs are v, starting at limb `from`;
// zero past the end.
template <size_t N>
void load(uint64_t* out, Limbs v, size_t from = 0) {
  for (size_t i = 0; i < N; ++i) {
    const size_t k = from + 2 * i;
    const uint64_t lo = k < v.size() ? v[k] : 0;
    const uint64_t hi = k + 1 < v.size() ? v[k + 1] : 0;
    out[i] = lo | hi << 32;
  }
}

// -m0^-1 mod 2^64 for odd m0.  m0 is its own inverse mod 8; each Newton
// step doubles the correct low bits (3, 6, 12, 24, 48, 96).
uint64_t neg_inverse(uint64_t m0) {
  uint64_t inv = m0;
  for (int i = 0; i < 5; ++i) inv *= 2 - m0 * inv;
  return 0 - inv;
}

// The fixed-width kernels.  N is the word count of the size class; every
// loop bound is a constant, so the compiler unrolls them and keeps the
// running row in registers.

// r = (top:t) mod m for a value below 2m: subtract m once if t >= m.
template <size_t N>
void reduce_once(uint64_t* r, const uint64_t* t, uint64_t top,
                 const uint64_t* m) {
  uint64_t d[N] = {};
  uint64_t borrow = 0;
#pragma GCC unroll 8
  for (size_t j = 0; j < N; ++j) {
    const u128 s = static_cast<u128>(t[j]) - m[j] - borrow;
    d[j] = static_cast<uint64_t>(s);
    borrow = static_cast<uint64_t>(s >> 64) & 1;
  }
  const bool keep = top < borrow;  // top:t < m
#pragma GCC unroll 8
  for (size_t j = 0; j < N; ++j) r[j] = keep ? t[j] : d[j];
}

// r = a * b * 2^(-64N) mod m, for a, b < 2^(64N) with a < m or b < m
// (CIOS: each row of the product is reduced in the same pass that forms
// it, so the running value stays below a + m and fits N words and a bit).
// r may alias a or b.
template <size_t N>
void mont_mul(uint64_t* r, const uint64_t* a, const uint64_t* b,
              const uint64_t* m, uint64_t minv) {
  uint64_t t[N + 1] = {};
#pragma GCC unroll 8
  for (size_t i = 0; i < N; ++i) {
    const uint64_t bi = b[i];
    // t + a * bi, then + q * m with q chosen so the low word cancels; the
    // sum is shifted down one word as it is formed.
    u128 s = static_cast<u128>(a[0]) * bi + t[0];
    uint64_t c = static_cast<uint64_t>(s >> 64);
    const uint64_t q = static_cast<uint64_t>(s) * minv;
    u128 u = static_cast<u128>(q) * m[0] + static_cast<uint64_t>(s);
    uint64_t cu = static_cast<uint64_t>(u >> 64);
#pragma GCC unroll 8
    for (size_t j = 1; j < N; ++j) {
      s = static_cast<u128>(a[j]) * bi + t[j] + c;
      c = static_cast<uint64_t>(s >> 64);
      u = static_cast<u128>(q) * m[j] + static_cast<uint64_t>(s) + cu;
      cu = static_cast<uint64_t>(u >> 64);
      t[j - 1] = static_cast<uint64_t>(u);
    }
    s = static_cast<u128>(t[N]) + c + cu;
    t[N - 1] = static_cast<uint64_t>(s);
    t[N] = static_cast<uint64_t>(s >> 64);
  }
  reduce_once<N>(r, t, t[N], m);
}

// r = a * a * 2^(-64N) mod m for a < m: the square with each cross product
// formed once and doubled, then N word-by-word reduction rounds.  r may
// alias a.
template <size_t N>
void mont_sqr(uint64_t* r, const uint64_t* a, const uint64_t* m,
              uint64_t minv) {
  uint64_t t[2 * N] = {};
#pragma GCC unroll 8
  for (size_t i = 0; i + 1 < N; ++i) {
    uint64_t c = 0;
#pragma GCC unroll 8
    for (size_t j = i + 1; j < N; ++j) {
      const u128 s = static_cast<u128>(a[i]) * a[j] + t[i + j] + c;
      t[i + j] = static_cast<uint64_t>(s);
      c = static_cast<uint64_t>(s >> 64);
    }
    t[i + N] = c;
  }
#pragma GCC unroll 16
  for (size_t k = 2 * N - 1; k > 0; --k) {
    t[k] = (t[k] << 1) | (t[k - 1] >> 63);
  }
  t[0] <<= 1;
  uint64_t c = 0;
#pragma GCC unroll 8
  for (size_t i = 0; i < N; ++i) {
    u128 s = static_cast<u128>(a[i]) * a[i] + t[2 * i] + c;
    t[2 * i] = static_cast<uint64_t>(s);
    s = static_cast<u128>(t[2 * i + 1]) + static_cast<uint64_t>(s >> 64);
    t[2 * i + 1] = static_cast<uint64_t>(s);
    c = static_cast<uint64_t>(s >> 64);
  }

  // Each round cancels the lowest live word; `top` is the carry past t's
  // last word.
  uint64_t top = 0;
#pragma GCC unroll 8
  for (size_t i = 0; i < N; ++i) {
    const uint64_t q = t[i] * minv;
    c = 0;
#pragma GCC unroll 8
    for (size_t j = 0; j < N; ++j) {
      const u128 s = static_cast<u128>(q) * m[j] + t[i + j] + c;
      t[i + j] = static_cast<uint64_t>(s);
      c = static_cast<uint64_t>(s >> 64);
    }
    const u128 s = static_cast<u128>(t[i + N]) + c + top;
    t[i + N] = static_cast<uint64_t>(s);
    top = static_cast<uint64_t>(s >> 64);
  }
  reduce_once<N>(r, t + N, top, m);
}

// r = a + b mod m for a, b < m.
template <size_t N>
void add_mod(uint64_t* r, const uint64_t* a, const uint64_t* b,
             const uint64_t* m) {
  uint64_t t[N] = {};
  uint64_t c = 0;
#pragma GCC unroll 8
  for (size_t j = 0; j < N; ++j) {
    const u128 s = static_cast<u128>(a[j]) + b[j] + c;
    t[j] = static_cast<uint64_t>(s);
    c = static_cast<uint64_t>(s >> 64);
  }
  reduce_once<N>(r, t, c, m);
}

// r = a - b mod m for a, b < m.
template <size_t N>
void sub_mod(uint64_t* r, const uint64_t* a, const uint64_t* b,
             const uint64_t* m) {
  uint64_t borrow = 0;
#pragma GCC unroll 8
  for (size_t j = 0; j < N; ++j) {
    const u128 s = static_cast<u128>(a[j]) - b[j] - borrow;
    r[j] = static_cast<uint64_t>(s);
    borrow = static_cast<uint64_t>(s >> 64) & 1;
  }
  const uint64_t mask = 0 - borrow;  // add m back if a < b
  uint64_t c = 0;
#pragma GCC unroll 8
  for (size_t j = 0; j < N; ++j) {
    const u128 s = static_cast<u128>(r[j]) + (m[j] & mask) + c;
    r[j] = static_cast<uint64_t>(s);
    c = static_cast<uint64_t>(s >> 64);
  }
}

// r = a * b + c, 2N words.
template <size_t N>
void mul_add(uint64_t* r, const uint64_t* a, const uint64_t* b,
             const uint64_t* c) {
  std::copy_n(c, N, r);
  std::fill_n(r + N, N, 0);
  for (size_t i = 0; i < N; ++i) {
    uint64_t carry = 0;
#pragma GCC unroll 8
    for (size_t j = 0; j < N; ++j) {
      const u128 s = static_cast<u128>(a[j]) * b[i] + r[i + j] + carry;
      r[i + j] = static_cast<uint64_t>(s);
      carry = static_cast<uint64_t>(s >> 64);
    }
    r[i + N] = carry;
  }
}

// Exponent bits [lo, lo + w) as an integer, for lo below the bit length.
uint32_t exp_window(Limbs e, size_t lo, size_t w) {
  const size_t i = lo / 32, shift = lo % 32;
  uint64_t v = e[i] >> shift;
  if (shift + w > 32 && i + 1 < e.size()) {
    v |= static_cast<uint64_t>(e[i + 1]) << (32 - shift);
  }
  return static_cast<uint32_t>(v) & ((1u << w) - 1);
}

// Arithmetic modulo one odd m > 1 of at most N words, R = 2^(64N).
// Values are N-word arrays below m; the Montgomery form of x is x R mod m.
// A modulus shorter than N words is padded with zero words: the products
// only need m < R.
template <size_t N>
class Montgomery {
 public:
  using Elem = std::array<uint64_t, N>;

  explicit Montgomery(const BigInt& m) {
    load<N>(m_.data(), BigIntWords::limbs(m));
    minv_ = neg_inverse(m_[0]);
    // R mod m without a division: 2^(b-1) < m for the modulus's bit length
    // b, doubled mod m up to 2^(64N).  Then R^2 mod m from 2R by squaring:
    // the Montgomery square of 2^k R is 2^(2k) R.
    const size_t b = m.bit_length();
    one_[(b - 1) / 64] = uint64_t{1} << ((b - 1) % 64);
    for (size_t i = b - 1; i < 64 * N; ++i) one_ = twice(one_);
    r2_ = twice(one_);
    for (size_t k = 1; k < 64 * N; k *= 2) r2_ = sqr(r2_);
  }

  const Elem& modulus() const { return m_; }
  const Elem& one() const { return one_; }  // 1 in Montgomery form
  Elem minus_one() const { return sub(Elem{}, one_); }

  Elem mul(const Elem& a, const Elem& b) const {
    Elem r{};
    mont_mul<N>(r.data(), a.data(), b.data(), m_.data(), minv_);
    return r;
  }
  Elem sqr(const Elem& a) const {
    Elem r{};
    mont_sqr<N>(r.data(), a.data(), m_.data(), minv_);
    return r;
  }
  Elem add(const Elem& a, const Elem& b) const {
    Elem r{};
    add_mod<N>(r.data(), a.data(), b.data(), m_.data());
    return r;
  }
  Elem sub(const Elem& a, const Elem& b) const {
    Elem r{};
    sub_mod<N>(r.data(), a.data(), b.data(), m_.data());
    return r;
  }

  // x R mod m for any x below R (the product with R^2 needs only one
  // factor below m).
  Elem to_mont(const Elem& x) const { return mul(x, r2_); }

  // x R mod m for x of any length: Horner over N-word chunks from the top,
  // acc R + c R for each lower chunk c.
  Elem to_mont(const BigInt& x) const {
    const Limbs v = BigIntWords::limbs(x);
    size_t chunk = (v.size() + 2 * N - 1) / (2 * N);
    if (chunk == 0) return Elem{};
    Elem c{};
    load<N>(c.data(), v, 2 * N * --chunk);
    Elem acc = to_mont(c);
    while (chunk-- > 0) {
      load<N>(c.data(), v, 2 * N * chunk);
      acc = add(to_mont(acc), to_mont(c));
    }
    return acc;
  }

  Elem from_mont(const Elem& a) const {
    Elem plain_one{};
    plain_one[0] = 1;
    return mul(a, plain_one);
  }

  // base^exp, both sides in Montgomery form, by sliding windows from the
  // top: 5 bits wide for exponents over 256 bits, 4 over 64, otherwise 1
  // (so e = 65537 is plain left-to-right binary).  A window starts and
  // ends on a set bit, so its digit is odd and the table holds only odd
  // powers.
  Elem pow(const Elem& base, const BigInt& exp) const {
    const size_t bits = exp.bit_length();
    if (bits == 0) return one_;
    const Limbs e = BigIntWords::limbs(exp);
    const size_t w = bits > 256 ? 5 : bits > 64 ? 4 : 1;
    Elem table[16] = {};  // entry k holds base^(2k + 1)
    table[0] = base;
    if (w > 1) {
      const Elem square = sqr(base);
      for (size_t k = 1; k < (size_t{1} << (w - 1)); ++k) {
        table[k] = mul(table[k - 1], square);
      }
    }
    // The window whose top bit is bit top - 1 (set) reaches down to the
    // lowest set bit at most w - 1 below it; returns its table index.
    auto window = [&](size_t top, size_t& lo) {
      lo = top > w ? top - w : 0;
      while (exp_window(e, lo, 1) == 0) ++lo;
      return exp_window(e, lo, top - lo) >> 1;
    };
    size_t top;  // exponent bits [0, top) are still to come
    Elem acc = table[window(bits, top)];
    while (top > 0) {
      if (exp_window(e, top - 1, 1) == 0) {
        acc = sqr(acc);
        --top;
        continue;
      }
      size_t lo;
      const uint32_t k = window(top, lo);
      for (; top > lo; --top) acc = sqr(acc);
      acc = mul(acc, table[k]);
    }
    return acc;
  }

 private:
  Elem twice(const Elem& a) const {  // 2a mod m
    Elem t{};
#pragma GCC unroll 8
    for (size_t j = N - 1; j > 0; --j) t[j] = (a[j] << 1) | (a[j - 1] >> 63);
    t[0] = a[0] << 1;
    Elem r{};
    reduce_once<N>(r.data(), t.data(), a[N - 1] >> 63, m_.data());
    return r;
  }

  Elem m_{};
  uint64_t minv_ = 0;
  Elem one_{};  // R mod m
  Elem r2_{};   // R^2 mod m
};

template <size_t N>
struct Width {};

// Calls f(Width<N>{}) for the smallest size class holding m: 4 words (the
// 256-bit primes and CRT halves, and every shorter modulus), 8 (512-bit
// moduli), 16 or 32.  False, without calling f, for a wider m.
template <typename F>
bool with_width(const BigInt& m, F&& f) {
  const size_t words = (m.bit_length() + 63) / 64;
  if (words <= 4) {
    f(Width<4>{});
  } else if (words <= 8) {
    f(Width<8>{});
  } else if (words <= 16) {
    f(Width<16>{});
  } else if (words <= 32) {
    f(Width<32>{});
  } else {
    return false;
  }
  return true;
}

// Miller–Rabin over odd n > 113 with n - 1 = d 2^r.  Each round draws its
// witness as 2 + random_below(n - 4) and checks it in F's arithmetic mod n.
template <typename F>
bool miller_rabin(const F& f, const BigInt& n, const BigInt& d, size_t r,
                  Rng& rng, int rounds) {
  const BigInt bound = n - BigInt(4);
  const auto one = f.one();
  const auto minus_one = f.minus_one();
  for (int round = 0; round < rounds; ++round) {
    auto x = f.pow(f.to_mont(BigInt(2) + BigInt::random_below(rng, bound)), d);
    if (x == one || x == minus_one) continue;
    bool composite = true;
    for (size_t i = 0; i + 1 < r; ++i) {
      x = f.sqr(x);
      if (x == minus_one) {
        composite = false;
        break;
      }
    }
    if (composite) return false;
  }
  return true;
}

// Miller–Rabin's arithmetic for n wider than the largest size class: plain
// residues and the reference exponentiation.
struct ReferenceField {
  const BigInt& n;

  BigInt one() const { return BigInt(1); }
  BigInt minus_one() const { return n - BigInt(1); }
  BigInt to_mont(const BigInt& x) const { return x; }  // x < n
  BigInt pow(const BigInt& x, const BigInt& e) const {
    return accel::mod_exp_reference(x, e, n);
  }
  BigInt sqr(const BigInt& x) const { return (x * x) % n; }
};

// The odd primes below 114.  Trial division rejects a candidate one of
// them divides before any Miller–Rabin round draws a witness.
constexpr uint32_t kOddSmallPrimes[] = {
    3,  5,  7,  11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,  53,
    59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113};
constexpr uint32_t kLargestSmallPrime = std::end(kOddSmallPrimes)[-1];

// v mod d for d < 2^32: one 64-by-32-bit step per limb.
uint32_t rem_small(Limbs v, uint32_t d) {
  uint64_t r = 0;
  for (size_t i = v.size(); i-- > 0;) r = ((r << 32) | v[i]) % d;
  return static_cast<uint32_t>(r);
}

bool has_small_factor(Limbs v) {
  // Runs of consecutive primes whose product fits 32 bits share one
  // remainder pass over v.
  constexpr size_t kCount = std::size(kOddSmallPrimes);
  for (size_t i = 0; i < kCount;) {
    uint64_t product = kOddSmallPrimes[i];
    size_t end = i + 1;
    while (end < kCount && product * kOddSmallPrimes[end] >> 32 == 0) {
      product *= kOddSmallPrimes[end++];
    }
    const uint32_t r = rem_small(v, static_cast<uint32_t>(product));
    for (; i < end; ++i) {
      if (r % kOddSmallPrimes[i] == 0) return true;
    }
  }
  return false;
}

}  // namespace

BigInt BigInt::mod_exp(const BigInt& base, const BigInt& exp,
                       const BigInt& m) {
  if (!m.is_odd()) return accel::mod_exp_reference(base, exp, m);
  if (m == BigInt(1)) return {};
  BigInt out;
  const bool fixed = with_width(m, [&]<size_t N>(Width<N>) {
    const Montgomery<N> mont(m);
    const auto r = mont.from_mont(mont.pow(mont.to_mont(base), exp));
    out = BigIntWords::from_words(r.data(), N);
  });
  return fixed ? out : accel::mod_exp_reference(base, exp, m);
}

BigInt BigInt::mod_exp_crt(const BigInt& x, const BigInt& p,
                           const BigInt& q, const BigInt& dp,
                           const BigInt& dq, const BigInt& qinv) {
  BigInt out;
  const BigInt one(1);
  const bool fixed = p.is_odd() && q.is_odd() && p != one && q != one &&
                     with_width(p < q ? q : p, [&]<size_t N>(Width<N>) {
    const Montgomery<N> mp(p), mq(q);
    const auto m2 = mq.from_mont(mq.pow(mq.to_mont(x), dq));
    // m1 - m2 and its product with qinv in Montgomery form mod p; h is
    // that product's plain value.
    const auto diff = mp.sub(mp.pow(mp.to_mont(x), dp), mp.to_mont(m2));
    const auto h = mp.from_mont(mp.mul(diff, mp.to_mont(qinv)));
    uint64_t r[2 * N] = {};
    mul_add<N>(r, mq.modulus().data(), h.data(), m2.data());
    out = BigIntWords::from_words(r, 2 * N);
  });
  if (fixed) return out;
  // Even or unit factors, or halves wider than the largest size class.
  const BigInt m1 = mod_exp(x, dp, p);
  const BigInt m2 = mod_exp(x, dq, q);
  return m2 + q * ((qinv * (m1 + p - m2 % p)) % p);
}

BigInt BigInt::gcd(BigInt a, BigInt b) {
  while (!b.is_zero()) {
    BigInt r = a % b;
    a = std::move(b);
    b = std::move(r);
  }
  return a;
}

BigInt BigInt::mod_inverse(const BigInt& a, const BigInt& m) {
  // Iterative extended Euclid with explicit signs for the t coefficients.
  BigInt r0 = m, r1 = a % m;
  BigInt t0, t1(1);
  bool t0_neg = false, t1_neg = false;
  while (!r1.is_zero()) {
    auto [q, r2] = divmod(r0, r1);
    // t2 = t0 - q * t1 (signed arithmetic on unsigned magnitudes).
    BigInt qt = q * t1;
    BigInt t2;
    bool t2_neg;
    if (t0_neg == t1_neg) {
      if (t0 >= qt) {
        t2 = t0 - qt;
        t2_neg = t0_neg;
      } else {
        t2 = qt - t0;
        t2_neg = !t0_neg;
      }
    } else {
      t2 = t0 + qt;
      t2_neg = t0_neg;
    }
    r0 = std::move(r1);
    r1 = std::move(r2);
    t0 = std::move(t1);
    t0_neg = t1_neg;
    t1 = std::move(t2);
    t1_neg = t2_neg;
  }
  if (r0 != BigInt(1)) throw std::domain_error("mod_inverse: not coprime");
  if (t0_neg) return m - (t0 % m);
  return t0 % m;
}

BigInt BigInt::random_bits(Rng& rng, size_t bits) {
  if (bits == 0) return {};
  const size_t bytes = (bits + 7) / 8;
  Buffer raw = rng.bytes(bytes);
  // Clear excess bits, then force the MSB so the value has exactly `bits`.
  const size_t excess = bytes * 8 - bits;
  raw[0] &= static_cast<uint8_t>(0xff >> excess);
  raw[0] |= static_cast<uint8_t>(0x80 >> excess);
  return from_bytes(raw);
}

BigInt BigInt::random_below(Rng& rng, const BigInt& bound) {
  if (bound.is_zero()) throw std::domain_error("random_below zero bound");
  const size_t bits = bound.bit_length();
  for (;;) {
    const size_t bytes = (bits + 7) / 8;
    Buffer raw = rng.bytes(bytes);
    raw[0] &= static_cast<uint8_t>(0xff >> (bytes * 8 - bits));
    BigInt v = from_bytes(raw);
    if (v < bound) return v;
  }
}

bool BigInt::is_probable_prime(Rng& rng, int rounds) const {
  if (*this < BigInt(2)) return false;
  if (limbs_.size() == 1 && limbs_[0] <= kLargestSmallPrime) {
    return limbs_[0] == 2 ||
           std::ranges::find(kOddSmallPrimes, limbs_[0]) !=
               std::end(kOddSmallPrimes);
  }
  if (!is_odd() || has_small_factor(limbs_)) return false;
  // Write n-1 = d * 2^r.
  BigInt d = *this - BigInt(1);
  size_t r = 0;
  while (!d.is_odd()) {
    d = d >> 1;
    ++r;
  }
  bool prime = false;
  if (!with_width(*this, [&]<size_t N>(Width<N>) {
        prime = miller_rabin(Montgomery<N>(*this), *this, d, r, rng, rounds);
      })) {
    prime = miller_rabin(ReferenceField{*this}, *this, d, r, rng, rounds);
  }
  return prime;
}

BigInt BigInt::generate_prime(Rng& rng, size_t bits) {
  if (bits < 8) throw std::invalid_argument("prime too small");
  for (;;) {
    BigInt candidate = random_bits(rng, bits);
    if (!candidate.is_odd()) candidate = candidate + BigInt(1);
    if (candidate.is_probable_prime(rng)) return candidate;
  }
}

}  // namespace sgfs::crypto

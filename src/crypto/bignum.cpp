#include "crypto/bignum.hpp"

#include <algorithm>
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

namespace {

using u128 = unsigned __int128;

// -m0^-1 mod 2^64 for odd m0.  m0 is its own inverse mod 8; each Newton
// step doubles the correct low bits (3, 6, 12, 24, 48, 96).
uint64_t neg_inverse(uint64_t m0) {
  uint64_t inv = m0;
  for (int i = 0; i < 5; ++i) inv *= 2 - m0 * inv;
  return 0 - inv;
}

// r = (top:t) mod m for a value below 2m: subtract m once if t >= m.
void reduce_once(uint64_t* r, const uint64_t* t, uint64_t top,
                 const uint64_t* m, size_t n) {
  bool ge = top != 0;
  if (!ge) {
    ge = true;
    for (size_t j = n; j-- > 0;) {
      if (t[j] != m[j]) {
        ge = t[j] > m[j];
        break;
      }
    }
  }
  if (!ge) {
    std::copy(t, t + n, r);
    return;
  }
  uint64_t borrow = 0;
  for (size_t j = 0; j < n; ++j) {
    const u128 d = static_cast<u128>(t[j]) - m[j] - borrow;
    r[j] = static_cast<uint64_t>(d);
    borrow = static_cast<uint64_t>(d >> 64) & 1;
  }
}

// r = a * b * 2^(-64n) mod m for a, b < m (CIOS: each row of the product
// is reduced as it is formed).  t is n + 2 words of scratch; r may alias a
// or b.
void mont_mul(uint64_t* r, const uint64_t* a, const uint64_t* b,
              const uint64_t* m, uint64_t minv, size_t n, uint64_t* t) {
  std::fill(t, t + n + 2, 0);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t bi = b[i];
    uint64_t c = 0;
    for (size_t j = 0; j < n; ++j) {
      const u128 s = static_cast<u128>(a[j]) * bi + t[j] + c;
      t[j] = static_cast<uint64_t>(s);
      c = static_cast<uint64_t>(s >> 64);
    }
    u128 s = static_cast<u128>(t[n]) + c;
    t[n] = static_cast<uint64_t>(s);
    t[n + 1] = static_cast<uint64_t>(s >> 64);

    // Add q*m with q chosen so the low word cancels, then drop that word.
    const uint64_t q = t[0] * minv;
    s = static_cast<u128>(q) * m[0] + t[0];
    c = static_cast<uint64_t>(s >> 64);
    for (size_t j = 1; j < n; ++j) {
      s = static_cast<u128>(q) * m[j] + t[j] + c;
      t[j - 1] = static_cast<uint64_t>(s);
      c = static_cast<uint64_t>(s >> 64);
    }
    s = static_cast<u128>(t[n]) + c;
    t[n - 1] = static_cast<uint64_t>(s);
    t[n] = t[n + 1] + static_cast<uint64_t>(s >> 64);
  }
  reduce_once(r, t, t[n], m, n);
}

// r = a * a * 2^(-64n) mod m for a < m: the square with each cross product
// formed once and doubled, then n word-by-word reduction rounds.  t is 2n
// words of scratch; r may alias a.
void mont_sqr(uint64_t* r, const uint64_t* a, const uint64_t* m,
              uint64_t minv, size_t n, uint64_t* t) {
  std::fill(t, t + 2 * n, 0);
  for (size_t i = 0; i + 1 < n; ++i) {
    uint64_t c = 0;
    for (size_t j = i + 1; j < n; ++j) {
      const u128 s = static_cast<u128>(a[i]) * a[j] + t[i + j] + c;
      t[i + j] = static_cast<uint64_t>(s);
      c = static_cast<uint64_t>(s >> 64);
    }
    t[i + n] = c;
  }
  for (size_t k = 2 * n; k-- > 1;) t[k] = (t[k] << 1) | (t[k - 1] >> 63);
  t[0] <<= 1;
  uint64_t c = 0;
  for (size_t i = 0; i < n; ++i) {
    u128 s = static_cast<u128>(a[i]) * a[i] + t[2 * i] + c;
    t[2 * i] = static_cast<uint64_t>(s);
    s = static_cast<u128>(t[2 * i + 1]) + static_cast<uint64_t>(s >> 64);
    t[2 * i + 1] = static_cast<uint64_t>(s);
    c = static_cast<uint64_t>(s >> 64);
  }

  // Each round cancels the lowest live word; `top` is the carry past t's
  // last word.
  uint64_t top = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t q = t[i] * minv;
    c = 0;
    for (size_t j = 0; j < n; ++j) {
      const u128 s = static_cast<u128>(q) * m[j] + t[i + j] + c;
      t[i + j] = static_cast<uint64_t>(s);
      c = static_cast<uint64_t>(s >> 64);
    }
    const u128 s = static_cast<u128>(t[i + n]) + c + top;
    t[i + n] = static_cast<uint64_t>(s);
    top = static_cast<uint64_t>(s >> 64);
  }
  reduce_once(r, t + n, top, m, n);
}

// Exponent bits [lo, lo + w) as an integer.
uint32_t exp_window(const BigInt& exp, size_t lo, size_t w) {
  uint32_t d = 0;
  for (size_t i = w; i-- > 0;) d = (d << 1) | (exp.bit(lo + i) ? 1 : 0);
  return d;
}

}  // namespace

BigInt BigInt::mod_exp(const BigInt& base, const BigInt& exp,
                       const BigInt& m) {
  if (!m.is_odd()) return accel::mod_exp_reference(base, exp, m);
  if (m == BigInt(1)) return {};
  const size_t bits = exp.bit_length();
  if (bits == 0) return BigInt(1);

  // Window width: 5 bits for private exponents, 1 (plain left-to-right
  // binary) for short public ones such as 65537.
  const size_t w = bits > 256 ? 5 : bits > 64 ? 4 : 1;
  const size_t n = (m.limbs_.size() + 1) / 2;
  const size_t entries = size_t{1} << w;

  // One allocation per call: modulus, accumulator, the plain 1 the exit
  // product multiplies by, the window table (entry k holds base^k in
  // Montgomery form; entry 0 is unused) and 2n + 2 words of scratch.
  std::vector<uint64_t> words(n * (5 + entries) + 2, 0);
  uint64_t* mw = words.data();
  uint64_t* acc = mw + n;
  uint64_t* one = acc + n;
  uint64_t* table = one + n;
  uint64_t* t = table + n * entries;
  auto load = [](const BigInt& v, uint64_t* out) {  // v < m: fits n words
    for (size_t i = 0; i < v.limbs_.size(); ++i) {
      out[i / 2] |= static_cast<uint64_t>(v.limbs_[i]) << (32 * (i % 2));
    }
  };
  load(m, mw);
  one[0] = 1;
  const uint64_t minv = neg_inverse(mw[0]);
  auto mul = [&](uint64_t* r, const uint64_t* a, const uint64_t* b) {
    mont_mul(r, a, b, mw, minv, n, t);
  };

  // Enter Montgomery form once: base * 2^(64n) mod m.
  load(divmod(base << (64 * n), m).second, table + n);
  for (size_t k = 2; k < entries; ++k) {
    mul(table + k * n, table + (k - 1) * n, table + n);
  }

  // Fixed windows from the top; the top window holds the exponent's MSB,
  // so its digit is non-zero.
  size_t j = (bits - 1) / w;
  std::copy_n(table + exp_window(exp, j * w, w) * n, n, acc);
  while (j-- > 0) {
    for (size_t s = 0; s < w; ++s) mont_sqr(acc, acc, mw, minv, n, t);
    if (const uint32_t d = exp_window(exp, j * w, w)) {
      mul(acc, acc, table + d * n);
    }
  }
  mul(acc, acc, one);  // leave Montgomery form

  BigInt out;
  out.limbs_.resize(2 * n);
  for (size_t i = 0; i < 2 * n; ++i) {
    out.limbs_[i] = static_cast<uint32_t>(acc[i / 2] >> (32 * (i % 2)));
  }
  out.trim();
  return out;
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
  static const uint32_t kSmallPrimes[] = {
      2,  3,  5,  7,  11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
      59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113};
  if (*this < BigInt(2)) return false;
  for (uint32_t p : kSmallPrimes) {
    BigInt bp(p);
    if (*this == bp) return true;
    if ((*this % bp).is_zero()) return false;
  }
  // Write n-1 = d * 2^r.
  const BigInt n_minus_1 = *this - BigInt(1);
  BigInt d = n_minus_1;
  size_t r = 0;
  while (!d.is_odd()) {
    d = d >> 1;
    ++r;
  }
  for (int round = 0; round < rounds; ++round) {
    const BigInt a =
        BigInt(2) + random_below(rng, *this - BigInt(4));  // [2, n-2]
    BigInt x = mod_exp(a, d, *this);
    if (x == BigInt(1) || x == n_minus_1) continue;
    bool composite = true;
    for (size_t i = 0; i + 1 < r; ++i) {
      x = (x * x) % *this;
      if (x == n_minus_1) {
        composite = false;
        break;
      }
    }
    if (composite) return false;
  }
  return true;
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

// Arbitrary-precision unsigned integers for the RSA/PKI substrate.
//
// Just enough big-number arithmetic for certificate signing and the
// SecureChannel key exchange: schoolbook multiply, Knuth Algorithm D
// division, modular exponentiation on fixed-width Montgomery kernels (with
// a CRT form for RSA private keys), extended Euclid, and Miller–Rabin
// prime generation.  All randomness flows through the deterministic
// sgfs::Rng so tests and simulations reproduce exactly.
#pragma once

#include <compare>
#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"

namespace sgfs::crypto {

class BigInt {
 public:
  BigInt() = default;
  BigInt(uint64_t v);  // NOLINT(google-explicit-constructor): numeric literal

  /// Big-endian byte import/export (leading zeros stripped).
  static BigInt from_bytes(ByteView be);
  Buffer to_bytes() const;
  /// Fixed-width big-endian export (left-padded with zeros); throws if the
  /// value does not fit.
  Buffer to_bytes_padded(size_t width) const;

  static BigInt from_hex(std::string_view hex);
  std::string to_hex() const;

  bool is_zero() const { return limbs_.empty(); }
  bool is_odd() const { return !limbs_.empty() && (limbs_[0] & 1); }
  size_t bit_length() const;
  bool bit(size_t i) const;

  std::strong_ordering operator<=>(const BigInt& other) const;
  bool operator==(const BigInt& other) const = default;

  BigInt operator+(const BigInt& other) const;
  /// Subtraction; throws std::underflow_error if other > *this.
  BigInt operator-(const BigInt& other) const;
  BigInt operator*(const BigInt& other) const;
  BigInt operator/(const BigInt& other) const;
  BigInt operator%(const BigInt& other) const;
  BigInt operator<<(size_t bits) const;
  BigInt operator>>(size_t bits) const;

  /// Quotient and remainder in one pass; divisor must be non-zero.
  static std::pair<BigInt, BigInt> divmod(const BigInt& num,
                                          const BigInt& den);

  /// (base ^ exp) mod m; m must be non-zero.  Odd moduli of up to 2048
  /// bits run fixed-width Montgomery products over sliding exponent
  /// windows; even moduli and wider odd ones take the square-and-multiply
  /// reference (crypto/accel.hpp).
  static BigInt mod_exp(const BigInt& base, const BigInt& exp,
                        const BigInt& m);

  /// x ^ d mod pq from the CRT factors (dp = d mod p-1, dq = d mod q-1,
  /// qinv = q^-1 mod p): two half-size exponentiations and Garner's
  /// recombination m2 + q * (qinv * (m1 - m2) mod p), in Montgomery form
  /// until the last product.
  static BigInt mod_exp_crt(const BigInt& x, const BigInt& p,
                            const BigInt& q, const BigInt& dp,
                            const BigInt& dq, const BigInt& qinv);

  static BigInt gcd(BigInt a, BigInt b);

  /// Modular inverse; throws std::domain_error if gcd(a, m) != 1.
  static BigInt mod_inverse(const BigInt& a, const BigInt& m);

  /// Uniform value with exactly `bits` bits (MSB set).
  static BigInt random_bits(Rng& rng, size_t bits);
  /// Uniform value in [0, bound).
  static BigInt random_below(Rng& rng, const BigInt& bound);

  /// Trial division by the odd primes below 114, then Miller–Rabin with
  /// `rounds` random witnesses.
  bool is_probable_prime(Rng& rng, int rounds = 24) const;

  /// Generates a `bits`-bit odd prime (small-prime sieve + Miller–Rabin).
  static BigInt generate_prime(Rng& rng, size_t bits);

 private:
  friend struct BigIntWords;  // bignum.cpp: 64-bit word views

  void trim();
  // Little-endian 32-bit limbs; empty == zero.
  std::vector<uint32_t> limbs_;
};

}  // namespace sgfs::crypto

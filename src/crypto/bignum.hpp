// Arbitrary-precision unsigned integers for the RSA/PKI substrate.
//
// Just enough big-number arithmetic for certificate signing and the
// SecureChannel key exchange: schoolbook multiply, Knuth Algorithm D
// division, Montgomery fixed-window modular exponentiation, extended
// Euclid, and Miller–Rabin prime generation.  All randomness flows through
// the deterministic sgfs::Rng so tests and simulations reproduce exactly.
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

  /// (base ^ exp) mod m; m must be non-zero.  Odd moduli run Montgomery
  /// products over a fixed exponent window; even moduli take the
  /// square-and-multiply reference (crypto/accel.hpp).
  static BigInt mod_exp(const BigInt& base, const BigInt& exp,
                        const BigInt& m);

  static BigInt gcd(BigInt a, BigInt b);

  /// Modular inverse; throws std::domain_error if gcd(a, m) != 1.
  static BigInt mod_inverse(const BigInt& a, const BigInt& m);

  /// Uniform value with exactly `bits` bits (MSB set).
  static BigInt random_bits(Rng& rng, size_t bits);
  /// Uniform value in [0, bound).
  static BigInt random_below(Rng& rng, const BigInt& bound);

  /// Miller–Rabin with `rounds` random witnesses.
  bool is_probable_prime(Rng& rng, int rounds = 24) const;

  /// Generates a `bits`-bit odd prime (small-prime sieve + Miller–Rabin).
  static BigInt generate_prime(Rng& rng, size_t bits);

 private:
  void trim();
  // Little-endian 32-bit limbs; empty == zero.
  std::vector<uint32_t> limbs_;
};

}  // namespace sgfs::crypto

#include "crypto/bignum.hpp"

#include <gtest/gtest.h>

#include "crypto/accel.hpp"

namespace sgfs::crypto {
namespace {

TEST(BigInt, ZeroProperties) {
  BigInt z;
  EXPECT_TRUE(z.is_zero());
  EXPECT_FALSE(z.is_odd());
  EXPECT_EQ(z.bit_length(), 0u);
  EXPECT_EQ(z.to_hex(), "0");
  EXPECT_TRUE(z.to_bytes().empty());
}

TEST(BigInt, SmallValues) {
  BigInt v(0x1234);
  EXPECT_EQ(v.to_hex(), "1234");
  EXPECT_EQ(v.bit_length(), 13u);
  EXPECT_FALSE(v.is_odd());
  EXPECT_TRUE(BigInt(3).is_odd());
}

TEST(BigInt, FromToBytesRoundTrip) {
  Buffer raw = from_hex("00deadbeefcafebabe");
  BigInt v = BigInt::from_bytes(raw);
  EXPECT_EQ(v.to_hex(), "deadbeefcafebabe");  // leading zero stripped
  EXPECT_EQ(to_hex(v.to_bytes()), "deadbeefcafebabe");
}

TEST(BigInt, FromBytesEmptyAndLeadingZeros) {
  EXPECT_TRUE(BigInt::from_bytes({}).is_zero());
  EXPECT_TRUE(BigInt::from_bytes(from_hex("00000000000000")).is_zero());
  EXPECT_EQ(BigInt::from_bytes(from_hex("000000000001")), BigInt(1));
  EXPECT_EQ(BigInt::from_bytes(from_hex("0000000000000000000102")).to_hex(),
            "102");
}

TEST(BigInt, FromBytesEveryLengthRoundTrips) {
  // Every length 1-70, so each position of the top byte within a 32-bit
  // limb is hit, with and without leading zero bytes.
  Rng rng(10);
  for (size_t len = 1; len <= 70; ++len) {
    Buffer raw = rng.bytes(len);
    raw[0] |= 0x01;  // non-zero top byte: to_bytes gives all len bytes back
    const BigInt v = BigInt::from_bytes(raw);
    EXPECT_EQ(v.to_bytes(), raw) << "len " << len;
    EXPECT_EQ(BigInt::from_hex(to_hex(raw)), v) << "len " << len;
    EXPECT_EQ(BigInt::from_hex(v.to_hex()), v) << "len " << len;

    Buffer padded(len % 5, 0);
    append(padded, raw);
    EXPECT_EQ(BigInt::from_bytes(padded), v) << "len " << len;
    EXPECT_EQ(v.to_bytes_padded(padded.size()), padded) << "len " << len;
  }
}

TEST(BigInt, PaddedExport) {
  BigInt v(0xabcd);
  EXPECT_EQ(to_hex(v.to_bytes_padded(4)), "0000abcd");
  EXPECT_THROW(v.to_bytes_padded(1), std::overflow_error);
}

TEST(BigInt, Comparisons) {
  EXPECT_LT(BigInt(1), BigInt(2));
  EXPECT_GT(BigInt::from_hex("100000000"), BigInt(0xffffffffu));
  EXPECT_EQ(BigInt(42), BigInt(42));
}

TEST(BigInt, AddWithCarryChains) {
  BigInt a = BigInt::from_hex("ffffffffffffffffffffffff");
  BigInt one(1);
  EXPECT_EQ((a + one).to_hex(), "1000000000000000000000000");
}

TEST(BigInt, SubWithBorrow) {
  BigInt a = BigInt::from_hex("1000000000000000000000000");
  EXPECT_EQ((a - BigInt(1)).to_hex(), "ffffffffffffffffffffffff");
  EXPECT_THROW(BigInt(1) - BigInt(2), std::underflow_error);
}

TEST(BigInt, MultiplyKnownVector) {
  // Vectors computed with Python.
  BigInt a = BigInt::from_hex(
      "deadbeefcafebabe123456789abcdef0fedcba9876543210");
  BigInt b = BigInt::from_hex("1234567890abcdef1122334455667788");
  EXPECT_EQ((a * b).to_hex(),
            "fd5bdeee268600e876535e3a5511725915361aaf1f67112fa5fa2c3c1e817eae"
            "27f966b42600880");
}

TEST(BigInt, DivModKnownVector) {
  BigInt a = BigInt::from_hex(
      "deadbeefcafebabe123456789abcdef0fedcba9876543210");
  BigInt b = BigInt::from_hex("1234567890abcdef1122334455667788");
  auto [q, r] = BigInt::divmod(a, b);
  EXPECT_EQ(q.to_hex(), "c3b6b4d12da39a88c");
  EXPECT_EQ(r.to_hex(), "64c94b3a2f25a7172934404169193b0");
}

TEST(BigInt, DivisionIdentity) {
  // For random a, b: a == (a/b)*b + a%b and a%b < b.
  Rng rng(11);
  for (int i = 0; i < 50; ++i) {
    BigInt a = BigInt::random_bits(rng, 64 + (i * 13) % 512);
    BigInt b = BigInt::random_bits(rng, 16 + (i * 7) % 256);
    auto [q, r] = BigInt::divmod(a, b);
    EXPECT_EQ(q * b + r, a);
    EXPECT_LT(r, b);
  }
}

TEST(BigInt, DivisionByZeroThrows) {
  EXPECT_THROW(BigInt(5) / BigInt(0), std::domain_error);
}

TEST(BigInt, ShortDivision) {
  BigInt a = BigInt::from_hex("123456789abcdef0123456789");
  EXPECT_EQ((a / BigInt(7)) * BigInt(7) + (a % BigInt(7)), a);
}

TEST(BigInt, Shifts) {
  BigInt v(1);
  EXPECT_EQ((v << 100).bit_length(), 101u);
  EXPECT_EQ(((v << 100) >> 100), v);
  EXPECT_EQ((BigInt::from_hex("ff00") >> 8).to_hex(), "ff");
  EXPECT_TRUE((BigInt(1) >> 1).is_zero());
}

TEST(BigInt, ModExpKnownVector) {
  BigInt base = BigInt::from_hex("123456789abcdef");
  BigInt exp = BigInt::from_hex("fedcba987654321");
  BigInt mod = BigInt::from_hex("ffffffffffffffc5");
  EXPECT_EQ(BigInt::mod_exp(base, exp, mod).to_hex(), "8fdaa6008c268d34");
}

TEST(BigInt, ModExpEdgeCases) {
  EXPECT_EQ(BigInt::mod_exp(BigInt(5), BigInt(0), BigInt(7)), BigInt(1));
  EXPECT_EQ(BigInt::mod_exp(BigInt(5), BigInt(3), BigInt(1)), BigInt(0));
  EXPECT_EQ(BigInt::mod_exp(BigInt(2), BigInt(10), BigInt(1000)),
            BigInt(24));
}

TEST(BigInt, ModExpMontgomeryMatchesReference) {
  // Odd moduli of 33-2048 bits (odd and even 32-bit limb counts), against
  // the square-and-multiply reference.  Exponents cycle through 0, 1,
  // 65537, full width and random widths across the window thresholds;
  // bases through 0, m, multiples of m, values >= m and values < m.
  Rng rng(21);
  for (int i = 0; i < 2000; ++i) {
    const size_t bits = rng.next_range(33, 2048);
    BigInt m = BigInt::random_bits(rng, bits);
    if (!m.is_odd()) m = m + BigInt(1);

    BigInt exp;
    switch (i % 5) {
      case 0: exp = BigInt(i % 2); break;  // 0 or 1
      case 1: exp = BigInt(65537); break;
      case 2:
        // Full width; the reference is cubic in the width, so moduli over
        // 1024 bits get it on a quarter of their turns and a 257-1024-bit
        // exponent otherwise.
        exp = BigInt::random_bits(rng, bits <= 1024 || i % 4 == 2
                                           ? bits
                                           : rng.next_range(257, 1024));
        break;
      default: exp = BigInt::random_bits(rng, rng.next_range(2, 320));
    }

    BigInt base;
    switch (i % 7) {
      case 0: break;  // zero
      case 1: base = m; break;
      case 2: base = m * BigInt(rng.next_range(2, 1u << 20)); break;
      case 3: base = BigInt::random_bits(rng, bits + rng.next_range(1, 70));
              break;
      case 4: base = m - BigInt(1); break;
      default: base = BigInt::random_below(rng, m);
    }

    ASSERT_EQ(BigInt::mod_exp(base, exp, m),
              accel::mod_exp_reference(base, exp, m))
        << "case " << i << ": m=" << m.to_hex() << " exp=" << exp.to_hex()
        << " base=" << base.to_hex();
  }
}

TEST(BigInt, ModExpMontgomeryEdgeCases) {
  const BigInt one(1);
  const BigInt m = BigInt::from_hex("fffffffffffffffffffffffb");  // 3 limbs
  for (const BigInt& base : {BigInt(), BigInt(7), m, m + BigInt(7)}) {
    EXPECT_EQ(BigInt::mod_exp(base, BigInt(0), m), one);
    EXPECT_TRUE(BigInt::mod_exp(base, BigInt(5), one).is_zero());
    EXPECT_EQ(BigInt::mod_exp(base, BigInt(1), m), base % m);
  }
  // Full-width 2048-bit exponent on a 2048-bit modulus.
  Rng rng(22);
  BigInt wide = BigInt::random_bits(rng, 2048) + BigInt(1);
  if (!wide.is_odd()) wide = wide + BigInt(1);
  const BigInt base = BigInt::random_bits(rng, 2100);
  const BigInt exp = BigInt::random_bits(rng, 2048);
  EXPECT_EQ(BigInt::mod_exp(base, exp, wide),
            accel::mod_exp_reference(base, exp, wide));
  // Fermat: a^(p-1) = 1 mod p for the Mersenne prime 2^127 - 1.
  const BigInt p = (one << 127) - one;
  EXPECT_EQ(BigInt::mod_exp(BigInt(3), p - one, p), one);
}

TEST(BigInt, Gcd) {
  EXPECT_EQ(BigInt::gcd(BigInt(48), BigInt(36)), BigInt(12));
  EXPECT_EQ(BigInt::gcd(BigInt(17), BigInt(13)), BigInt(1));
  EXPECT_EQ(BigInt::gcd(BigInt(0), BigInt(5)), BigInt(5));
}

TEST(BigInt, ModInverseKnownVector) {
  // inverse of 65537 mod (2^127 - 2), computed with Python.
  BigInt m = (BigInt(1) << 127) - BigInt(1) - BigInt(1);
  BigInt inv = BigInt::mod_inverse(BigInt(65537), m);
  EXPECT_EQ(inv.to_hex(), "5555aaaa5555aaaa5555aaaa5555aaa9");
  EXPECT_EQ((inv * BigInt(65537)) % m, BigInt(1));
}

TEST(BigInt, ModInverseProperty) {
  Rng rng(12);
  BigInt m = BigInt::from_hex("fffffffb");  // prime
  for (int i = 0; i < 20; ++i) {
    BigInt a = BigInt(2) + BigInt::random_below(rng, m - BigInt(2));
    BigInt inv = BigInt::mod_inverse(a, m);
    EXPECT_EQ((a * inv) % m, BigInt(1));
  }
}

TEST(BigInt, ModInverseNotCoprimeThrows) {
  EXPECT_THROW(BigInt::mod_inverse(BigInt(6), BigInt(9)), std::domain_error);
}

TEST(BigInt, RandomBitsExactWidth) {
  Rng rng(13);
  for (size_t bits : {8u, 9u, 31u, 32u, 33u, 100u, 512u}) {
    BigInt v = BigInt::random_bits(rng, bits);
    EXPECT_EQ(v.bit_length(), bits);
  }
}

TEST(BigInt, RandomBelowInRange) {
  Rng rng(14);
  BigInt bound = BigInt::from_hex("10000000000000001");
  for (int i = 0; i < 100; ++i) {
    EXPECT_LT(BigInt::random_below(rng, bound), bound);
  }
}

TEST(BigInt, PrimalityKnownValues) {
  Rng rng(15);
  EXPECT_TRUE(BigInt(2).is_probable_prime(rng));
  EXPECT_TRUE(BigInt(97).is_probable_prime(rng));
  EXPECT_TRUE(BigInt(65537).is_probable_prime(rng));
  // 2^127 - 1 is a Mersenne prime.
  EXPECT_TRUE(((BigInt(1) << 127) - BigInt(1)).is_probable_prime(rng));
  EXPECT_FALSE(BigInt(1).is_probable_prime(rng));
  EXPECT_FALSE(BigInt(561).is_probable_prime(rng));   // Carmichael number
  EXPECT_FALSE(BigInt(65536).is_probable_prime(rng));
  // 2^128 + 1 is composite (= 59649589127497217 * 5704689200685129054721).
  EXPECT_FALSE(((BigInt(1) << 128) + BigInt(1)).is_probable_prime(rng));
}

TEST(BigInt, GeneratePrime) {
  Rng rng(16);
  BigInt p = BigInt::generate_prime(rng, 128);
  EXPECT_EQ(p.bit_length(), 128u);
  EXPECT_TRUE(p.is_odd());
  EXPECT_TRUE(p.is_probable_prime(rng));
}

TEST(BigInt, HexRoundTrip) {
  const char* samples[] = {"1", "ff", "100", "deadbeef",
                           "123456789abcdef0123456789abcdef"};
  for (const char* s : samples) {
    EXPECT_EQ(BigInt::from_hex(s).to_hex(), s);
  }
}

}  // namespace
}  // namespace sgfs::crypto

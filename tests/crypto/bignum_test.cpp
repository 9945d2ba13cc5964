#include "crypto/bignum.hpp"

#include <gtest/gtest.h>

#include <vector>

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

TEST(BigInt, ModExpFixedWidthMatchesReference) {
  // Each Montgomery size class at its edges: moduli of exactly 256, 512,
  // 1024 and 2048 bits and their +-1-bit and +-64-bit neighbours, each as a
  // random odd value, 2^b - 1 and 2^(b-1) + 1.  Exponents 0, 1, 65537,
  // CRT-sized (b/2 bits) and full width; bases 0, m - 1 and values >= m.
  Rng rng(23);
  const BigInt one(1);
  for (size_t edge : {256u, 512u, 1024u, 2048u}) {
    for (size_t bits : {edge - 64, edge - 1, edge, edge + 1, edge + 64}) {
      BigInt random = BigInt::random_bits(rng, bits);
      if (!random.is_odd()) random = random + one;
      const BigInt moduli[] = {random, (one << bits) - one,
                               (one << (bits - 1)) + one};
      for (const BigInt& m : moduli) {
        const BigInt exps[] = {BigInt(), one, BigInt(65537),
                               BigInt::random_bits(rng, bits / 2),
                               BigInt::random_bits(rng, bits)};
        const BigInt bases[] = {
            BigInt(), m - one, m,
            m + BigInt::random_below(rng, m),
            BigInt::random_bits(rng, bits + 1 + rng.next_below(130))};
        for (const BigInt& exp : exps) {
          for (const BigInt& base : bases) {
            ASSERT_EQ(BigInt::mod_exp(base, exp, m),
                      accel::mod_exp_reference(base, exp, m))
                << bits << " bits: m=" << m.to_hex()
                << " exp=" << exp.to_hex() << " base=" << base.to_hex();
          }
        }
      }
    }
  }
}

TEST(BigInt, ModExpCrtMatchesBothResidues) {
  // mod_exp_crt's result is the y < pq with y = x^dp mod p and
  // y = x^dq mod q, whatever the factors: odd ones in one size class or
  // two, and an even one (the division-based fallback).
  Rng rng(26);
  const BigInt one(1);
  const size_t sizes[][2] = {{128, 128}, {255, 256}, {256, 257}, {512, 512},
                             {1000, 1030}};
  for (const auto& [pbits, qbits] : sizes) {
    const BigInt p = BigInt::generate_prime(rng, pbits);
    const BigInt q = BigInt::generate_prime(rng, qbits);
    for (int i = 0; i < 3; ++i) {
      const BigInt x = BigInt::random_bits(rng, pbits + qbits + 8 * i - 8);
      const BigInt dp = BigInt::random_below(rng, p);
      const BigInt dq = BigInt::random_below(rng, q);
      const BigInt y = BigInt::mod_exp_crt(x, p, q, dp, dq,
                                           BigInt::mod_inverse(q, p));
      EXPECT_LT(y, p * q);
      EXPECT_EQ(y % p, accel::mod_exp_reference(x, dp, p)) << pbits;
      EXPECT_EQ(y % q, accel::mod_exp_reference(x, dq, q)) << qbits;
    }
  }
  const BigInt p = (one << 70) + BigInt(6);  // even
  const BigInt q = BigInt::generate_prime(rng, 64);
  const BigInt x = BigInt::random_bits(rng, 150);
  const BigInt y = BigInt::mod_exp_crt(x, p, q, BigInt(12345), BigInt(777),
                                       BigInt::mod_inverse(q, p));
  EXPECT_EQ(y % p, accel::mod_exp_reference(x, BigInt(12345), p));
  EXPECT_EQ(y % q, accel::mod_exp_reference(x, BigInt(777), q));
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

// Miller-Rabin exactly as BigInt ran it before its Montgomery squarings,
// over the reference exponentiation: the verdict and the Rng draws
// is_probable_prime must reproduce.
bool miller_rabin_reference(const BigInt& n, Rng& rng, int rounds = 24) {
  static const uint32_t kSmallPrimes[] = {
      2,  3,  5,  7,  11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
      59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113};
  if (n < BigInt(2)) return false;
  for (uint32_t p : kSmallPrimes) {
    if (n == BigInt(p)) return true;
    if ((n % BigInt(p)).is_zero()) return false;
  }
  const BigInt n_minus_1 = n - BigInt(1);
  BigInt d = n_minus_1;
  size_t r = 0;
  while (!d.is_odd()) {
    d = d >> 1;
    ++r;
  }
  for (int round = 0; round < rounds; ++round) {
    const BigInt a = BigInt(2) + BigInt::random_below(rng, n - BigInt(4));
    BigInt x = accel::mod_exp_reference(a, d, n);
    if (x == BigInt(1) || x == n_minus_1) continue;
    bool composite = true;
    for (size_t i = 0; i + 1 < r; ++i) {
      x = (x * x) % n;
      if (x == n_minus_1) {
        composite = false;
        break;
      }
    }
    if (composite) return false;
  }
  return true;
}

TEST(BigInt, PrimalityMatchesReferenceMillerRabin) {
  // Same verdict and same Rng state afterwards on primes, Carmichael
  // numbers, strong pseudoprimes to small bases and random composites.
  Rng gen(24);
  const BigInt one(1);
  const BigInt k = (one << 84) + BigInt(0xfcd);
  const BigInt chernick[] = {BigInt(6) * k + one, BigInt(12) * k + one,
                             BigInt(18) * k + one};
  for (const BigInt& f : chernick) {
    Rng rng(25);
    ASSERT_TRUE(miller_rabin_reference(f, rng)) << f.to_hex();
  }
  std::vector<BigInt> inputs = {
      BigInt(0), BigInt(1), BigInt(2), BigInt(3), BigInt(4), BigInt(113),
      BigInt(127), BigInt(121), BigInt(65537),
      // Carmichael numbers.
      BigInt(561), BigInt(41041), BigInt(825265), BigInt(321197185),
      // 263 bits, Chernick's (6k+1)(12k+1)(18k+1) with all three prime.
      chernick[0] * chernick[1] * chernick[2],
      // A strong pseudoprime to bases 2, 3, 5 and 7.
      BigInt(3215031751ull),
      (one << 127) - one,              // Mersenne prime
      (one << 128) + one,              // composite Fermat number
      (one << 255) - BigInt(19),       // prime
      (one << 256) - BigInt(189),      // prime
  };
  for (size_t bits : {64u, 256u, 257u, 512u}) {
    for (int i = 0; i < 12; ++i) {
      BigInt v = BigInt::random_bits(gen, bits);
      if (!v.is_odd()) v = v + one;
      inputs.push_back(v);  // mostly composites, some with no small factor
    }
    for (int i = 0; i < 2; ++i) {
      inputs.push_back(BigInt::generate_prime(gen, bits));
    }
    // Products of two primes: survive the trial division, fail Miller-Rabin.
    const BigInt p = BigInt::generate_prime(gen, bits / 2);
    const BigInt q = BigInt::generate_prime(gen, bits - bits / 2);
    inputs.push_back(p * q);
  }
  for (size_t i = 0; i < inputs.size(); ++i) {
    Rng a(100 + i), b(100 + i);
    const bool fast = inputs[i].is_probable_prime(a);
    EXPECT_EQ(fast, miller_rabin_reference(inputs[i], b))
        << "n=" << inputs[i].to_hex();
    EXPECT_EQ(a.next_u64(), b.next_u64()) << "n=" << inputs[i].to_hex();
  }
}

TEST(BigInt, PrimalityOverTheLargestSizeClass) {
  // Values over 2048 bits run the rounds over plain residues: the Mersenne
  // prime 2^2203 - 1 and the square of the Mersenne prime 2^1279 - 1.
  const BigInt one(1);
  const BigInt m1279 = (one << 1279) - one;
  for (const BigInt& n : {(one << 2203) - one, m1279 * m1279}) {
    Rng a(27), b(27);
    EXPECT_EQ(n.is_probable_prime(a, 2), miller_rabin_reference(n, b, 2));
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
  Rng rng(28);
  EXPECT_TRUE(((one << 2203) - one).is_probable_prime(rng, 2));
  EXPECT_FALSE((m1279 * m1279).is_probable_prime(rng, 2));
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

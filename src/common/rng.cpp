#include "common/rng.hpp"

#include <bit>
#include <cstring>

namespace sgfs {

namespace {
uint64_t splitmix64(uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t x = seed;
  for (auto& s : s_) s = splitmix64(x);
}

uint64_t Rng::next_u64() {
  const uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

uint64_t Rng::next_below(uint64_t bound) {
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = -bound % bound;
  for (;;) {
    uint64_t r = next_u64();
    if (r >= threshold) return r % bound;
  }
}

uint64_t Rng::next_range(uint64_t lo, uint64_t hi) {
  return lo + next_below(hi - lo + 1);
}

double Rng::next_double() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

void Rng::fill(MutByteView out) {
  // Each word is stored least-significant byte first; on a little-endian
  // host that is the word's own memory image.
  static_assert(std::endian::native == std::endian::little,
                "Rng::fill stores words in native byte order");
  size_t i = 0;
  for (; i + 8 <= out.size(); i += 8) {
    const uint64_t v = next_u64();
    std::memcpy(out.data() + i, &v, sizeof v);
  }
  if (i < out.size()) {
    uint64_t v = next_u64();
    for (; i < out.size(); ++i) {
      out[i] = static_cast<uint8_t>(v);
      v >>= 8;
    }
  }
}

Buffer Rng::bytes(size_t n) {
  Buffer out(n);
  fill(out);
  return out;
}

Rng Rng::fork() { return Rng(next_u64()); }

}  // namespace sgfs

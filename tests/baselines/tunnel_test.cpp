#include "baselines/tunnel.hpp"

#include <gtest/gtest.h>

#include "crypto/sha.hpp"

namespace sgfs::baselines {
namespace {

// The literal was recorded before the one-pass AES + HMAC-SHA1 seal
// replaced the two-pass one; never edit it to make a change pass.
TEST(SshTunnel, GoldenFrameBytes) {
  Rng rng(91);
  const Buffer aes_key = rng.bytes(32);
  const Buffer mac_key = rng.bytes(20);
  crypto::Aes aes(aes_key);
  crypto::HmacSha1 mac(mac_key);
  Buffer wire;
  size_t expect_size = 0;
  uint64_t seq = 0;
  auto frame = [&](uint64_t frame_seq, size_t n) {
    append(wire, SshTunnel::seal_frame(aes, mac, frame_seq, rng.bytes(n)));
    expect_size += 4 + (n + 16 - n % 16) + 20;
  };
  for (size_t n : {size_t{1}, size_t{15}, size_t{16}, size_t{17},
                   size_t{47}, size_t{48}, size_t{55}, size_t{56},
                   size_t{63}, size_t{64}, size_t{65}, size_t{4095},
                   size_t{4096}, SshTunnel::kFrameSize}) {
    frame(seq++, n);
  }
  frame((uint64_t{1} << 32) + 3, 100);  // the IV carries all 8 seq bytes
  EXPECT_EQ(wire.size(), expect_size);
  EXPECT_EQ(to_hex(crypto::digest_bytes(crypto::Sha256::hash(wire))),
            "3780f50eba30071ef792f69b295cc12beba2f7dde44986ee85dc89bd7df1fe32");
}

}  // namespace
}  // namespace sgfs::baselines

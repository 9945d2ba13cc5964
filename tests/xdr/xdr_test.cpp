#include "xdr/xdr.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace sgfs::xdr {
namespace {

TEST(Xdr, U32BigEndian) {
  Encoder e;
  e.put_u32(0x01020304u);
  EXPECT_EQ(e.data(), (Buffer{0x01, 0x02, 0x03, 0x04}));
}

TEST(Xdr, U64BigEndian) {
  Encoder e;
  e.put_u64(0x0102030405060708ull);
  EXPECT_EQ(e.data(),
            (Buffer{0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08}));
}

TEST(Xdr, SignedRoundTrip) {
  Encoder e;
  e.put_i32(-5);
  e.put_i64(-123456789012345ll);
  Decoder d(e.data());
  EXPECT_EQ(d.get_i32(), -5);
  EXPECT_EQ(d.get_i64(), -123456789012345ll);
  EXPECT_TRUE(d.done());
}

TEST(Xdr, BoolEncoding) {
  Encoder e;
  e.put_bool(true);
  e.put_bool(false);
  EXPECT_EQ(e.data(), (Buffer{0, 0, 0, 1, 0, 0, 0, 0}));
  Decoder d(e.data());
  EXPECT_TRUE(d.get_bool());
  EXPECT_FALSE(d.get_bool());
}

TEST(Xdr, BoolRejectsOtherValues) {
  Encoder e;
  e.put_u32(2);
  Decoder d(e.data());
  EXPECT_THROW(d.get_bool(), XdrError);
}

TEST(Xdr, StringPaddedToFourBytes) {
  Encoder e;
  e.put_string("abcde");  // len 5 -> 4(len) + 5 + 3 pad
  EXPECT_EQ(e.size(), 12u);
  EXPECT_EQ(e.data()[3], 5);      // length
  EXPECT_EQ(e.data()[9], 0);      // padding
  Decoder d(e.data());
  EXPECT_EQ(d.get_string(), "abcde");
  EXPECT_TRUE(d.done());
}

TEST(Xdr, EmptyStringIsJustLength) {
  Encoder e;
  e.put_string("");
  EXPECT_EQ(e.size(), 4u);
  Decoder d(e.data());
  EXPECT_EQ(d.get_string(), "");
}

TEST(Xdr, OpaqueVariableRoundTrip) {
  Buffer payload = {1, 2, 3, 4, 5, 6};
  Encoder e;
  e.put_opaque(payload);
  Decoder d(e.data());
  EXPECT_EQ(d.get_opaque(), payload);
  EXPECT_TRUE(d.done());
}

TEST(Xdr, OpaqueFixedRoundTrip) {
  Buffer payload = {9, 8, 7};
  Encoder e;
  e.put_opaque_fixed(payload);
  EXPECT_EQ(e.size(), 4u);  // 3 + 1 pad
  Buffer out(3);
  Decoder d(e.data());
  d.get_opaque_fixed(out);
  EXPECT_EQ(out, payload);
  EXPECT_TRUE(d.done());
}

TEST(Xdr, NonzeroPaddingRejected) {
  Buffer raw = {0, 0, 0, 1, 0xAA, 0xBB, 0xCC, 0xDD};  // len 1, bad padding
  Decoder d(raw);
  EXPECT_THROW(d.get_opaque(), XdrError);
}

TEST(Xdr, OpaqueLengthLimitEnforced) {
  Encoder e;
  e.put_opaque(Buffer(100, 0x55));
  Decoder d(e.data());
  EXPECT_THROW(d.get_opaque(99), XdrError);
}

TEST(Xdr, UnderrunThrows) {
  Buffer raw = {0, 0};
  Decoder d(raw);
  EXPECT_THROW(d.get_u32(), XdrError);
}

TEST(Xdr, LyingLengthPrefixThrows) {
  Encoder e;
  e.put_u32(1000);  // claims 1000 bytes, provides none
  Decoder d(e.data());
  EXPECT_THROW(d.get_opaque(), XdrError);
}

TEST(Xdr, OptionalPresentAndAbsent) {
  Encoder e;
  std::optional<uint32_t> present = 7, absent;
  e(present);
  e(absent);
  EXPECT_EQ(e.size(), 12u);  // bool + value, bool
  Decoder d(e.data());
  std::optional<uint32_t> a, b = 9;
  d(a);
  d(b);
  EXPECT_EQ(a, 7u);
  EXPECT_EQ(b, std::nullopt);
}

enum class Color : int32_t { kRed = 1, kBlue = -2 };

TEST(Xdr, EnumRoundTrip) {
  Encoder e;
  e.put_enum(Color::kRed);
  e.put_enum(Color::kBlue);
  Decoder d(e.data());
  EXPECT_EQ(d.get_enum<Color>(), Color::kRed);
  EXPECT_EQ(d.get_enum<Color>(), Color::kBlue);
}

TEST(Xdr, ExpectDoneCatchesTrailingGarbage) {
  Encoder e;
  e.put_u32(1);
  e.put_u32(2);
  Decoder d(e.data());
  d.get_u32();
  EXPECT_THROW(d.expect_done(), XdrError);
  d.get_u32();
  EXPECT_NO_THROW(d.expect_done());
}

struct Point {
  uint32_t x = 0, y = 0;
  std::optional<uint64_t> z;
  template <class Io>
  void walk(Io& io) {
    io(x);
    io(y);
    io(z);
  }
};

TEST(Xdr, MessageHelpers) {
  // One walker drives both directions.
  Point p{3, 4, 5};
  BufChain wire = encode(p);
  EXPECT_EQ(wire.size(), 20u);
  Point q = decode<Point>(wire);
  EXPECT_EQ(q.x, 3u);
  EXPECT_EQ(q.y, 4u);
  EXPECT_EQ(q.z, 5u);
  p.z.reset();
  EXPECT_FALSE(decode<Point>(encode(p)).z.has_value());
}

// Property sweep: random payload sizes survive a round trip and respect
// 4-byte alignment throughout.
class XdrPropertyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(XdrPropertyTest, RandomOpaqueRoundTrip) {
  Rng rng(GetParam() * 977 + 13);
  Buffer payload = rng.bytes(GetParam());
  Encoder e;
  e.put_u32(0xfeedfaceu);
  e.put_opaque(payload);
  e.put_string("trailer");
  EXPECT_EQ(e.size() % 4, 0u);
  Decoder d(e.data());
  EXPECT_EQ(d.get_u32(), 0xfeedfaceu);
  EXPECT_EQ(d.get_opaque(), payload);
  EXPECT_EQ(d.get_string(), "trailer");
  EXPECT_TRUE(d.done());
}

INSTANTIATE_TEST_SUITE_P(Sizes, XdrPropertyTest,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 31, 32, 33, 255,
                                           1024, 4097, 65536));

// Property sweep over random *sequences* of fields: whatever mix of
// primitives gets encoded — including zero-copy grafts (put_opaque_ref) that
// segment the output — must decode identically through both decoder
// flavours: a borrowed contiguous view and a chain-backed decoder fed the
// encoder's segmented output directly.
TEST(XdrProperty, RandomFieldSequencesRoundTripBothDecoders) {
  enum Tok { kU32, kU64, kBool, kStr, kOpaque, kOpaqueRef, kOptU32, kTokCount };
  Rng rng(0x5EED2026'08050001ull);
  for (int round = 0; round < 64; ++round) {
    std::vector<int> toks;
    std::vector<uint64_t> ints;
    std::vector<std::string> strs;
    std::vector<Buffer> blobs;
    Encoder enc;
    const int fields = static_cast<int>(1 + rng.next_below(12));
    for (int i = 0; i < fields; ++i) {
      const int tok = static_cast<int>(rng.next_below(kTokCount));
      toks.push_back(tok);
      switch (tok) {
        case kU32: {
          uint32_t v = static_cast<uint32_t>(rng.next_u64());
          ints.push_back(v);
          enc.put_u32(v);
          break;
        }
        case kU64: {
          uint64_t v = rng.next_u64();
          ints.push_back(v);
          enc.put_u64(v);
          break;
        }
        case kBool: {
          bool v = rng.next_below(2) == 1;
          ints.push_back(v ? 1 : 0);
          enc.put_bool(v);
          break;
        }
        case kStr: {
          Buffer raw = rng.bytes(rng.next_below(40));
          for (auto& c : raw) c = 'a' + (c % 26);
          std::string s(raw.begin(), raw.end());
          strs.push_back(s);
          enc.put_string(s);
          break;
        }
        case kOpaque:
        case kOpaqueRef: {
          Buffer b = rng.bytes(rng.next_below(3000));
          blobs.push_back(b);
          if (tok == kOpaque) {
            enc.put_opaque(b);
          } else {
            enc.put_opaque_ref(BufChain{Buffer(b)});
          }
          break;
        }
        case kOptU32: {
          std::optional<uint32_t> v;
          if (rng.next_below(2) == 1)
            v = static_cast<uint32_t>(rng.next_u64());
          ints.push_back(v ? uint64_t{*v} + 1 : 0);  // 0 encodes nullopt
          enc(v);
          break;
        }
      }
    }
    const BufChain wire = enc.take();
    const Buffer flat = wire.flatten();
    ASSERT_EQ(flat.size() % 4, 0u);

    // Replays the recorded field script against one decoder.
    auto check = [&](Decoder dec) {
      size_t ii = 0, si = 0, bi = 0;
      for (int tok : toks) {
        switch (tok) {
          case kU32:
            EXPECT_EQ(dec.get_u32(), static_cast<uint32_t>(ints[ii++]));
            break;
          case kU64:
            EXPECT_EQ(dec.get_u64(), ints[ii++]);
            break;
          case kBool:
            EXPECT_EQ(dec.get_bool(), ints[ii++] == 1);
            break;
          case kStr:
            EXPECT_EQ(dec.get_string(), strs[si++]);
            break;
          case kOpaque:
            EXPECT_EQ(dec.get_opaque(), blobs[bi++]);
            break;
          case kOpaqueRef:
            EXPECT_EQ(dec.get_opaque_ref(), blobs[bi++]);
            break;
          case kOptU32: {
            std::optional<uint32_t> v;
            dec(v);
            const uint64_t expect = ints[ii++];
            if (expect == 0) {
              EXPECT_FALSE(v.has_value());
            } else {
              ASSERT_TRUE(v.has_value());
              EXPECT_EQ(uint64_t{*v} + 1, expect);
            }
            break;
          }
        }
      }
      EXPECT_TRUE(dec.done()) << "round " << round;
    };
    check(Decoder(ByteView(flat)));  // borrowed contiguous view
    check(Decoder(wire));            // chain-backed, possibly segmented
  }
}

}  // namespace
}  // namespace sgfs::xdr

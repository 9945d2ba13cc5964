#include "xdr/xdr.hpp"

#include <algorithm>

namespace sgfs::xdr {

void Encoder::put_u32(uint32_t v) {
  // Grow in one step to a useful size instead of 1 -> 2 -> 4 -> 8 ... bytes.
  if (buf_.capacity() - buf_.size() < 4) {
    buf_.reserve(std::max<size_t>(kMinReserve, 2 * buf_.capacity()));
  }
  const uint8_t be[4] = {
      static_cast<uint8_t>(v >> 24), static_cast<uint8_t>(v >> 16),
      static_cast<uint8_t>(v >> 8), static_cast<uint8_t>(v)};
  buf_.insert(buf_.end(), be, be + 4);
}

void Encoder::put_u64(uint64_t v) {
  put_u32(static_cast<uint32_t>(v >> 32));
  put_u32(static_cast<uint32_t>(v));
}

void Encoder::put_opaque_fixed(ByteView data) {
  buf_stats().bytes_copied += data.size();
  append(buf_, data);
  static constexpr uint8_t kPad[3] = {0, 0, 0};
  const size_t pad = (4 - data.size() % 4) % 4;
  append(buf_, ByteView(kPad, pad));
}

void Encoder::put_opaque(ByteView data) {
  if (data.size() > UINT32_MAX) throw XdrError("opaque too large");
  put_u32(static_cast<uint32_t>(data.size()));
  put_opaque_fixed(data);
}

void Encoder::put_opaque_ref(BufChain data) {
  if (data.size() > UINT32_MAX) throw XdrError("opaque too large");
  const size_t n = data.size();
  put_u32(static_cast<uint32_t>(n));
  flush_tail();
  chain_.append(std::move(data));
  static constexpr uint8_t kPad[3] = {0, 0, 0};
  append(buf_, ByteView(kPad, (4 - n % 4) % 4));
}

void Encoder::put_string(std::string_view s) {
  put_opaque(ByteView(reinterpret_cast<const uint8_t*>(s.data()), s.size()));
}

const Buffer& Encoder::data() const {
  if (!chain_.empty()) {
    throw XdrError("Encoder::data() on segmented output; use take()");
  }
  return buf_;
}

BufChain Encoder::take() {
  flush_tail();
  return std::move(chain_);
}

Buffer Encoder::take_flat() {
  if (chain_.empty()) return std::move(buf_);
  flush_tail();
  BufChain chain = std::move(chain_);
  return chain.flatten();
}

void Encoder::flush_tail() {
  if (buf_.empty()) return;
  Buffer tail;
  tail.swap(buf_);
  chain_.append(std::move(tail));
}

Decoder::Decoder(const BufChain& chain) {
  const auto& segs = chain.segments();
  if (segs.size() <= 1) {
    if (!segs.empty()) {
      store_ = segs[0].store;
      base_ = segs[0].offset;
      data_ = segs[0].view();
    }
    return;
  }
  buf_stats().segments_allocated += 1;
  store_ = BufStore::adopt(chain.flatten());
  base_ = 0;
  data_ = ByteView(*store_);
}

ByteView Decoder::need(size_t n) {
  if (data_.size() - pos_ < n) throw XdrError("decode underrun");
  ByteView out = data_.subspan(pos_, n);
  pos_ += n;
  return out;
}

void Decoder::skip_padding(size_t n) {
  const size_t pad = (4 - n % 4) % 4;
  ByteView p = need(pad);
  for (uint8_t b : p) {
    if (b != 0) throw XdrError("nonzero padding");
  }
}

uint32_t Decoder::get_u32() {
  ByteView b = need(4);
  return (static_cast<uint32_t>(b[0]) << 24) |
         (static_cast<uint32_t>(b[1]) << 16) |
         (static_cast<uint32_t>(b[2]) << 8) | static_cast<uint32_t>(b[3]);
}

uint64_t Decoder::get_u64() {
  uint64_t hi = get_u32();
  uint64_t lo = get_u32();
  return (hi << 32) | lo;
}

bool Decoder::get_bool() {
  uint32_t v = get_u32();
  if (v > 1) throw XdrError("bad bool value");
  return v == 1;
}

void Decoder::get_opaque_fixed(MutByteView out) {
  ByteView b = need(out.size());
  buf_stats().bytes_copied += out.size();
  std::copy(b.begin(), b.end(), out.begin());
  skip_padding(out.size());
}

Buffer Decoder::get_opaque(size_t max_len) {
  uint32_t len = get_u32();
  if (len > max_len) throw XdrError("opaque exceeds limit");
  ByteView b = need(len);
  buf_stats().bytes_copied += len;
  Buffer out(b.begin(), b.end());
  skip_padding(len);
  return out;
}

BufChain Decoder::take_ref(size_t n) {
  if (store_) {
    BufChain out{BufChain::Segment(store_, base_ + pos_, n)};
    pos_ += n;
    return out;
  }
  return BufChain::copy_of(need(n));
}

BufChain Decoder::get_opaque_ref(size_t max_len) {
  uint32_t len = get_u32();
  if (len > max_len) throw XdrError("opaque exceeds limit");
  if (data_.size() - pos_ < len) throw XdrError("decode underrun");
  BufChain out = take_ref(len);
  skip_padding(len);
  return out;
}

BufChain Decoder::remainder_ref() { return take_ref(remaining()); }

std::string Decoder::get_string(size_t max_len) {
  uint32_t len = get_u32();
  if (len > max_len) throw XdrError("string exceeds limit");
  ByteView b = need(len);
  std::string out(reinterpret_cast<const char*>(b.data()), b.size());
  skip_padding(len);
  return out;
}

void Decoder::expect_done() const {
  if (!done()) throw XdrError("trailing bytes after message");
}

}  // namespace sgfs::xdr

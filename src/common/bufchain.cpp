#include "common/bufchain.hpp"

#include <cstring>
#include <stdexcept>

namespace sgfs {

BufStats& buf_stats() {
  static BufStats stats;
  return stats;
}

BufChain::BufChain(BufChain&& other) noexcept { take(other); }

BufChain& BufChain::operator=(BufChain&& other) noexcept {
  if (this != &other) {
    if (count_ <= kInline) {
      for (size_t i = 0; i < count_; ++i) inline_[i] = Segment();
    }
    spill_.clear();
    take(other);
  }
  return *this;
}

void BufChain::take(BufChain& other) noexcept {
  // Only the live inline slots move; a spilled chain hands over its vector.
  count_ = std::exchange(other.count_, 0);
  size_ = std::exchange(other.size_, 0);
  if (count_ <= kInline) {
    for (size_t i = 0; i < count_; ++i) {
      inline_[i] = std::move(other.inline_[i]);
    }
  } else {
    spill_ = std::move(other.spill_);
    other.spill_.clear();
  }
}

void BufChain::push(Segment seg) {
  if (count_ < kInline) {
    inline_[count_++] = std::move(seg);
    return;
  }
  if (count_ == kInline) {
    spill_.reserve(2 * kInline);
    for (auto& s : inline_) spill_.push_back(std::move(s));
  }
  spill_.push_back(std::move(seg));
  ++count_;
}

BufChain::BufChain(Buffer data) {
  if (data.empty()) return;
  auto& stats = buf_stats();
  stats.segments_allocated += 1;
  stats.bytes_zerocopy += data.size();
  size_ = data.size();
  push(Segment(BufStore::adopt(std::move(data)), 0, size_));
}

BufChain::BufChain(Segment seg) {
  if (seg.len == 0) return;
  buf_stats().bytes_zerocopy += seg.len;
  size_ = seg.len;
  push(std::move(seg));
}

BufChain BufChain::copy_of(ByteView data) {
  buf_stats().bytes_copied += data.size();
  return BufChain(Buffer(data.begin(), data.end()));
}

void BufChain::append(BufChain other) {
  if (other.empty()) return;
  if (empty()) {
    *this = std::move(other);
    return;
  }
  size_ += other.size_;
  Segment* theirs =
      other.count_ <= kInline ? other.inline_.data() : other.spill_.data();
  for (size_t i = 0; i < other.count_; ++i) push(std::move(theirs[i]));
}

void BufChain::append(Buffer data) { append(BufChain(std::move(data))); }

BufChain BufChain::slice(size_t offset, size_t len) const {
  if (offset + len < offset || offset + len > size_) {
    throw std::out_of_range("BufChain::slice out of range");
  }
  BufChain out;
  if (len == 0) return out;
  buf_stats().bytes_zerocopy += len;
  size_t skip = offset;
  size_t want = len;
  for (const auto& seg : segments()) {
    if (skip >= seg.len) {
      skip -= seg.len;
      continue;
    }
    const size_t take = std::min(seg.len - skip, want);
    out.push(Segment(seg.store, seg.offset + skip, take));
    out.size_ += take;
    want -= take;
    skip = 0;
    if (want == 0) break;
  }
  return out;
}

std::optional<ByteView> BufChain::try_view() const {
  if (count_ == 0) return ByteView{};
  if (count_ == 1) return inline_[0].view();
  return std::nullopt;
}

Buffer BufChain::flatten() const {
  buf_stats().bytes_copied += size_;
  Buffer out;
  out.reserve(size_);
  for (const auto& seg : segments()) {
    out.insert(out.end(), seg.view().begin(), seg.view().end());
  }
  return out;
}

size_t BufChain::copy_to(MutByteView out) const {
  size_t done = 0;
  for (const auto& seg : segments()) {
    if (done == out.size()) break;
    const size_t take = std::min(seg.len, out.size() - done);
    std::memcpy(out.data() + done, seg.store->data() + seg.offset, take);
    done += take;
  }
  buf_stats().bytes_copied += done;
  return done;
}

uint8_t BufChain::at(size_t i) const {
  if (i >= size_) throw std::out_of_range("BufChain::at out of range");
  for (const auto& seg : segments()) {
    if (i < seg.len) return (*seg.store)[seg.offset + i];
    i -= seg.len;
  }
  throw std::out_of_range("BufChain::at out of range");  // unreachable
}

bool operator==(const BufChain& a, const BufChain& b) {
  if (a.size() != b.size()) return false;
  // Walk both segment lists in lockstep without materialising either side.
  const auto& sa = a.segments();
  const auto& sb = b.segments();
  size_t ia = 0, ib = 0, oa = 0, ob = 0;
  size_t left = a.size();
  while (left > 0) {
    const ByteView va = sa[ia].view().subspan(oa);
    const ByteView vb = sb[ib].view().subspan(ob);
    const size_t n = std::min(va.size(), vb.size());
    if (std::memcmp(va.data(), vb.data(), n) != 0) return false;
    oa += n;
    ob += n;
    left -= n;
    if (oa == sa[ia].len) { ++ia; oa = 0; }
    if (ob == sb[ib].len) { ++ib; ob = 0; }
  }
  return true;
}

bool operator==(const BufChain& a, const Buffer& b) {
  if (a.size() != b.size()) return false;
  size_t off = 0;
  for (const auto& seg : a.segments()) {
    if (std::memcmp(seg.store->data() + seg.offset, b.data() + off, seg.len) !=
        0) {
      return false;
    }
    off += seg.len;
  }
  return true;
}

std::string chain_to_string(const BufChain& c) {
  std::string out;
  out.reserve(c.size());
  for (const auto& seg : c.segments()) {
    out.append(reinterpret_cast<const char*>(seg.store->data() + seg.offset),
               seg.len);
  }
  return out;
}

ByteView linearize(const BufChain& c, Buffer& scratch) {
  if (auto v = c.try_view()) return *v;
  scratch = c.flatten();
  return ByteView(scratch);
}

}  // namespace sgfs

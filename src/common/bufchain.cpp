#include "common/bufchain.hpp"

#include <cstring>
#include <stdexcept>

namespace sgfs {

BufChain::BufChain(const BufChain& other) : size_(other.size_) {
  for (const Segment& seg : other.segments()) push(Segment(seg));
}

BufChain& BufChain::operator=(const BufChain& other) {
  if (this != &other) *this = BufChain(other);
  return *this;
}

void BufChain::push_spilled(Segment&& seg) {
  if (!spilled() || count_ == spill_.capacity) {
    // Full storage, inline or heap: the descriptors move to a pooled array
    // twice its size, and the old storage is released.
    const uint32_t capacity = spilled() ? 2 * spill_.capacity : 2 * kInline;
    auto* to = static_cast<Segment*>(
        SmallObjectPool::allocate(capacity * sizeof(Segment)));
    Segment* from = data();
    for (uint32_t i = 0; i < count_; ++i) {
      new (to + i) Segment(std::move(from[i]));
      from[i].~Segment();
    }
    if (spilled()) free_spill(spill_);
    spill_ = Spill{to, capacity};  // the inline slots are vacated above
  }
  new (spill_.segs + count_) Segment(std::move(seg));
  ++count_;
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
  Segment* theirs = other.data();
  for (uint32_t i = 0; i < other.count_; ++i) push(std::move(theirs[i]));
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

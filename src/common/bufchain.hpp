// BufChain — refcounted segmented byte buffer for the zero-copy pipeline.
//
// A BufChain is a small vector of shared, immutable segments (up to kInline
// descriptors in raw inline slots, spilling to a pooled heap array beyond
// that).  Appending, slicing and concatenating chains moves/refcounts
// segment descriptors instead of copying payload bytes, so an NFS READ
// reply can travel XDR encoder -> rpc_msg -> secure channel -> stream ->
// proxy -> client without ever being duplicated.  Segments are immutable
// once adopted: whoever hands a Buffer to a chain gives up the right to
// mutate it (see DESIGN.md §9 for the ownership rules and the slot layout).
//
// Copy accounting: every deliberate byte copy made through this API bumps
// `buf_stats().bytes_copied`, and every payload handoff that *avoided* a
// copy (adoption, slicing) bumps `bytes_zerocopy`.  The counters are
// process-global (not per-engine) because buffers flow between hosts; the
// benches snapshot deltas around each run.
#pragma once

#include <concepts>
#include <cstdint>
#include <cstring>
#include <new>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <utility>

#include "common/bytes.hpp"
#include "common/small_object_pool.hpp"

namespace sgfs {

/// Process-global copy-accounting tallies for the buffer pipeline.
struct BufStats {
  uint64_t bytes_copied = 0;       // bytes physically memcpy'd via BufChain
  uint64_t bytes_zerocopy = 0;     // bytes handed off by refcount/slice
  uint64_t segments_allocated = 0; // shared segment stores created

  void reset() { *this = BufStats{}; }
};

/// The global tally (single simulation thread; no locking needed).
inline BufStats& buf_stats() {
  static BufStats stats;  // constant-initialized: no guard on each call
  return stats;
}

/// A counted reference to an immutable Buffer shared by chain segments.
/// The count sits next to the bytes in one SmallObjectPool node and is not
/// atomic: a store, and every chain viewing it, stays on the thread that
/// made it (DESIGN.md §9).
class BufStore {
 public:
  BufStore() = default;
  /// Moves `data` into a fresh store with one reference.
  static BufStore adopt(Buffer data) {
    return BufStore(new Node(std::move(data)));
  }

  BufStore(const BufStore& other) noexcept : node_(other.node_) {
    if (node_ != nullptr) ++node_->refs;
  }
  BufStore(BufStore&& other) noexcept
      : node_(std::exchange(other.node_, nullptr)) {}
  BufStore& operator=(const BufStore& other) noexcept {
    if (other.node_ != nullptr) ++other.node_->refs;
    release();
    node_ = other.node_;
    return *this;
  }
  BufStore& operator=(BufStore&& other) noexcept {
    if (this != &other) {
      release();
      node_ = std::exchange(other.node_, nullptr);
    }
    return *this;
  }
  ~BufStore() { release(); }

  const Buffer* get() const { return node_ ? &node_->bytes : nullptr; }
  const Buffer& operator*() const { return node_->bytes; }
  const Buffer* operator->() const { return &node_->bytes; }
  explicit operator bool() const { return node_ != nullptr; }
  /// References held to this store (0 for an empty handle).
  uint32_t use_count() const { return node_ ? node_->refs : 0; }

  friend bool operator==(const BufStore& a, const BufStore& b) {
    return a.node_ == b.node_;
  }

 private:
  struct Node {
    Buffer bytes;
    uint32_t refs = 1;

    explicit Node(Buffer b) : bytes(std::move(b)) {}
    static void* operator new(size_t n) { return SmallObjectPool::allocate(n); }
    static void operator delete(void* p, size_t n) noexcept {
      SmallObjectPool::release(p, n);
    }
  };

  explicit BufStore(Node* node) : node_(node) {}
  void release() noexcept {
    if (node_ != nullptr && --node_->refs == 0) delete node_;
  }

  Node* node_ = nullptr;
};

class BufChain {
 public:
  /// Segments a chain holds in its inline slots; a longer chain spills.
  static constexpr size_t kInline = 4;

  /// One shared, immutable view into a refcounted backing store.
  struct Segment {
    BufStore store;
    size_t offset = 0;
    size_t len = 0;

    // User-declared constructors: objects crossing coroutine boundaries
    // must not be aggregates (GCC 12 coroutine-frame bug).
    Segment() {}
    Segment(BufStore s, size_t off, size_t n)
        : store(std::move(s)), offset(off), len(n) {}

    ByteView view() const { return ByteView(store->data() + offset, len); }
  };

  BufChain() noexcept {}
  BufChain(const BufChain& other);
  BufChain& operator=(const BufChain& other);
  /// A moved-from chain is empty.
  BufChain(BufChain&& other) noexcept { steal(other); }
  BufChain& operator=(BufChain&& other) noexcept {
    if (this != &other) {
      destroy();
      steal(other);
    }
    return *this;
  }
  ~BufChain() { destroy(); }

  /// Adopts an owned Buffer as a single shared segment — no byte copy.
  /// Implicit on purpose: `co_return enc.take_flat();` and friends read
  /// naturally.  Pass by value; move in.
  BufChain(Buffer data) {
    if (data.empty()) return;
    auto& stats = buf_stats();
    stats.segments_allocated += 1;
    stats.bytes_zerocopy += data.size();
    size_ = data.size();
    new (slots()) Segment(BufStore::adopt(std::move(data)), 0, size_);
    count_ = 1;
  }

  /// Wraps an existing shared segment (refcount bump, counted zero-copy).
  explicit BufChain(Segment seg) {
    if (seg.len == 0) return;
    buf_stats().bytes_zerocopy += seg.len;
    size_ = seg.len;
    new (slots()) Segment(std::move(seg));
    count_ = 1;
  }

  /// Copies `data` into a fresh single-segment chain (counted).
  static BufChain copy_of(ByteView data);

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Appends another chain's segments (refcount bump / move, no byte copy).
  void append(BufChain other);

  /// Adopts and appends an owned Buffer as one segment.
  void append(Buffer data);

  /// Sub-range [offset, offset+len) sharing the same stores (counted as
  /// zero-copy).  Throws std::out_of_range when the range exceeds size().
  BufChain slice(size_t offset, size_t len) const;

  /// iovec-style access for scatter-gather consumers.  The span views this
  /// chain's own descriptors: bind a temporary chain to a local before
  /// iterating its segments.
  std::span<const Segment> segments() const {
    return std::span<const Segment>(data(), count_);
  }

  /// Contiguous view when the chain has at most one segment.
  std::optional<ByteView> try_view() const {
    if (count_ == 0) return ByteView{};
    if (count_ == 1) return slots()[0].view();
    return std::nullopt;
  }

  /// Copies all bytes into one fresh Buffer (counted).
  Buffer flatten() const;

  /// Copies min(size(), out.size()) bytes into `out` (counted); returns the
  /// number of bytes written.
  size_t copy_to(MutByteView out) const;

  /// Byte at absolute position i (for tests/debugging; O(#segments)).
  uint8_t at(size_t i) const;

 private:
  // The live segments are slots()[0, count_) while count_ <= kInline, and
  // spill_.segs[0, count_) beyond that; no other slot holds an object.  A
  // chain never shrinks in place, so it is spilled exactly when
  // count_ > kInline.
  struct Spill {
    Segment* segs;
    uint32_t capacity;
  };

  bool spilled() const { return count_ > kInline; }
  Segment* slots() { return reinterpret_cast<Segment*>(raw_); }
  const Segment* slots() const {
    return reinterpret_cast<const Segment*>(raw_);
  }
  // GCC cannot always tell that an inline chain never reads spill_, and
  // warns that it may be uninitialized.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
  Segment* data() { return spilled() ? spill_.segs : slots(); }
  const Segment* data() const { return spilled() ? spill_.segs : slots(); }
#pragma GCC diagnostic pop

  void push(Segment&& seg) {
    if (count_ < kInline) {
      new (slots() + count_) Segment(std::move(seg));
      ++count_;
      return;
    }
    push_spilled(std::move(seg));
  }
  // push() once the inline slots are full: moves to a larger heap array.
  void push_spilled(Segment&& seg);

  // Takes other's segments into this chain, whose slots hold no segment,
  // and leaves other empty.  A segment is a pointer and two sizes, with no
  // pointer into itself, so the slot bytes move as they are, whichever of
  // them are live (or hold a spill array's address); the count says which.
  static_assert(sizeof(BufStore) == sizeof(void*) &&
                    sizeof(Segment) == sizeof(void*) + 2 * sizeof(size_t),
                "steal() relocates segments bytewise: a Segment must stay a "
                "store pointer and two sizes");
  // GCC warns that the copy may read slot bytes no segment occupies; it does.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
  void steal(BufChain& other) noexcept {
    std::memcpy(raw_, other.raw_, sizeof(raw_));
    size_ = std::exchange(other.size_, 0);
    count_ = std::exchange(other.count_, 0);
  }
#pragma GCC diagnostic pop

  // Releases the live segments (and the spill array); leaves count_ as is.
  void destroy() noexcept {
    Segment* segs = data();
    for (uint32_t i = 0; i < count_; ++i) segs[i].~Segment();
    if (spilled()) free_spill(spill_);
  }
  static void free_spill(Spill spill) noexcept {
    SmallObjectPool::release(spill.segs, spill.capacity * sizeof(Segment));
  }

  union {
    alignas(Segment) unsigned char raw_[kInline * sizeof(Segment)];
    Spill spill_;
  };
  size_t size_ = 0;
  uint32_t count_ = 0;
};

/// Byte-wise equality (ignores segmentation).
bool operator==(const BufChain& a, const BufChain& b);
bool operator==(const BufChain& a, const Buffer& b);
inline bool operator==(const Buffer& a, const BufChain& b) { return b == a; }

/// Interprets the chain's bytes as an ASCII string (copies; tests/logs).
/// Constrained template so a plain Buffer still resolves to
/// to_string(ByteView) instead of being ambiguous with the implicit
/// Buffer -> BufChain adoption constructor.
std::string chain_to_string(const BufChain& c);
template <typename T>
  requires std::same_as<std::remove_cvref_t<T>, BufChain>
std::string to_string(const T& c) {
  return chain_to_string(c);
}

/// Returns a contiguous view of `c`.  Zero-copy when the chain has at most
/// one segment; otherwise flattens into `scratch` (counted) and views that.
/// The view is valid while both `c` and `scratch` are alive and unmodified.
ByteView linearize(const BufChain& c, Buffer& scratch);

}  // namespace sgfs

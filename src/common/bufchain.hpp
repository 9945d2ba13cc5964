// BufChain — refcounted segmented byte buffer for the zero-copy pipeline.
//
// A BufChain is a small vector of shared, immutable segments (up to three
// descriptors inline, spilling to the heap beyond that).  Appending,
// slicing and concatenating chains moves/refcounts segment descriptors
// instead of copying payload bytes, so an NFS READ reply can travel
// XDR encoder -> rpc_msg -> secure channel -> stream -> proxy -> client
// without ever being duplicated.  Segments are immutable once adopted:
// whoever hands a Buffer to a chain gives up the right to mutate it
// (see DESIGN.md §9 for the ownership rules).
//
// Copy accounting: every deliberate byte copy made through this API bumps
// `buf_stats().bytes_copied`, and every payload handoff that *avoided* a
// copy (adoption, slicing) bumps `bytes_zerocopy`.  The counters are
// process-global (not per-engine) because buffers flow between hosts; the
// benches snapshot deltas around each run.
#pragma once

#include <array>
#include <concepts>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

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
BufStats& buf_stats();

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
  BufStore& operator=(BufStore other) noexcept {
    std::swap(node_, other.node_);
    return *this;
  }
  ~BufStore() {
    if (node_ != nullptr && --node_->refs == 0) delete node_;
  }

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

  Node* node_ = nullptr;
};

class BufChain {
 public:
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

  BufChain() {}
  BufChain(const BufChain&) = default;
  BufChain& operator=(const BufChain&) = default;
  /// A moved-from chain is empty.
  BufChain(BufChain&& other) noexcept;
  BufChain& operator=(BufChain&& other) noexcept;

  /// Adopts an owned Buffer as a single shared segment — no byte copy.
  /// Implicit on purpose: `co_return enc.take_flat();` and friends read
  /// naturally.  Pass by value; move in.
  BufChain(Buffer data);

  /// Wraps an existing shared segment (refcount bump, counted zero-copy).
  explicit BufChain(Segment seg);

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
    return count_ <= kInline ? std::span<const Segment>(inline_.data(), count_)
                             : std::span<const Segment>(spill_);
  }

  /// Contiguous view when the chain has at most one segment.
  std::optional<ByteView> try_view() const;

  /// Copies all bytes into one fresh Buffer (counted).
  Buffer flatten() const;

  /// Copies min(size(), out.size()) bytes into `out` (counted); returns the
  /// number of bytes written.
  size_t copy_to(MutByteView out) const;

  /// Byte at absolute position i (for tests/debugging; O(#segments)).
  uint8_t at(size_t i) const;

 private:
  static constexpr size_t kInline = 3;

  void push(Segment seg);
  // Moves other's segments into this (empty) chain; leaves other empty.
  void take(BufChain& other) noexcept;

  // Segments live in inline_[0, count_) while count_ <= kInline, and all of
  // them in spill_ beyond that.
  std::array<Segment, kInline> inline_;
  std::vector<Segment> spill_;
  size_t count_ = 0;
  size_t size_ = 0;
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

// XDR — External Data Representation (RFC 4506).
//
// ONC RPC and NFS encode every message in XDR: big-endian 32/64-bit words,
// everything padded to 4-byte alignment, variable-length data prefixed by a
// 32-bit length.  This is the wire-format foundation for src/rpc and src/nfs.
//
// Zero-copy pipeline: the Encoder writes scalar fields into a contiguous
// tail buffer but can graft an existing payload chain between fields
// (put_opaque_ref) without copying it; take() returns the resulting
// BufChain.  The Decoder can be constructed over a BufChain and hands out
// shared sub-slices for bulk opaque data (get_opaque_ref) that keep the
// backing store alive by refcount instead of copying.
//
// Field walkers: a message type writes its wire layout once, as
//
//   template <class Io> void walk(Io& io) {
//     io(status);                              // scalar, enum, bool
//     if (status == kOk) io.string(name, 255); // bounded fields name a cap
//     io(post_attrs);                          // optional: bool + value
//   }
//
// (or as a free walk(Io&, T&) found by argument-dependent lookup), and both
// the Encoder and the Decoder drive it: the Encoder reads each field, the
// Decoder assigns it in the same order.  encode(x) / decode<T>(chain) are
// the one typed entry point.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/bufchain.hpp"
#include "common/bytes.hpp"

namespace sgfs::xdr {

class XdrError : public std::runtime_error {
 public:
  explicit XdrError(const std::string& what) : std::runtime_error(what) {}
};

/// A type with a field walker, member or free (see the header comment).
template <typename T, typename Io>
concept Walkable = requires(T& t, Io& io) { t.walk(io); } ||
                   requires(T& t, Io& io) { walk(io, t); };

class Encoder {
 public:
  void put_u32(uint32_t v);
  void put_i32(int32_t v) { put_u32(static_cast<uint32_t>(v)); }
  void put_u64(uint64_t v);
  void put_i64(int64_t v) { put_u64(static_cast<uint64_t>(v)); }
  void put_bool(bool v) { put_u32(v ? 1 : 0); }

  /// Enum values are encoded as signed 32-bit integers (RFC 4506 §4.3).
  template <typename E>
  void put_enum(E v) {
    put_i32(static_cast<int32_t>(v));
  }

  /// Fixed-length opaque: bytes + zero padding to a 4-byte boundary.
  void put_opaque_fixed(ByteView data);

  /// Variable-length opaque: u32 length, bytes, padding.  Copies.
  void put_opaque(ByteView data);

  /// Variable-length opaque that grafts the payload chain into the output
  /// without copying its bytes (u32 length and padding are still written).
  void put_opaque_ref(BufChain data);

  /// String: identical encoding to variable-length opaque.
  void put_string(std::string_view s);

  // --- field-walker interface (the max_len caps bind only the Decoder) ---
  void operator()(uint32_t v) { put_u32(v); }
  void operator()(uint64_t v) { put_u64(v); }
  void operator()(int64_t v) { put_i64(v); }
  void operator()(bool v) { put_bool(v); }
  template <typename E>
    requires std::is_enum_v<E>
  void operator()(E v) {
    put_enum(v);
  }
  /// Optional ("pointer"): bool present + value when present.
  template <typename T>
  void operator()(const std::optional<T>& v) {
    put_bool(v.has_value());
    if (v) (*this)(*v);
  }
  /// Walks a message.  The walker is one non-const template shared with
  /// the Decoder; on this side it only reads, so a const message is safe.
  template <typename T>
    requires Walkable<T, Encoder>
  void operator()(const T& v) {
    T& fields = const_cast<T&>(v);
    if constexpr (requires { fields.walk(*this); }) {
      fields.walk(*this);
    } else {
      walk(*this, fields);
    }
  }
  void string(std::string_view s, size_t /*max_len*/) { put_string(s); }
  void opaque_ref(const BufChain& data, size_t /*max_len*/) {
    put_opaque_ref(data);
  }
  /// Counted array: u32 element count, then each element.
  template <typename T>
  void array(const std::vector<T>& v, size_t /*max_len*/) {
    put_u32(static_cast<uint32_t>(v.size()));
    for (const T& x : v) (*this)(x);
  }

  size_t size() const { return chain_.size() + buf_.size(); }

  /// Contiguous view of the encoded bytes.  Only valid while no payload has
  /// been grafted (put_opaque_ref); throws XdrError otherwise.
  const Buffer& data() const;

  /// Returns the encoded message as a segment chain (no copy).
  BufChain take();

  /// Returns the encoded message as one contiguous Buffer.  Free when
  /// nothing was grafted; otherwise flattens (counted copy).
  Buffer take_flat();

 private:
  static constexpr size_t kMinReserve = 128;  // first tail allocation

  void flush_tail();

  BufChain chain_;
  Buffer buf_;  // contiguous tail not yet adopted into chain_
};

class Decoder {
 public:
  /// Borrowed view: out-slices (get_opaque_ref) must copy because there is
  /// no shared store to refcount.
  explicit Decoder(ByteView data) : data_(data) {}

  /// Exact-match overload: a Buffer would otherwise be ambiguous between
  /// the ByteView conversion and the implicit Buffer -> BufChain adoption.
  explicit Decoder(const Buffer& data) : data_(ByteView(data)) {}

  /// Chain-backed view: out-slices share the chain's store.  A chain with
  /// more than one segment is flattened once up front (counted copy) —
  /// in-practice RPC messages arrive as a single segment.
  explicit Decoder(const BufChain& chain);

  uint32_t get_u32();
  int32_t get_i32() { return static_cast<int32_t>(get_u32()); }
  uint64_t get_u64();
  int64_t get_i64() { return static_cast<int64_t>(get_u64()); }
  bool get_bool();

  template <typename E>
  E get_enum() {
    return static_cast<E>(get_i32());
  }

  /// Reads exactly out.size() opaque bytes (+ skips padding).
  void get_opaque_fixed(MutByteView out);

  /// Reads a variable-length opaque; rejects lengths above max_len. Copies.
  Buffer get_opaque(size_t max_len = kDefaultMax);

  /// Reads a variable-length opaque as a shared sub-slice of the backing
  /// store (zero-copy when chain-backed, copy when view-backed).
  BufChain get_opaque_ref(size_t max_len = kDefaultMax);

  /// Returns every remaining byte as a shared sub-slice and consumes it.
  BufChain remainder_ref();

  /// Reads a string; rejects lengths above max_len.
  std::string get_string(size_t max_len = kDefaultMax);

  // --- field-walker interface (the same walker the Encoder drives) -------
  void operator()(uint32_t& v) { v = get_u32(); }
  void operator()(uint64_t& v) { v = get_u64(); }
  void operator()(int64_t& v) { v = get_i64(); }
  void operator()(bool& v) { v = get_bool(); }
  template <typename E>
    requires std::is_enum_v<E>
  void operator()(E& v) {
    v = get_enum<E>();
  }
  template <typename T>
  void operator()(std::optional<T>& v) {
    if (get_bool()) {
      (*this)(v.emplace());
    } else {
      v.reset();
    }
  }
  template <typename T>
    requires Walkable<T, Decoder>
  void operator()(T& v) {
    if constexpr (requires { v.walk(*this); }) {
      v.walk(*this);
    } else {
      walk(*this, v);
    }
  }
  void string(std::string& s, size_t max_len) { s = get_string(max_len); }
  void opaque_ref(BufChain& data, size_t max_len) {
    data = get_opaque_ref(max_len);
  }
  /// Counted array; rejects more than max_len elements before allocating.
  template <typename T>
  void array(std::vector<T>& v, size_t max_len) {
    const uint32_t n = get_u32();
    if (n > max_len) throw XdrError("array exceeds limit");
    v.resize(n);
    for (T& x : v) (*this)(x);
  }

  size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return pos_ == data_.size(); }

  /// Throws unless the buffer is fully consumed — catches trailing garbage.
  void expect_done() const;

  static constexpr size_t kDefaultMax = 1u << 26;  // 64 MiB sanity bound

 private:
  ByteView need(size_t n);
  void skip_padding(size_t n);
  /// Hands out [pos_, pos_+n) as a chain and advances (no padding skip).
  BufChain take_ref(size_t n);

  ByteView data_;
  size_t pos_ = 0;
  // When chain-backed: the shared store data_ points into, and the offset
  // of data_[0] within it.  Keeps out-slices alive by refcount.
  BufStore store_;
  size_t base_ = 0;
};

/// Encodes one message into a fresh chain (grafted payloads stay shared).
template <typename T>
BufChain encode(const T& msg) {
  Encoder enc;
  enc(msg);
  return enc.take();
}

/// Decodes one message from the front of `wire`; payload fields come out
/// as shared slices of it.  Trailing bytes are left to the caller.
template <typename T>
T decode(const BufChain& wire) {
  Decoder dec(wire);
  T out;
  dec(out);
  return out;
}

}  // namespace sgfs::xdr

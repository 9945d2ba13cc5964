// Simulated network: links, reliable byte streams, listeners.
//
// This is the repo's NIST Net substitute (paper §6.1): every host pair is
// joined by a link with one-way propagation delay and a bandwidth that is
// shared, per direction, by all connections on that pair.  Streams are
// reliable and ordered (TCP semantics); connection setup costs one RTT.
// Same-host ("loopback") traffic uses a separate low-latency link — crossing
// it still costs real simulated time, which is exactly the user-level
// forwarding penalty the paper measures.
#pragma once

#include <coroutine>
#include <deque>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/bufchain.hpp"
#include "common/bytes.hpp"
#include "net/host.hpp"
#include "sim/channel.hpp"
#include "sim/engine.hpp"

namespace sgfs::net {

class FaultPlan;

/// "host:port" endpoint.
///
/// NOTE: deliberately NOT an aggregate.  GCC 12 miscompiles aggregate
/// (braced-init) temporaries used as arguments inside co_await expressions
/// (bitwise frame copy -> bad free).  A user-defined constructor sidesteps
/// the bug; keep one on every struct that crosses a coroutine call boundary.
struct Address {
  std::string host;
  uint16_t port = 0;

  Address() = default;
  Address(std::string h, uint16_t p) : host(std::move(h)), port(p) {}

  auto operator<=>(const Address&) const = default;
  std::string to_string() const {
    return host + ":" + std::to_string(port);
  }
};

/// One-way propagation delay + shared bandwidth of a host pair.
struct LinkParams {
  sim::SimDur latency_one_way = 150 * sim::kMicrosecond;  // LAN RTT 0.3 ms
  double bytes_per_sec = 940.0e6 / 8.0;                   // effective GbE

  static LinkParams lan() { return {}; }
  static LinkParams wan(sim::SimDur rtt) {
    // The paper's emulated WAN keeps the GbE substrate; NIST Net adds delay.
    return {rtt / 2, 940.0e6 / 8.0};
  }
  static LinkParams loopback() {
    return {5 * sim::kMicrosecond, 800.0e6};  // ~800 MB/s memory-speed copy
  }
};

class StreamClosed : public std::runtime_error {
 public:
  StreamClosed() : std::runtime_error("stream closed by peer") {}

 protected:
  explicit StreamClosed(const std::string& what) : std::runtime_error(what) {}
};

/// connect() target host is down (crashed, not yet restarted).  Derives from
/// StreamClosed so every reconnect loop that already handles a dropped
/// connection also handles "the server is still rebooting" — it retries
/// after its backoff instead of treating the refusal as fatal.
class ConnectionRefused : public StreamClosed {
 public:
  explicit ConnectionRefused(const std::string& target)
      : StreamClosed("connection refused (host down): " + target) {}
};

class Stream;
using StreamPtr = std::shared_ptr<Stream>;

class Network {
 public:
  explicit Network(sim::Engine& eng) : eng_(eng) {}
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  sim::Engine& engine() { return eng_; }

  /// Creates a host; name must be unique.
  Host& add_host(const std::string& name, DiskParams disk = {});
  Host& host(const std::string& name);

  /// Default parameters for links between distinct hosts.
  void set_default_link(LinkParams params) {
    default_link_ = params;
    ++params_gen_;
  }
  /// Parameters for a specific unordered host pair (overrides default).
  /// Takes effect on open streams from their next write.
  void set_link(const std::string& a, const std::string& b,
                LinkParams params);
  /// Parameters for same-host traffic.
  void set_loopback(LinkParams params) {
    loopback_ = params;
    ++params_gen_;
  }

  LinkParams link_params(const std::string& a, const std::string& b) const;

  /// Installs a fault-injection plan (nullptr = perfect network, the
  /// default).  Consulted by the message transports, not by Stream: faults
  /// are injected at whole-message granularity so the reliable stream
  /// framing stays coherent (see net/fault.hpp).
  void set_fault_plan(std::shared_ptr<FaultPlan> plan) {
    fault_plan_ = std::move(plan);
  }
  FaultPlan* fault_plan() const { return fault_plan_.get(); }

  class Listener {
   public:
    Listener(Network& net, Address addr)
        : registry_(net.registry_), addr_(addr), pending_(net.engine()) {}
    ~Listener();

    const Address& address() const { return addr_; }

    /// Waits for an inbound connection; nullptr after close().
    sim::Task<StreamPtr> accept();

    /// Stops accepting; queued connections are drained, then nullptr.
    void close();

   private:
    friend class Network;
    // Weak: the Network (and its registry) may be destroyed while a
    // detached accept loop still holds this listener alive.
    std::weak_ptr<std::map<Address, Listener*>> registry_;
    Address addr_;
    sim::Channel<StreamPtr> pending_;
    bool closed_ = false;
  };

  /// Binds a listener on (host, port).  Throws if the port is taken.
  std::unique_ptr<Listener> listen(Host& host, uint16_t port);

  /// Opens a connection from `from` to `to`; costs one RTT.
  /// Throws std::runtime_error if nothing listens there, and
  /// ConnectionRefused if the target host is down (crash_restart window).
  sim::Task<StreamPtr> connect(Host& from, const Address& to);

  /// Resets every stream with an endpoint on `host` (both ends observe
  /// StreamClosed; buffered and in-flight data is discarded).  Called by
  /// Host::crash_restart at the crash instant.
  void reset_host_streams(const std::string& host);

 private:
  friend class Stream;

  void register_stream(const std::string& host, std::weak_ptr<Stream> s);

  // Shared per-ordered-pair serialization state (bandwidth queue).  Each
  // Stream caches a pointer to its direction's state (map nodes are
  // stable).  `gen` trails params_gen_ until the first use, and again after
  // each set_* call, until refreshed() re-reads the parameters.
  struct LinkState {
    LinkParams params;
    sim::SimTime next_free = 0;
    uint64_t gen = 0;
  };
  // `st` (the state for `from -> to`) with parameters current as of the
  // last set_default_link / set_link / set_loopback.
  LinkState& refreshed(LinkState& st, const std::string& from,
                       const std::string& to);

  sim::Engine& eng_;
  std::map<std::string, std::unique_ptr<Host>> hosts_;
  LinkParams default_link_ = LinkParams::lan();
  LinkParams loopback_ = LinkParams::loopback();
  std::map<std::pair<std::string, std::string>, LinkParams> link_overrides_;
  std::map<std::pair<std::string, std::string>, LinkState> link_states_;
  uint64_t params_gen_ = 1;  // bumped by every link-parameter setter
  std::shared_ptr<std::map<Address, Listener*>> registry_ =
      std::make_shared<std::map<Address, Listener*>>();
  std::shared_ptr<FaultPlan> fault_plan_;
  // Per-host weak stream index so crash_restart can reset live connections.
  // Weak pointers: the index must not extend stream lifetimes; expired
  // entries are pruned on reset and periodically on registration.
  std::map<std::string, std::vector<std::weak_ptr<Stream>>> streams_;
};

/// A reliable, ordered, bidirectional byte stream between two hosts.
class Stream : public std::enable_shared_from_this<Stream> {
 public:
  /// Sends bytes: `co_await s.write(wire)` completes once the data is
  /// serialized onto the link.  The owned buffer becomes the shared store
  /// of the in-flight delivery as is.  Throws StreamClosed (synchronously)
  /// after close or reset.
  sim::Engine::SleepAwaiter write(Buffer data);

  /// Copies `data` into the in-flight delivery buffer.
  sim::Engine::SleepAwaiter write(ByteView data) {
    return write(Buffer(data.begin(), data.end()));
  }

  /// Scatter-gather send.  A one-segment chain travels as is: the receiver
  /// gets the sender's store, shared, not copied.  A longer chain is
  /// gathered once into the in-flight delivery buffer; that gather models
  /// the NIC walking an iovec, so it is deliberately absent from
  /// buf_stats().
  sim::Engine::SleepAwaiter write(const BufChain& data);

  /// Copies up to out.size() buffered bytes into `out` without waiting;
  /// returns the count (0 when nothing is buffered, at EOF too).
  size_t try_read(MutByteView out);

  /// Removes n buffered bytes and returns them as slices of the stores
  /// they were delivered in, without copying; fewer only at EOF or after a
  /// reset, when it returns what is left.  Wait for readable_now(n) first.
  BufChain take(size_t n);

  /// True once n bytes are buffered or the read side hit EOF/reset.
  bool readable_now(size_t n) const { return rx_.buffered >= n || rx_.eof; }

  /// Frame-less wait for input: `co_await s.readable(n)` returns at once
  /// when readable_now(n), else parks until the next delivery, which may
  /// still be short.  Callers loop, with the co_await as its own statement
  /// (GCC 12 miscompiles it inside a condition; DESIGN.md §11):
  ///   while (!s.readable_now(n)) co_await s.readable(n);
  struct ReadableAwaiter {
    Stream& s;
    size_t n;
    bool await_ready() const noexcept { return s.readable_now(n); }
    void await_suspend(std::coroutine_handle<> h) {
      s.rx_.waiters.push_back(h);
    }
    void await_resume() const noexcept {}
  };
  ReadableAwaiter readable(size_t n) { return {*this, n}; }

  /// Reads at least 1 byte (up to out.size()); returns 0 at EOF.
  sim::Task<size_t> read_some(MutByteView out);

  /// Closes the write direction (half-close, like shutdown(SHUT_WR));
  /// the peer sees EOF after in-flight data.  Reads remain possible.
  void close();

  bool write_closed() const { return local_closed_; }
  Host& local_host() { return *local_; }
  Host& remote_host() { return *remote_; }

  /// Total payload bytes sent / received on this stream.
  uint64_t bytes_sent() const { return bytes_sent_; }
  uint64_t bytes_received() const { return bytes_received_; }

 private:
  friend class Network;

  struct Pipe {
    // Unread bytes, one entry per delivery; reads advance the front
    // entry's offset in place.
    std::deque<BufChain::Segment> segments;
    size_t buffered = 0;
    bool eof = false;
    std::deque<std::coroutine_handle<>> waiters;
  };

  static std::pair<StreamPtr, StreamPtr> make_pair(Network& net, Host& a,
                                                   Host& b);

  Stream() = default;
  // The link state of this direction, parameters refreshed if changed.
  Network::LinkState& link() {
    return net_->refreshed(*link_, local_->name(), remote_->name());
  }
  // The one write path: `data` becomes the in-flight delivery.
  sim::Engine::SleepAwaiter write_segment(BufChain::Segment data);
  void deliver(BufChain::Segment data);
  void deliver_eof();
  void wake_readers();
  // Connection-reset: discards buffered data, turns future delivers into
  // no-ops, and fails both read and write directions with StreamClosed.
  void reset();

  Network* net_ = nullptr;
  Network::LinkState* link_ = nullptr;  // local -> remote, set by make_pair
  Host* local_ = nullptr;
  Host* remote_ = nullptr;
  std::weak_ptr<Stream> peer_;
  Pipe rx_;
  bool local_closed_ = false;
  bool reset_ = false;
  uint64_t bytes_sent_ = 0;
  uint64_t bytes_received_ = 0;
};

}  // namespace sgfs::net

#include "rpc/transport.hpp"

#include "net/fault.hpp"

namespace sgfs::rpc {

namespace {

// Faults are injected at whole-RPC-message granularity (never on stream
// fragments — partial loss would desynchronise the record framing, which
// models a TCP checksum/sequence failure, not a lost datagram).
net::FaultPlan::Action fault_action(net::Stream& stream) {
  net::FaultPlan* plan = stream.local_host().network().fault_plan();
  if (!plan) return net::FaultPlan::Action::kDeliver;
  return plan->on_message(stream.local_host().name(),
                          stream.remote_host().name(),
                          stream.local_host().engine().now());
}

// Gray-failure delay: a slow-link window holds the message before it
// reaches the wire (congestion ahead of the NIC).  Delivered-but-late is
// exactly what distinguishes gray failures from the drop faults above —
// the retransmission timer may fire even though nothing was lost, so the
// duplicate-request cache sees live traffic.  With no fault plan or no
// active window it is 0, and callers await nothing, which leaves
// fault-free timing bit-identical.
sim::SimDur gray_delay(net::Stream& stream) {
  net::FaultPlan* plan = stream.local_host().network().fault_plan();
  if (!plan) return 0;
  return plan->added_delay(stream.local_host().name(),
                           stream.remote_host().name(),
                           stream.local_host().engine().now());
}

uint32_t load_be32(const uint8_t* p) {
  return (static_cast<uint32_t>(p[0]) << 24) |
         (static_cast<uint32_t>(p[1]) << 16) |
         (static_cast<uint32_t>(p[2]) << 8) | static_cast<uint32_t>(p[3]);
}

}  // namespace

sim::Task<void> StreamTransport::send(BufChain message) {
  switch (fault_action(*stream_)) {
    case net::FaultPlan::Action::kDeliver:
      break;
    case net::FaultPlan::Action::kDrop:
    case net::FaultPlan::Action::kCorrupt:
      // On the plain transport a corrupted frame is caught by the link CRC
      // and discarded before it reaches the RPC layer — both cases behave
      // as a loss; recovery is the caller's retransmission timer.
      co_return;
  }
  if (const sim::SimDur d = gray_delay(*stream_); d > 0) {
    co_await stream_->local_host().engine().sleep(d);
  }
  // RFC 5531 record marking: each fragment carries a 32-bit header whose MSB
  // flags the final fragment of the record.  Each fragment is gathered once,
  // mark and shared message slice together, into the in-flight buffer the
  // stream delivers (the NIC walking an iovec; not a counted copy).
  size_t off = 0;
  do {
    const size_t len = std::min(message.size() - off, kMaxFragment);
    const bool last = off + len == message.size();
    const uint32_t mark =
        static_cast<uint32_t>(len) | (last ? 0x80000000u : 0);
    // Bound to a local: segments() views the slice's own descriptors.
    const BufChain part = message.slice(off, len);
    Buffer wire;
    wire.reserve(4 + len);
    for (int shift = 24; shift >= 0; shift -= 8) {
      wire.push_back(static_cast<uint8_t>(mark >> shift));
    }
    for (const auto& seg : part.segments()) {
      wire.insert(wire.end(), seg.view().begin(), seg.view().end());
    }
    co_await stream_->write(std::move(wire));
    off += len;
  } while (off < message.size());
}

sim::Task<BufChain> StreamTransport::recv() {
  // Each fragment is a slice of the buffer the stream delivered it in; a
  // multi-fragment record reassembles by chaining, not by re-copying.
  net::Stream& s = *stream_;
  BufChain message;
  for (;;) {
    uint8_t mark[4];
    while (!s.readable_now(sizeof mark)) {
      co_await s.readable(sizeof mark);
    }
    if (s.try_read(mark) != sizeof mark) throw net::StreamClosed();
    const uint32_t word = load_be32(mark);
    const bool last = word & 0x80000000u;
    const uint32_t len = word & 0x7fffffffu;
    if (len > (64u << 20)) throw std::runtime_error("RPC fragment too large");
    while (!s.readable_now(len)) co_await s.readable(len);
    BufChain body = s.take(len);
    if (body.size() != len) throw net::StreamClosed();
    if (body.segments().size() > 1) {
      // The fragment came in several deliveries (the SSH tunnel re-frames
      // RPCs into 16 KiB pieces): reassemble it in one buffer, as a socket
      // read would, so the decoder reads it in one piece.  Like the stream
      // read every fragment once made, this copy is not counted.
      Buffer whole;
      whole.reserve(len);
      for (const auto& seg : body.segments()) {
        whole.insert(whole.end(), seg.view().begin(), seg.view().end());
      }
      body = BufChain(std::move(whole));
    }
    message.append(std::move(body));
    if (last) co_return message;
  }
}

sim::Task<void> SecureTransport::send(BufChain message) {
  switch (fault_action(channel_->stream())) {
    case net::FaultPlan::Action::kDeliver:
      break;
    case net::FaultPlan::Action::kDrop:
      // Lost before reaching the wire: no record sequence number is
      // consumed, so the channel stays coherent and the retransmission
      // (a fresh record) is accepted normally.
      co_return;
    case net::FaultPlan::Action::kCorrupt:
      // Bits flip in flight AFTER protection: the sequence number is
      // consumed on both sides and the receiver's MAC check fails, which
      // fail-closes the channel — recovery requires a re-handshake.
      channel_->corrupt_next_record();
      break;
  }
  if (const sim::SimDur d = gray_delay(channel_->stream()); d > 0) {
    co_await channel_->stream().local_host().engine().sleep(d);
  }
  co_await channel_->send_chain(std::move(message));
}

}  // namespace sgfs::rpc

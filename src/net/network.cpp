#include "net/network.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace sgfs::net {

Host& Network::add_host(const std::string& name, DiskParams disk) {
  auto [it, inserted] = hosts_.try_emplace(
      name, std::make_unique<Host>(eng_, *this, name, disk));
  if (!inserted) throw std::runtime_error("duplicate host: " + name);
  return *it->second;
}

Host& Network::host(const std::string& name) {
  auto it = hosts_.find(name);
  if (it == hosts_.end()) throw std::runtime_error("unknown host: " + name);
  return *it->second;
}

void Network::set_link(const std::string& a, const std::string& b,
                       LinkParams params) {
  link_overrides_[{std::min(a, b), std::max(a, b)}] = params;
  ++params_gen_;
}

LinkParams Network::link_params(const std::string& a,
                                const std::string& b) const {
  if (a == b) return loopback_;
  auto it = link_overrides_.find({std::min(a, b), std::max(a, b)});
  return it != link_overrides_.end() ? it->second : default_link_;
}

Network::LinkState& Network::refreshed(LinkState& st, const std::string& from,
                                       const std::string& to) {
  if (st.gen != params_gen_) {
    st.params = link_params(from, to);
    st.gen = params_gen_;
  }
  return st;
}

// --- Listener ---------------------------------------------------------------

Network::Listener::~Listener() {
  close();
  if (auto reg = registry_.lock()) reg->erase(addr_);
}

sim::Task<StreamPtr> Network::Listener::accept() {
  auto s = co_await pending_.recv();
  co_return s ? *s : nullptr;
}

void Network::Listener::close() {
  if (!closed_) {
    closed_ = true;
    pending_.close();
  }
}

std::unique_ptr<Network::Listener> Network::listen(Host& host, uint16_t port) {
  Address addr{host.name(), port};
  if (registry_->count(addr)) {
    throw std::runtime_error("address in use: " + addr.to_string());
  }
  auto l = std::make_unique<Listener>(*this, addr);
  (*registry_)[addr] = l.get();
  return l;
}

sim::Task<StreamPtr> Network::connect(Host& from, const Address& to) {
  // TCP-style three-way handshake: connection usable after one RTT.
  const LinkParams link = link_params(from.name(), to.host);
  co_await eng_.sleep(2 * link.latency_one_way);
  auto it = registry_->find(to);
  if (it == registry_->end() || it->second->closed_) {
    throw std::runtime_error("connection refused: " + to.to_string());
  }
  Host& remote = host(to.host);
  if (remote.is_down()) throw ConnectionRefused(to.to_string());
  auto [client_end, server_end] = Stream::make_pair(*this, from, remote);
  it->second->pending_.send(server_end);
  co_return client_end;
}

void Network::register_stream(const std::string& host,
                              std::weak_ptr<Stream> s) {
  auto& vec = streams_[host];
  // Amortized prune so long runs with churning connections stay bounded.
  if (vec.size() >= 64 && vec.size() % 64 == 0) {
    std::erase_if(vec, [](const std::weak_ptr<Stream>& w) {
      return w.expired();
    });
  }
  vec.push_back(std::move(s));
}

void Network::reset_host_streams(const std::string& host) {
  auto it = streams_.find(host);
  if (it == streams_.end()) return;
  for (auto& w : it->second) {
    if (auto s = w.lock()) {
      s->reset();
      if (auto p = s->peer_.lock()) p->reset();
    }
  }
  std::erase_if(it->second, [](const std::weak_ptr<Stream>& w) {
    return w.expired();
  });
}

// --- Stream -----------------------------------------------------------------

std::pair<StreamPtr, StreamPtr> Stream::make_pair(Network& net, Host& a,
                                                  Host& b) {
  auto sa = StreamPtr(new Stream());
  auto sb = StreamPtr(new Stream());
  sa->net_ = &net;
  sa->link_ = &net.link_states_[{a.name(), b.name()}];
  sa->local_ = &a;
  sa->remote_ = &b;
  sa->peer_ = sb;
  sb->net_ = &net;
  sb->link_ = &net.link_states_[{b.name(), a.name()}];
  sb->local_ = &b;
  sb->remote_ = &a;
  sb->peer_ = sa;
  net.register_stream(a.name(), sa);
  net.register_stream(b.name(), sb);
  return {sa, sb};
}

sim::Engine::SleepAwaiter Stream::write(Buffer data) {
  const size_t n = data.size();
  return write_segment(
      BufChain::Segment(BufStore::adopt(std::move(data)), 0, n));
}

sim::Engine::SleepAwaiter Stream::write(const BufChain& data) {
  if (data.segments().size() == 1) {
    return write_segment(data.segments().front());
  }
  // Gather the chain into the one in-flight Buffer the link delivers.
  Buffer wire;
  wire.reserve(data.size());
  for (const auto& seg : data.segments()) {
    wire.insert(wire.end(), seg.view().begin(), seg.view().end());
  }
  return write(std::move(wire));
}

sim::Engine::SleepAwaiter Stream::write_segment(BufChain::Segment data) {
  if (local_closed_) throw StreamClosed();
  auto& eng = net_->engine();
  auto& st = link();
  const sim::SimTime depart = std::max(eng.now(), st.next_free);
  const sim::SimDur serialization = static_cast<sim::SimDur>(
      static_cast<double>(data.len) / st.params.bytes_per_sec *
      static_cast<double>(sim::kSecond));
  st.next_free = depart + serialization;
  const sim::SimTime arrive = depart + serialization +
                              st.params.latency_one_way;
  bytes_sent_ += data.len;
  eng.call_at(arrive, [peer = peer_, data = std::move(data)]() mutable {
    if (auto p = peer.lock()) p->deliver(std::move(data));
  });
  // The sender is occupied until its data is serialized onto the link.
  return eng.sleep_until(depart + serialization);
}

void Stream::close() {
  if (local_closed_) return;
  local_closed_ = true;
  auto& eng = net_->engine();
  auto& st = link();
  // EOF travels in-order behind already-queued data.
  const sim::SimTime depart = std::max(eng.now(), st.next_free);
  const sim::SimTime arrive = depart + st.params.latency_one_way;
  eng.call_at(arrive, [peer = peer_] {
    if (auto p = peer.lock()) p->deliver_eof();
  });
}

void Stream::deliver(BufChain::Segment data) {
  if (reset_) return;  // data in flight to a reset stream is lost
  if (data.len == 0) return;
  bytes_received_ += data.len;
  rx_.buffered += data.len;
  rx_.segments.push_back(std::move(data));
  wake_readers();
}

void Stream::deliver_eof() {
  if (reset_) return;
  rx_.eof = true;
  wake_readers();
}

void Stream::reset() {
  if (reset_) return;
  reset_ = true;
  local_closed_ = true;  // writes now throw StreamClosed
  rx_.segments.clear();
  rx_.buffered = 0;
  rx_.eof = true;  // readers drain to EOF and see a short take
  wake_readers();
}

void Stream::wake_readers() {
  for (auto h : rx_.waiters) net_->engine().schedule_now(h);
  rx_.waiters.clear();
}

size_t Stream::try_read(MutByteView out) {
  size_t copied = 0;
  while (copied < out.size() && rx_.buffered > 0) {
    BufChain::Segment& seg = rx_.segments.front();
    const size_t take = std::min(seg.len, out.size() - copied);
    std::copy_n(seg.store->data() + seg.offset, take, out.data() + copied);
    copied += take;
    rx_.buffered -= take;
    if (take == seg.len) {
      rx_.segments.pop_front();
    } else {
      seg.offset += take;
      seg.len -= take;
    }
  }
  return copied;
}

BufChain Stream::take(size_t n) {
  BufChain out;
  while (n > 0 && rx_.buffered > 0) {
    BufChain::Segment& seg = rx_.segments.front();
    const size_t k = std::min(seg.len, n);
    if (k == seg.len) {
      out.append(BufChain(std::move(seg)));
      rx_.segments.pop_front();
    } else {
      out.append(BufChain(BufChain::Segment(seg.store, seg.offset, k)));
      seg.offset += k;
      seg.len -= k;
    }
    rx_.buffered -= k;
    n -= k;
  }
  return out;
}

sim::Task<size_t> Stream::read_some(MutByteView out) {
  if (out.empty()) co_return 0;
  while (!readable_now(1)) co_await readable(1);
  co_return try_read(out);
}

}  // namespace sgfs::net

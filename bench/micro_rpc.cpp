// Microbenchmarks (wall clock, google-benchmark): XDR codec and RPC message
// serialization — the per-message work every simulated RPC really performs.
//
// Each benchmark also reports the buffer pipeline's copy accounting
// (bytes_copied/iter, bytes_zerocopy/iter from sgfs::buf_stats()) so the
// zero-copy refactor's effect shows up next to the wall-clock numbers.
// For machine-readable output use google-benchmark's native
// `--benchmark_out=PATH --benchmark_format=json`.
#include <benchmark/benchmark.h>

#include <cstring>

#include "common/bufchain.hpp"
#include "common/rng.hpp"
#include "nfs/nfs3.hpp"
#include "rpc/rpc_msg.hpp"

using namespace sgfs;

namespace {

class CopyCounters {
 public:
  explicit CopyCounters(benchmark::State& state)
      : state_(state), start_(buf_stats()) {}
  ~CopyCounters() {
    const BufStats& now = buf_stats();
    const double iters = static_cast<double>(state_.iterations());
    if (iters <= 0) return;
    state_.counters["bytes_copied/iter"] =
        static_cast<double>(now.bytes_copied - start_.bytes_copied) / iters;
    state_.counters["bytes_zerocopy/iter"] =
        static_cast<double>(now.bytes_zerocopy - start_.bytes_zerocopy) /
        iters;
  }

 private:
  benchmark::State& state_;
  BufStats start_;
};

void BM_XdrEncode32kOpaque(benchmark::State& state) {
  Rng rng(1);
  Buffer data = rng.bytes(32 * 1024);
  CopyCounters counters(state);
  for (auto _ : state) {
    xdr::Encoder enc;
    enc.put_u32(7);
    enc.put_opaque(data);
    benchmark::DoNotOptimize(enc.take());
  }
  state.SetBytesProcessed(state.iterations() * 32 * 1024);
}
BENCHMARK(BM_XdrEncode32kOpaque);

// The grafting path the NFS/RPC layers actually use: the payload chain is
// attached by reference, so encoding cost is independent of payload size.
void BM_XdrEncode32kOpaqueRef(benchmark::State& state) {
  Rng rng(1);
  const BufChain data{rng.bytes(32 * 1024)};
  CopyCounters counters(state);
  for (auto _ : state) {
    xdr::Encoder enc;
    enc.put_u32(7);
    enc.put_opaque_ref(data);
    benchmark::DoNotOptimize(enc.take());
  }
  state.SetBytesProcessed(state.iterations() * 32 * 1024);
}
BENCHMARK(BM_XdrEncode32kOpaqueRef);

void BM_XdrDecode32kOpaque(benchmark::State& state) {
  Rng rng(1);
  xdr::Encoder enc;
  enc.put_u32(7);
  enc.put_opaque(rng.bytes(32 * 1024));
  Buffer wire = enc.take_flat();
  CopyCounters counters(state);
  for (auto _ : state) {
    xdr::Decoder dec(wire);
    benchmark::DoNotOptimize(dec.get_u32());
    benchmark::DoNotOptimize(dec.get_opaque());
  }
  state.SetBytesProcessed(state.iterations() * 32 * 1024);
}
BENCHMARK(BM_XdrDecode32kOpaque);

// Chain-backed decode hands out a shared sub-slice instead of copying.
void BM_XdrDecode32kOpaqueRef(benchmark::State& state) {
  Rng rng(1);
  xdr::Encoder enc;
  enc.put_u32(7);
  enc.put_opaque(rng.bytes(32 * 1024));
  const BufChain wire{enc.take_flat()};
  CopyCounters counters(state);
  for (auto _ : state) {
    xdr::Decoder dec(wire);
    benchmark::DoNotOptimize(dec.get_u32());
    benchmark::DoNotOptimize(dec.get_opaque_ref());
  }
  state.SetBytesProcessed(state.iterations() * 32 * 1024);
}
BENCHMARK(BM_XdrDecode32kOpaqueRef);

// Models the wire hop between serialize and deserialize: the NIC gathers
// the outbound chain into one contiguous delivery buffer (deliberately
// uncounted, exactly like net::Stream::write(BufChain)), and the receiver
// adopts that single segment.
BufChain deliver(const BufChain& wire) {
  Buffer flat(wire.size());
  size_t off = 0;
  for (const auto& seg : wire.segments()) {
    std::memcpy(flat.data() + off, seg.store->data() + seg.offset, seg.len);
    off += seg.len;
  }
  return BufChain{std::move(flat)};
}

void BM_RpcCallRoundTrip(benchmark::State& state) {
  Rng rng(2);
  Buffer args = rng.bytes(static_cast<size_t>(state.range(0)));
  CopyCounters counters(state);
  for (auto _ : state) {
    rpc::CallMsg call;
    call.xid = 1;
    call.prog = nfs::kNfsProgram;
    call.vers = 3;
    call.proc = 6;
    call.cred = rpc::OpaqueAuth::sys(rpc::AuthSys(1000, 1000));
    call.args = BufChain(args);
    BufChain arrived = deliver(call.serialize());
    benchmark::DoNotOptimize(rpc::CallMsg::deserialize(arrived));
  }
}
BENCHMARK(BM_RpcCallRoundTrip)->Arg(128)->Arg(32 * 1024);

void BM_Nfs3ReadResCodec(benchmark::State& state) {
  Rng rng(3);
  nfs::ReadRes res;
  res.count = 32 * 1024;
  res.eof = false;
  res.data = rng.bytes(32 * 1024);
  vfs::Attributes attrs;
  attrs.size = 1 << 20;
  res.post_attrs = attrs;
  CopyCounters counters(state);
  for (auto _ : state) {
    BufChain arrived = deliver(xdr::encode(res));
    benchmark::DoNotOptimize(xdr::decode<nfs::ReadRes>(arrived));
  }
  state.SetBytesProcessed(state.iterations() * 32 * 1024);
}
BENCHMARK(BM_Nfs3ReadResCodec);

}  // namespace

BENCHMARK_MAIN();

// Microbenchmarks (wall clock, google-benchmark): the discrete-event engine
// and the per-message path on top of it.
//
// Each benchmark reports `events/s`, simulation events executed per wall
// second, next to its own unit of work:
//   - same-instant ping-pong: two actors trading a token through channels,
//     every hop at one simulated instant (the same-instant FIFO path);
//   - 1000-actor sleep loop: timed wakeups spread over a small window (the
//     heap path);
//   - 1000-actor frame churn: each spawned actor awaits a three-deep Task
//     chain that sleeps once, then finishes, so frames are made and freed
//     at the rate of the message path's nested calls;
//   - plain RPC round trip: one client calling an echo program over the
//     simulated LAN (stream writes, deliveries, retransmission timers,
//     record marking, xid matching).
// For machine-readable output use google-benchmark's native
// `--benchmark_out=PATH --benchmark_format=json`.
#include <benchmark/benchmark.h>

#include <memory>

#include "common/rng.hpp"
#include "net/network.hpp"
#include "rpc/rpc_client.hpp"
#include "rpc/rpc_server.hpp"
#include "sim/channel.hpp"
#include "sim/engine.hpp"

using namespace sgfs;

namespace {

void report_events(benchmark::State& state, uint64_t events) {
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}

void BM_EngineSameInstantPingPong(benchmark::State& state) {
  constexpr int kRounds = 10000;
  uint64_t events = 0;
  for (auto _ : state) {
    sim::Engine eng;
    sim::Channel<int> ping(eng), pong(eng);
    eng.spawn([](sim::Channel<int>& in, sim::Channel<int>& out,
                 int rounds) -> sim::Task<void> {
      for (int i = 0; i < rounds; ++i) {
        out.send(i);
        (void)co_await in.recv();
      }
      out.close();
    }(pong, ping, kRounds));
    eng.spawn([](sim::Channel<int>& in,
                 sim::Channel<int>& out) -> sim::Task<void> {
      while (auto v = co_await in.recv()) out.send(*v);
    }(ping, pong));
    eng.run();
    events += eng.events_processed();
    benchmark::DoNotOptimize(events);
  }
  report_events(state, events);
  state.SetItemsProcessed(state.iterations() * kRounds);
}
BENCHMARK(BM_EngineSameInstantPingPong)->Unit(benchmark::kMillisecond);

void BM_EngineSleepLoop1000Actors(benchmark::State& state) {
  constexpr int kActors = 1000;
  constexpr int kSleeps = 100;
  uint64_t events = 0;
  for (auto _ : state) {
    sim::Engine eng;
    for (int a = 0; a < kActors; ++a) {
      eng.spawn([](sim::Engine& e, uint64_t seed) -> sim::Task<void> {
        Rng r(seed);
        for (int i = 0; i < kSleeps; ++i) {
          co_await e.sleep(static_cast<sim::SimDur>(1 + r.next_below(1000)));
        }
      }(eng, static_cast<uint64_t>(a) + 1));
    }
    eng.run();
    events += eng.events_processed();
    benchmark::DoNotOptimize(events);
  }
  report_events(state, events);
  state.SetItemsProcessed(state.iterations() * kActors * kSleeps);
}
BENCHMARK(BM_EngineSleepLoop1000Actors)->Unit(benchmark::kMillisecond);

sim::Task<int> churn_leaf(sim::Engine& e, int a) {
  co_await e.sleep(1 + a % 97);
  co_return a;
}
sim::Task<int> churn_mid(sim::Engine& e, int a) {
  co_return 1 + co_await churn_leaf(e, a);
}
sim::Task<int> churn_top(sim::Engine& e, int a) {
  co_return 1 + co_await churn_mid(e, a);
}

void BM_EngineFrameChurn1000Actors(benchmark::State& state) {
  constexpr int kActors = 1000;
  uint64_t events = 0;
  for (auto _ : state) {
    sim::Engine eng;
    for (int a = 0; a < kActors; ++a) {
      eng.spawn([](sim::Engine& e, int a) -> sim::Task<void> {
        benchmark::DoNotOptimize(co_await churn_top(e, a));
      }(eng, a));
    }
    eng.run();
    events += eng.events_processed();
    benchmark::DoNotOptimize(events);
  }
  report_events(state, events);
  state.SetItemsProcessed(state.iterations() * kActors);
}
BENCHMARK(BM_EngineFrameChurn1000Actors)->Unit(benchmark::kMicrosecond);

class EchoProgram final : public rpc::RpcProgram {
 public:
  sim::Task<BufChain> handle(const rpc::CallContext&,
                             BufChain args) override {
    co_return std::move(args);
  }
};

void BM_EnginePlainRpcRoundTrip(benchmark::State& state) {
  constexpr uint32_t kProg = 400100, kVers = 1;
  constexpr int kCalls = 1000;
  sim::Engine eng;
  net::Network net(eng);
  net::Host& client_host = net.add_host("client");
  net::Host& server_host = net.add_host("server");
  rpc::RpcServer server(server_host, 2049);
  server.register_program(kProg, kVers, std::make_shared<EchoProgram>());
  server.start();
  std::unique_ptr<rpc::RpcClient> client;
  eng.run_task([](net::Host& from,
                  std::unique_ptr<rpc::RpcClient>& out) -> sim::Task<void> {
    out = co_await rpc::clnt_create(from, net::Address("server", 2049),
                                    kProg, kVers);
    rpc::RetryPolicy retry;
    retry.initial_timeout = 1 * sim::kSecond;  // armed, cancelled by reply
    out->set_retry(retry);
  }(client_host, client));
  const Buffer args = Rng(5).bytes(128);
  const uint64_t events0 = eng.events_processed();
  for (auto _ : state) {
    eng.run_task([](rpc::RpcClient& c, const Buffer& a) -> sim::Task<void> {
      for (int i = 0; i < kCalls; ++i) {
        BufChain reply = co_await c.call(1, BufChain(a));
        benchmark::DoNotOptimize(reply);
      }
    }(*client, args));
  }
  report_events(state, eng.events_processed() - events0);
  state.SetItemsProcessed(state.iterations() * kCalls);
  // Every call was answered, so nothing should be left queued; a
  // retransmission timer that outlives its reply shows up here.
  state.counters["queued_after"] =
      static_cast<double>(eng.pending_events());
  client->close();
  server.stop();
}
BENCHMARK(BM_EnginePlainRpcRoundTrip)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();

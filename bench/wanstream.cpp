// WAN parallel secure streams (ISSUE "WAN parallel secure streams"):
// bulk READ throughput through the sgfs proxy pair as the emulated WAN RTT
// and the stream-pool width K vary.
//
// What the sweep must show:
//   - at high RTT the single-stream proxy is latency-bound (window/RTT), so
//     throughput scales near-linearly in K up to the wire limit;
//   - the speedup gate: K=4 at 100 ms RTT >= 3x the K=1 throughput;
//   - the crossover: as RTT shrinks (or K grows) the transfer stops being
//     latency-bound and hits the path's bandwidth bound — in this cost
//     model that is the proxy pipeline (per-byte MAC + cache-store disk at
//     ~8 ms seek/60 MB/s), which saturates well below the emulated wire
//     rate.  Past the crossover extra streams stop paying: the table prints
//     each cell's fraction of the wire and the K=8/K=4 ratio check pins the
//     flattening;
//   - K=1 inertness: an explicit streams=1 pool config produces the exact
//     same virtual end time and the exact same metric values as a default
//     (pool-free) run — checked here on every invocation, not just in the
//     unit tests.
//
// Flags: --quick (CI-sized sweep), --json=PATH (machine-readable artifact),
// --bytes=N, --runs=N (bench_util standard).
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "nfs/nfs3_client.hpp"

using namespace sgfs;
using namespace sgfs::bench;
using baselines::SetupKind;
using baselines::Testbed;
using baselines::TestbedOptions;

namespace {

struct RunOut {
  double seconds = 0;      // simulated time spent inside the read loop
  double mbps = 0;         // payload MB/s over that window
  sim::SimTime end_time = 0;  // total virtual time at teardown
  size_t sim_errors = 0;
  std::map<std::string, double> metrics;

  RunOut() = default;
};

TestbedOptions sweep_options(int rtt_ms, int streams) {
  TestbedOptions opt;
  opt.kind = SetupKind::kSgfs;
  // sgfs-sha (§6.2.1): integrity only, the paper's lightest secure variant —
  // keeps the sweep latency-bound so the stream effect is isolated.
  opt.cipher = crypto::Cipher::kNull;
  opt.mac = crypto::MacAlgo::kHmacSha1;
  opt.proxy_disk_cache = true;
  opt.wan_rtt = rtt_ms * sim::kMillisecond;
  opt.pool.streams = streams;
  return opt;
}

RunOut run_bulk(const TestbedOptions& opt, uint64_t bytes) {
  Testbed tb(opt);
  tb.preload_file("bulk.bin", bytes, /*warm=*/true, /*content_seed=*/9);
  RunOut out;
  tb.engine().run_task(
      [](Testbed& tb, uint64_t bytes, RunOut* out) -> sim::Task<void> {
        auto mp = co_await tb.mount();
        int fd = co_await mp->open("bulk.bin", nfs::kRdOnly);
        Buffer buf(256 * 1024);
        const sim::SimTime t0 = tb.engine().now();
        uint64_t off = 0;
        while (off < bytes) {
          const size_t want = static_cast<size_t>(
              std::min<uint64_t>(buf.size(), bytes - off));
          const size_t got = co_await mp->pread(
              fd, off, MutByteView(buf.data(), want));
          if (got == 0) break;
          off += got;
        }
        const sim::SimTime t1 = tb.engine().now();
        co_await mp->close(fd);
        out->seconds = sim::to_seconds(t1 - t0);
        out->mbps = out->seconds > 0
                        ? static_cast<double>(off) / 1e6 / out->seconds
                        : 0;
      }(tb, bytes, &out));
  if (!tb.engine().errors().empty()) {
    std::fprintf(stderr, "WARNING: simulation errors: %s\n",
                 tb.engine().errors()[0].c_str());
  }
  out.sim_errors = tb.engine().errors().size();
  out.end_time = tb.engine().now();
  out.metrics = JsonReport::snapshot(tb.engine().metrics());
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags = Flags::parse(argc, argv, {"quick", "bytes"});
  JsonReport json(flags, "wanstream");
  (void)json;
  const bool quick = flags.raw.count("quick") > 0;
  const uint64_t bytes = static_cast<uint64_t>(
      flags.get_int("bytes", quick ? (8ll << 20) : (16ll << 20)));

  std::vector<int> rtts = quick ? std::vector<int>{100}
                                : std::vector<int>{25, 50, 100};
  std::vector<int> widths = quick ? std::vector<int>{1, 2, 4}
                                  : std::vector<int>{1, 2, 4, 8};

  print_header("WAN stream pool — bulk READ throughput vs RTT and K",
               std::to_string(bytes >> 20) +
                   " MiB sequential read, sgfs-sha proxies, disk cache on, "
                   "K secure streams from ONE handshake");

  // The wire limit every cell is normalized against: the virtualized-GbE
  // effective rate.
  const double wire_mbps = Testbed::kWireBytesPerSec / 1e6;
  std::printf("  wire limit: %.0f MB/s — cells show MB/s (fraction of "
              "wire; >=0.5 marked # = bandwidth-bound)\n\n", wire_mbps);
  std::printf("  %-8s", "RTT");
  for (int k : widths) std::printf("          K=%-2d", k);
  std::printf("\n");

  auto cell_name = [](int rtt, int k) {
    return "rtt" + std::to_string(rtt) + "_k" + std::to_string(k);
  };
  std::map<std::pair<int, int>, RunOut> cells;
  for (int rtt : rtts) {
    std::printf("  %3d ms  ", rtt);
    for (int k : widths) {
      RunOut out = run_bulk(sweep_options(rtt, k), bytes);
      const double frac = out.mbps / wire_mbps;
      std::printf("  %7.2f(%.2f%s)", out.mbps, frac,
                  frac >= 0.5 ? "#" : "");
      if (JsonReport* j = JsonReport::current()) {
        j->add_row(cell_name(rtt, k), out.seconds, 0, out.metrics,
                   std::to_string(out.mbps) + " MB/s");
      }
      cells[{rtt, k}] = out;
    }
    std::printf("\n");
  }
  std::printf("\n");

  // --- gates ----------------------------------------------------------------
  Gate gate("wanstream");
  auto metric = [](const RunOut& out, const std::string& key) {
    const auto it = out.metrics.find(key);
    return it == out.metrics.end() ? 0.0 : it->second;
  };
  // Every cell ran clean with the handshake count of a single stream (the
  // extra streams resume the first session), and K=4 striped its reads.
  for (const auto& [cell, out] : cells) {
    const auto [rtt, k] = cell;
    const std::string name = cell_name(rtt, k);
    gate(name + " sim errors", static_cast<double>(out.sim_errors), Op::kEq, 0);
    gate(name + " simulated seconds", out.seconds, Op::kGt, 0);
    gate(name + " handshakes", metric(out, "crypto.handshakes"), Op::kEq, 4);
    if (k == 4) {
      gate(name + " striped reads", metric(out, "sgfs.pool.striped_reads"),
           Op::kGt, 0);
      gate(name + " stream resumptions",
           metric(out, "crypto.stream_resumptions"), Op::kEq, 6);
    }
  }

  const double k1 = cells[{100, 1}].mbps;
  const double k4 = cells[{100, 4}].mbps;
  gate("K=4 / K=1 bulk throughput at 100 ms RTT", k1 > 0 ? k4 / k1 : 0,
       Op::kGe, 3.0);

  // Near-linear scaling while latency-bound: K=2 at the largest RTT should
  // be at least 1.6x of K=1 (2x minus protocol overhead).
  const double k2 = cells[{100, 2}].mbps;
  gate("K=2 / K=1 at 100 ms RTT (near-linear)", k1 > 0 ? k2 / k1 : 0,
       Op::kGe, 1.6);

  // Bandwidth-bound crossover (full sweep only): at the smallest RTT the
  // transfer is already pipeline-bound, so the widest pool gains almost
  // nothing over K=4 — while K=2 over K=1 (latency-bound regime) is still
  // a large multiple.  If K=8 kept scaling, there would be no crossover
  // and the saturation story in EXPERIMENTS.md would be wrong.
  if (!quick) {
    const double k4_25 = cells[{25, 4}].mbps;
    const double k8_25 = cells[{25, 8}].mbps;
    gate("K=8 / K=4 at 25 ms RTT (past crossover: flat)",
         k4_25 > 0 ? k8_25 / k4_25 : 0, Op::kLe, 1.15);
    const double k1_25 = cells[{25, 1}].mbps;
    const double k2_25 = cells[{25, 2}].mbps;
    gate("K=2 / K=1 at 25 ms RTT (before crossover: scaling)",
         k1_25 > 0 ? k2_25 / k1_25 : 0, Op::kGe, 1.6);
  }

  // --- K=1 bit-identity, checked live ---------------------------------------
  // A default run (pool fields untouched) against an explicit streams=1
  // config with every other pool knob tweaked: same virtual end time, same
  // value for every counter/gauge.
  {
    TestbedOptions a = sweep_options(100, 1);
    TestbedOptions b = a;
    b.pool.chunk_bytes = 64 * 1024;
    b.pool.prefetch_bytes = 4 << 20;
    b.pool.coalesce_bytes = 1 << 20;
    b.pool.failover = false;
    const uint64_t ident_bytes = std::min<uint64_t>(bytes, 4ull << 20);
    RunOut ra = run_bulk(a, ident_bytes);
    RunOut rb = run_bulk(b, ident_bytes);
    const bool identical =
        ra.end_time == rb.end_time && ra.metrics == rb.metrics;
    gate("K=1 bit-identity (virtual time + all metrics)", identical ? 1 : 0,
         Op::kEq, 1);
  }

  return gate.finish();
}

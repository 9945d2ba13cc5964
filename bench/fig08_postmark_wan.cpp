// Figure 8: total PostMark runtime on nfs-v3 vs sgfs as the emulated WAN
// round-trip time grows (5/10/20/40/80 ms — the NIST Net sweep).
//
// Paper findings: sgfs (disk caching enabled) degrades slowly with latency
// and is about 2x faster than nfs-v3 at 80 ms RTT.
#include "bench_util.hpp"

using namespace sgfs;
using namespace sgfs::bench;
using namespace sgfs::workloads;
using baselines::SetupKind;
using baselines::Testbed;

int main(int argc, char** argv) {
  Runner bench(argc, argv, "fig08_postmark_wan",
               {"dirs", "files", "transactions", "streams"});
  PostmarkParams params;
  params.directories = static_cast<int>(bench.flags.get_int("dirs", 100));
  params.files = static_cast<int>(bench.flags.get_int("files", 500));
  params.transactions =
      static_cast<int>(bench.flags.get_int("transactions", 1000));
  // --streams=K widens the sgfs arm's WAN stream pool (bench/wanstream.cpp
  // has the dedicated sweep); the default 1 keeps the figure's numbers
  // bit-identical to the pre-pool bench.
  const int streams = static_cast<int>(bench.flags.get_int("streams", 1));

  print_header("Figure 8 — PostMark total runtime vs WAN RTT",
               std::string("same PostMark as Figure 7; sgfs uses its disk "
                           "cache (write-back, session-exclusive)") +
                   (streams > 1 ? ", stream pool K=" + std::to_string(streams)
                                : ""));

  // Setups alternate nfs-v3 and sgfs at each RTT.
  const int rtts_ms[] = {5, 10, 20, 40, 80};
  std::vector<Setup> setups;
  for (int rtt : rtts_ms) {
    for (SetupKind kind : {SetupKind::kNfsV3, SetupKind::kSgfs}) {
      const bool sgfs = kind == SetupKind::kSgfs;
      Setup s{std::string(sgfs ? "sgfs" : "nfs-v3") + "/" +
                  std::to_string(rtt) + "ms",
              testbed(kind, crypto::Cipher::kAes256Cbc,
                      crypto::MacAlgo::kHmacSha1)};
      s.opts.proxy_disk_cache = sgfs;
      s.opts.wan_rtt = rtt * sim::kMillisecond;
      if (sgfs) s.opts.pool.streams = streams;
      setups.push_back(std::move(s));
    }
  }
  Runner::Options options;
  options.indent = "      ";
  const auto runs = bench.run(
      setups,
      [&](Testbed& tb, uint64_t seed) -> sim::Task<PhaseTimes> {
        auto mp = co_await tb.mount();
        PostmarkParams p = params;
        p.seed = seed;
        co_return co_await run_postmark(tb, mp, p);
      },
      options);

  std::printf("  %-8s %12s %12s %10s\n", "RTT", "nfs-v3", "sgfs", "speedup");
  double speedup_at_80 = 0;
  for (size_t i = 0; i < runs.size(); i += 2) {
    double results[2];
    for (size_t which = 0; which < 2; ++which) {
      const auto& r = runs[i + which];
      results[which] =
          r.stats([](const PhaseTimes& t) { return t.total(); }).mean;
      for (const char* phase : {"creation", "transaction", "deletion"}) {
        const auto st = r.stats([&](const PhaseTimes& t) { return t[phase]; });
        bench.json.add_row(r.name + "/" + phase, st.mean, st.stddev,
                           r.metrics);
      }
    }
    const int rtt = rtts_ms[i / 2];
    const double speedup = results[0] / results[1];
    std::printf("  %3d ms   %11.1fs %11.1fs %9.2fx\n", rtt, results[0],
                results[1], speedup);
    if (rtt == 80) {  // per-layer decomposition at the largest RTT
      speedup_at_80 = speedup;
      std::printf("    nfs-v3 metrics:\n");
      std::fputs(runs[i].summary.c_str(), stdout);
      std::printf("    sgfs metrics:\n");
      std::fputs(runs[i + 1].summary.c_str(), stdout);
    }
  }
  std::printf("\n");
  print_check("nfs-v3 / sgfs at 80 ms (paper: ~2x)", speedup_at_80, "2.0");
  return bench.finish();
}

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
using baselines::TestbedOptions;

int main(int argc, char** argv) {
  Flags flags =
      Flags::parse(argc, argv, {"dirs", "files", "transactions", "streams"});
  JsonReport json(flags, "fig08_postmark_wan");
  PostmarkParams params;
  params.directories = static_cast<int>(flags.get_int("dirs", 100));
  params.files = static_cast<int>(flags.get_int("files", 500));
  params.transactions =
      static_cast<int>(flags.get_int("transactions", 1000));
  // --streams=K widens the sgfs arm's WAN stream pool (bench/wanstream.cpp
  // has the dedicated sweep); the default 1 keeps the figure's numbers
  // bit-identical to the pre-pool bench.
  const int streams = static_cast<int>(flags.get_int("streams", 1));

  print_header("Figure 8 — PostMark total runtime vs WAN RTT",
               std::string("same PostMark as Figure 7; sgfs uses its disk "
                           "cache (write-back, session-exclusive)") +
                   (streams > 1 ? ", stream pool K=" + std::to_string(streams)
                                : ""));

  const int rtts_ms[] = {5, 10, 20, 40, 80};
  std::printf("  %-8s %12s %12s %10s\n", "RTT", "nfs-v3", "sgfs", "speedup");
  double speedup_at_80 = 0;
  for (int rtt : rtts_ms) {
    double results[2] = {0, 0};
    std::string metrics[2];  // per-layer decomposition at the largest RTT
    for (int which = 0; which < 2; ++which) {
      TestbedOptions opts;
      opts.kind = which == 0 ? SetupKind::kNfsV3 : SetupKind::kSgfs;
      opts.cipher = crypto::Cipher::kAes256Cbc;
      opts.mac = crypto::MacAlgo::kHmacSha1;
      opts.proxy_disk_cache = which == 1;
      opts.wan_rtt = rtt * sim::kMillisecond;
      if (which == 1) opts.pool.streams = streams;
      std::vector<double> totals;
      std::map<std::string, std::vector<double>> phases;
      std::map<std::string, double> snapshot;  // first seed, for the JSON
      for (int r = 0; r < flags.runs; ++r) {
        opts.seed = 42 + 1000ull * r;
        Testbed tb(opts);
        PostmarkParams p = params;
        p.seed = opts.seed;
        PhaseTimes times;
        tb.engine().run_task([](Testbed& tb, PostmarkParams p,
                                PhaseTimes* out) -> sim::Task<void> {
          auto mp = co_await tb.mount();
          *out = co_await run_postmark(tb, mp, p);
        }(tb, p, &times));
        totals.push_back(times.total());
        for (const auto& [phase, s] : times.phases) phases[phase].push_back(s);
        if (r == 0) snapshot = JsonReport::snapshot(tb.engine().metrics());
        if (r == 0 && rtt == 80) {
          metrics[which] =
              obs::format_summary(tb.engine().metrics(), "      ");
        }
      }
      results[which] = stats_of(totals).mean;
      const std::string setup = which == 0 ? "nfs-v3" : "sgfs";
      for (const char* phase : {"creation", "transaction", "deletion"}) {
        const auto st = stats_of(phases[phase]);
        json.add_row(setup + "/" + std::to_string(rtt) + "ms/" + phase,
                     st.mean, st.stddev, snapshot);
      }
    }
    const double speedup = results[0] / results[1];
    if (rtt == 80) speedup_at_80 = speedup;
    std::printf("  %3d ms   %11.1fs %11.1fs %9.2fx\n", rtt, results[0],
                results[1], speedup);
    if (!metrics[0].empty()) {
      std::printf("    nfs-v3 metrics:\n");
      std::fputs(metrics[0].c_str(), stdout);
      std::printf("    sgfs metrics:\n");
      std::fputs(metrics[1].c_str(), stdout);
    }
  }
  std::printf("\n");
  print_check("nfs-v3 / sgfs at 80 ms (paper: ~2x)", speedup_at_80, "2.0");
  return 0;
}

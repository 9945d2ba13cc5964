// Figure 4: IOzone (read/reread, 512MB file, 32KB records) runtime on the
// eight DFS setups in LAN, and Figures 5 & 6: client- and server-side CPU
// utilization of the user-level proxy/daemon during the same runs, sampled
// in 5s windows.
//
// Paper findings this must reproduce:
//   - user-level file systems are >2x slower than kernel NFS here;
//   - sgfs-sha ~ +9% over gfs, sgfs-rc ~ +15%, sgfs-aes ~ +50%;
//   - gfs-ssh is >6x slower than gfs (double user-level forwarding);
//   - sgfs-rc is ~15% slower than sfs (blocking vs asynchronous RPC);
//   - nfs-v4 shows no advantage over nfs-v3;
//   - daemon CPU, client (Fig 5): gfs ~0.6% (<1%), sgfs-sha ~5%,
//     sgfs-rc/sgfs-aes ~8%, sfs >30%;
//   - daemon CPU, server (Fig 6): gfs ~0.3%, sgfs-sha ~1.5%, sgfs-rc ~3.6%,
//     sfs >30%.
#include "bench_util.hpp"

using namespace sgfs;
using namespace sgfs::bench;
using namespace sgfs::workloads;
using baselines::SetupKind;
using baselines::Testbed;

namespace {

struct IozoneRun {
  double total = 0;
  std::vector<double> client_cpu;  // daemon CPU per 5s window
  std::vector<double> server_cpu;
};

double mean_nonzero(const std::vector<double>& xs) {
  double sum = 0;
  int n = 0;
  for (double x : xs) {
    if (x > 0) {
      sum += x;
      ++n;
    }
  }
  return n ? sum / n : 0;
}

}  // namespace

int main(int argc, char** argv) {
  Runner bench(argc, argv, "fig04_iozone_lan", {"file-mb", "series"});
  const Flags& flags = bench.flags;
  const uint64_t file_bytes =
      flags.get_int("file-mb", flags.full ? 512 : 128) << 20;
  const uint64_t client_mem = file_bytes / 2;  // paper ratio: 512MB vs 256MB

  print_header("Figure 4 — IOzone runtime, LAN",
               "read/reread of " + std::to_string(file_bytes >> 20) +
                   " MB file, 32KB records, client RAM " +
                   std::to_string(client_mem >> 20) + " MB, server preloaded");

  std::vector<Setup> setups = {
      {"nfs-v3", testbed(SetupKind::kNfsV3)},
      {"nfs-v4", testbed(SetupKind::kNfsV4)},
      {"sfs", testbed(SetupKind::kSfs)},
      {"gfs", testbed(SetupKind::kGfs)},
      {"sgfs-sha", testbed(SetupKind::kSgfs, crypto::Cipher::kNull,
                           crypto::MacAlgo::kHmacSha1)},
      {"sgfs-rc", testbed(SetupKind::kSgfs, crypto::Cipher::kRc4_128,
                          crypto::MacAlgo::kHmacSha1)},
      {"sgfs-aes", testbed(SetupKind::kSgfs, crypto::Cipher::kAes256Cbc,
                           crypto::MacAlgo::kHmacSha1)},
      {"gfs-ssh", testbed(SetupKind::kGfsSsh)},
  };
  for (Setup& s : setups) {
    s.opts.client_mem_bytes = client_mem;
    s.opts.proxy_disk_cache = false;  // paper: LAN IOzone has no disk caching
  }

  IozoneParams params;
  params.file_bytes = file_bytes;
  Runner::Options options;
  options.prepare = [&](Testbed& tb, uint64_t) {
    tb.preload_file("iozone.tmp", file_bytes, /*warm=*/true);
  };
  options.buf_stats = true;
  const auto runs = bench.run(
      setups,
      [&](Testbed& tb, uint64_t) -> sim::Task<IozoneRun> {
        auto mp = co_await tb.mount();
        IozoneRun out;
        out.total = (co_await run_iozone(tb, mp, params)).total();
        out.client_cpu = tb.daemon_cpu_series(Testbed::Side::kClient);
        out.server_cpu = tb.daemon_cpu_series(Testbed::Side::kServer);
        co_return out;
      },
      options);

  std::map<std::string, double> result;
  bool spread = false;
  for (const auto& r : runs) {
    auto s = r.stats([](const IozoneRun& x) { return x.total; });
    result[r.name] = s.mean;
    spread |= s.stddev > 0;
    print_row(r.name, s.mean, s.stddev);
    std::fputs(r.summary.c_str(), stdout);
    bench.json.attach_metrics(r.name, r.metrics);
  }
  if (flags.runs > 1 && !spread) {
    // IOzone draws no random numbers, and a perfect network ignores the
    // testbed seed: the repeats cannot differ.
    std::printf("  (IOzone is deterministic: the %d runs of each row are "
                "identical)\n",
                flags.runs);
  }

  std::printf("\n");
  print_check("gfs / nfs-v3 (paper: 'more than two-fold')",
              result["gfs"] / result["nfs-v3"], "> 2.0");
  print_check("sgfs-sha / gfs (paper: +9%)",
              result["sgfs-sha"] / result["gfs"], "1.09");
  print_check("sgfs-rc / gfs (paper: +15%)",
              result["sgfs-rc"] / result["gfs"], "1.15");
  print_check("sgfs-aes / gfs (paper: +50%)",
              result["sgfs-aes"] / result["gfs"], "1.50");
  print_check("gfs-ssh / gfs (paper: 'more than six-fold')",
              result["gfs-ssh"] / result["gfs"], "> 6.0");
  print_check("sgfs-rc / sfs (paper: ~1.15, blocking RPC penalty)",
              result["sgfs-rc"] / result["sfs"], "1.15");
  print_check("nfs-v4 / nfs-v3 (paper: no advantage)",
              result["nfs-v4"] / result["nfs-v3"], "~1.0");

  // Figures 5/6 sample the first seed's runs of the user-level setups.
  struct CpuPaper {
    const char* name;
    const char* client;
    const char* server;
  };
  const CpuPaper cpu_rows[] = {
      {"gfs", "~0.6%", "~0.3%"},     {"sgfs-sha", "~5%", "~1.5%"},
      {"sgfs-rc", "~8%", "~3.6%"},   {"sgfs-aes", "~8%", "~5%"},
      {"sfs", ">30%", ">30%"},
  };
  std::printf("\nFigure 5 (client side) and Figure 6 (server side): "
              "user CPU%% of the user-level daemon, 5s samples\n\n");
  std::printf("  %-10s %14s %14s %14s %14s\n", "setup", "client avg",
              "client paper", "server avg", "server paper");
  for (const CpuPaper& row : cpu_rows) {
    const auto& r = *std::find_if(runs.begin(), runs.end(), [&](const auto& x) {
      return x.name == row.name;
    });
    const IozoneRun& first = r.seeds[0];
    const double client = 100 * mean_nonzero(first.client_cpu);
    const double server = 100 * mean_nonzero(first.server_cpu);
    std::printf("  %-10s %13.1f%% %14s %13.1f%% %14s\n", row.name, client,
                row.client, server, row.server);
    auto metrics = r.metrics;
    metrics["client_cpu_pct"] = client;
    metrics["server_cpu_pct"] = server;
    bench.json.attach_metrics(row.name, std::move(metrics));
    if (flags.raw.count("series")) {
      std::printf("    client series:");
      for (double s : first.client_cpu) std::printf(" %.1f", 100 * s);
      std::printf("\n    server series:");
      for (double s : first.server_cpu) std::printf(" %.1f", 100 * s);
      std::printf("\n");
    }
  }
  std::printf("(pass --series=1 for the full 5s-window time series)\n");
  return bench.finish();
}

// Figures 5 & 6: client- and server-side CPU utilization of the user-level
// file system proxy/daemon during the IOzone run, sampled in 5s windows.
//
// Paper findings:
//   client (Fig 5): gfs ~0.6% (<1%), sgfs-sha ~5%, sgfs-rc/sgfs-aes ~8%,
//                   sfs >30%;
//   server (Fig 6): gfs ~0.3%, sgfs-sha ~1.5%, sgfs-rc ~3.6%, sfs >30%.
#include "bench_util.hpp"

using namespace sgfs;
using namespace sgfs::bench;
using namespace sgfs::workloads;
using baselines::SetupKind;
using baselines::Testbed;
using baselines::TestbedOptions;

namespace {

struct CpuResult {
  std::vector<double> client;
  std::vector<double> server;
  std::string metrics;
};

CpuResult run_one(TestbedOptions opts, uint64_t file_bytes) {
  opts.client_mem_bytes = file_bytes / 2;
  opts.proxy_disk_cache = false;
  Testbed tb(opts);
  IozoneParams params;
  params.file_bytes = file_bytes;
  tb.preload_file("iozone.tmp", file_bytes, true);
  tb.engine().run_task([](Testbed& tb, IozoneParams params) -> sim::Task<void> {
    auto mp = co_await tb.mount();
    (void)co_await run_iozone(tb, mp, params);
  }(tb, params));
  CpuResult out;
  out.client = tb.client_daemon_cpu_series();
  out.server = tb.server_daemon_cpu_series();
  out.metrics = obs::format_summary(tb.engine().metrics(), "    ");
  return out;
}

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
  Flags flags = Flags::parse(argc, argv, {"file-mb", "series"});
  JsonReport json(flags, "fig05_06_iozone_cpu");
  const uint64_t file_bytes =
      flags.get_int("file-mb", flags.full ? 512 : 128) << 20;

  print_header("Figures 5/6 — IOzone proxy/daemon CPU utilization",
               "user CPU% of the user-level daemon, 5s samples, during the "
               "Figure 4 IOzone run");

  struct Config {
    std::string name;
    TestbedOptions opts;
    const char* paper_client;
    const char* paper_server;
  };
  std::vector<Config> configs;
  auto add = [&](std::string name, SetupKind kind, crypto::Cipher cipher,
                 crypto::MacAlgo mac, const char* pc, const char* ps) {
    Config c;
    c.name = std::move(name);
    c.opts.kind = kind;
    c.opts.cipher = cipher;
    c.opts.mac = mac;
    c.paper_client = pc;
    c.paper_server = ps;
    configs.push_back(std::move(c));
  };
  add("gfs", SetupKind::kGfs, crypto::Cipher::kNull, crypto::MacAlgo::kNull,
      "~0.6%", "~0.3%");
  add("sgfs-sha", SetupKind::kSgfs, crypto::Cipher::kNull,
      crypto::MacAlgo::kHmacSha1, "~5%", "~1.5%");
  add("sgfs-rc", SetupKind::kSgfs, crypto::Cipher::kRc4_128,
      crypto::MacAlgo::kHmacSha1, "~8%", "~3.6%");
  add("sgfs-aes", SetupKind::kSgfs, crypto::Cipher::kAes256Cbc,
      crypto::MacAlgo::kHmacSha1, "~8%", "~5%");
  add("sfs", SetupKind::kSfs, crypto::Cipher::kNull, crypto::MacAlgo::kNull,
      ">30%", ">30%");

  std::printf("Figure 5 (client side) and Figure 6 (server side):\n\n");
  std::printf("  %-10s %14s %14s %14s %14s\n", "setup", "client avg",
              "client paper", "server avg", "server paper");
  for (const auto& config : configs) {
    CpuResult r = run_one(config.opts, file_bytes);
    std::printf("  %-10s %13.1f%% %14s %13.1f%% %14s\n", config.name.c_str(),
                100 * mean_nonzero(r.client), config.paper_client,
                100 * mean_nonzero(r.server), config.paper_server);
    json.add_row(config.name, 0, 0,
                 {{"client_cpu_pct", 100 * mean_nonzero(r.client)},
                  {"server_cpu_pct", 100 * mean_nonzero(r.server)}});
    if (flags.raw.count("series")) {
      std::printf("    client series:");
      for (double s : r.client) std::printf(" %.1f", 100 * s);
      std::printf("\n    server series:");
      for (double s : r.server) std::printf(" %.1f", 100 * s);
      std::printf("\n");
    }
    std::fputs(r.metrics.c_str(), stdout);
  }
  std::printf("\n(pass --series=1 for the full 5s-window time series)\n");
  return 0;
}

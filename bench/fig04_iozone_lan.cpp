// Figure 4: IOzone (read/reread, 512MB file, 32KB records) runtime on the
// eight DFS setups in LAN.
//
// Paper findings this must reproduce:
//   - user-level file systems are >2x slower than kernel NFS here;
//   - sgfs-sha ~ +9% over gfs, sgfs-rc ~ +15%, sgfs-aes ~ +50%;
//   - gfs-ssh is >6x slower than gfs (double user-level forwarding);
//   - sgfs-rc is ~15% slower than sfs (blocking vs asynchronous RPC);
//   - nfs-v4 shows no advantage over nfs-v3.
#include "bench_util.hpp"

using namespace sgfs;
using namespace sgfs::bench;
using namespace sgfs::workloads;
using baselines::SetupKind;
using baselines::Testbed;
using baselines::TestbedOptions;

namespace {

double run_one(TestbedOptions opts, uint64_t file_bytes, uint64_t client_mem,
               const Flags& flags, const std::string& trace_tag,
               std::string* metrics_out,
               std::map<std::string, double>* json_metrics) {
  opts.client_mem_bytes = client_mem;
  opts.proxy_disk_cache = false;  // paper: LAN IOzone has no disk caching
  BufStatsScope buf_scope;
  Testbed tb(opts);
  if (metrics_out != nullptr && trace_requested(flags)) {
    tb.engine().tracer().set_enabled(true);
  }
  IozoneParams params;
  params.file_bytes = file_bytes;
  tb.preload_file("iozone.tmp", file_bytes, /*warm=*/true);
  double total = 0;
  tb.engine().run_task([](Testbed& tb, IozoneParams params,
                          double* out) -> sim::Task<void> {
    auto mp = co_await tb.mount();
    auto times = co_await run_iozone(tb, mp, params);
    *out = times.total();
  }(tb, params, &total));
  buf_scope.publish(tb.engine().metrics());
  if (metrics_out != nullptr) {
    *metrics_out = obs::format_summary(tb.engine().metrics(), "    ");
    dump_trace(flags, tb.engine(), trace_tag);
  }
  if (json_metrics != nullptr) {
    *json_metrics = JsonReport::snapshot(tb.engine().metrics());
  }
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags = Flags::parse(argc, argv, {"file-mb"});
  const uint64_t file_bytes =
      flags.get_int("file-mb", flags.full ? 512 : 128) << 20;
  const uint64_t client_mem = file_bytes / 2;  // paper ratio: 512MB vs 256MB

  print_header("Figure 4 — IOzone runtime, LAN",
               "read/reread of " + std::to_string(file_bytes >> 20) +
                   " MB file, 32KB records, client RAM " +
                   std::to_string(client_mem >> 20) + " MB, server preloaded");

  struct Config {
    std::string name;
    TestbedOptions opts;
  };
  std::vector<Config> configs;
  auto add = [&](std::string name, SetupKind kind,
                 crypto::Cipher cipher = crypto::Cipher::kNull,
                 crypto::MacAlgo mac = crypto::MacAlgo::kNull) {
    Config c;
    c.name = std::move(name);
    c.opts.kind = kind;
    c.opts.cipher = cipher;
    c.opts.mac = mac;
    configs.push_back(std::move(c));
  };
  add("nfs-v3", SetupKind::kNfsV3);
  add("nfs-v4", SetupKind::kNfsV4);
  add("sfs", SetupKind::kSfs);
  add("gfs", SetupKind::kGfs);
  add("sgfs-sha", SetupKind::kSgfs, crypto::Cipher::kNull,
      crypto::MacAlgo::kHmacSha1);
  add("sgfs-rc", SetupKind::kSgfs, crypto::Cipher::kRc4_128,
      crypto::MacAlgo::kHmacSha1);
  add("sgfs-aes", SetupKind::kSgfs, crypto::Cipher::kAes256Cbc,
      crypto::MacAlgo::kHmacSha1);
  add("gfs-ssh", SetupKind::kGfsSsh);

  JsonReport json(flags, "fig04_iozone_lan");
  std::map<std::string, double> result;
  for (const auto& config : configs) {
    std::vector<double> totals;
    std::string metrics;  // per-layer decomposition from the first seed
    std::map<std::string, double> json_metrics;
    for (int r = 0; r < flags.runs; ++r) {
      TestbedOptions opts = config.opts;
      opts.seed = 42 + 1000ull * r;
      totals.push_back(run_one(opts, file_bytes, client_mem, flags,
                               config.name, r == 0 ? &metrics : nullptr,
                               r == 0 && json.enabled() ? &json_metrics
                                                        : nullptr));
    }
    auto s = stats_of(totals);
    result[config.name] = s.mean;
    print_row(config.name, s.mean, s.stddev);
    std::fputs(metrics.c_str(), stdout);
    json.attach_metrics(config.name, std::move(json_metrics));
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
  return 0;
}

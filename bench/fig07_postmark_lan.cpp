// Figure 7: PostMark per-phase runtimes (creation / transaction / deletion)
// on the DFS setups in LAN.
//
// Paper findings: creation and deletion times are close across all secure
// file systems (gfs-ssh marginally worse); in the transaction phase sgfs is
// close to nfs-v3 and beats sfs by ~17% and gfs-ssh by ~14%.
#include "bench_util.hpp"

using namespace sgfs;
using namespace sgfs::bench;
using namespace sgfs::workloads;
using baselines::SetupKind;
using baselines::Testbed;
using baselines::TestbedOptions;

int main(int argc, char** argv) {
  Flags flags = Flags::parse(argc, argv, {"dirs", "files", "transactions"});
  JsonReport json(flags, "fig07_postmark_lan");
  PostmarkParams params;
  params.directories = static_cast<int>(flags.get_int("dirs", 100));
  params.files = static_cast<int>(flags.get_int("files", 500));
  params.transactions =
      static_cast<int>(flags.get_int("transactions", 1000));

  print_header("Figure 7 — PostMark per-phase runtime, LAN",
               std::to_string(params.directories) + " dirs, " +
                   std::to_string(params.files) + " files, " +
                   std::to_string(params.transactions) +
                   " transactions, 512B-16KB files");

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
  add("sgfs", SetupKind::kSgfs, crypto::Cipher::kAes256Cbc,
      crypto::MacAlgo::kHmacSha1);
  add("gfs-ssh", SetupKind::kGfsSsh);

  std::printf("  %-10s %10s %12s %10s %10s\n", "setup", "creation",
              "transaction", "deletion", "total");
  std::map<std::string, double> txn;
  for (const auto& config : configs) {
    std::vector<double> c, t, d;
    std::string metrics;  // per-layer decomposition from the first seed
    std::map<std::string, double> snapshot;  // the same run, for the JSON
    for (int r = 0; r < flags.runs; ++r) {
      TestbedOptions opts = config.opts;
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
      c.push_back(times["creation"]);
      t.push_back(times["transaction"]);
      d.push_back(times["deletion"]);
      if (r == 0) {
        metrics = obs::format_summary(tb.engine().metrics(), "    ");
        snapshot = JsonReport::snapshot(tb.engine().metrics());
      }
    }
    auto sc = stats_of(c), st = stats_of(t), sd = stats_of(d);
    json.add_row(config.name + "/creation", sc.mean, sc.stddev, snapshot);
    json.add_row(config.name + "/transaction", st.mean, st.stddev, snapshot);
    json.add_row(config.name + "/deletion", sd.mean, sd.stddev, snapshot);
    txn[config.name] = st.mean;
    std::printf("  %-10s %9.1fs %11.1fs %9.1fs %9.1fs\n",
                config.name.c_str(), sc.mean, st.mean, sd.mean,
                sc.mean + st.mean + sd.mean);
    std::fputs(metrics.c_str(), stdout);
  }
  std::printf("\n");
  print_check("sfs / sgfs transaction (paper: sgfs ~17% better)",
              txn["sfs"] / txn["sgfs"], "1.17");
  print_check("gfs-ssh / sgfs transaction (paper: sgfs ~14% better)",
              txn["gfs-ssh"] / txn["sgfs"], "1.14");
  print_check("sgfs / nfs-v3 transaction (paper: 'close')",
              txn["sgfs"] / txn["nfs-v3"], "~1.0-1.3");
  return 0;
}

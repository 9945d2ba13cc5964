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

int main(int argc, char** argv) {
  Runner bench(argc, argv, "fig07_postmark_lan",
               {"dirs", "files", "transactions"});
  PostmarkParams params;
  params.directories = static_cast<int>(bench.flags.get_int("dirs", 100));
  params.files = static_cast<int>(bench.flags.get_int("files", 500));
  params.transactions =
      static_cast<int>(bench.flags.get_int("transactions", 1000));

  print_header("Figure 7 — PostMark per-phase runtime, LAN",
               std::to_string(params.directories) + " dirs, " +
                   std::to_string(params.files) + " files, " +
                   std::to_string(params.transactions) +
                   " transactions, 512B-16KB files");

  const auto runs = bench.run(
      {
          {"nfs-v3", testbed(SetupKind::kNfsV3)},
          {"nfs-v4", testbed(SetupKind::kNfsV4)},
          {"sfs", testbed(SetupKind::kSfs)},
          {"sgfs", testbed(SetupKind::kSgfs, crypto::Cipher::kAes256Cbc,
                           crypto::MacAlgo::kHmacSha1)},
          {"gfs-ssh", testbed(SetupKind::kGfsSsh)},
      },
      [&](Testbed& tb, uint64_t seed) -> sim::Task<PhaseTimes> {
        auto mp = co_await tb.mount();
        PostmarkParams p = params;
        p.seed = seed;
        co_return co_await run_postmark(tb, mp, p);
      });

  std::printf("  %-10s %10s %12s %10s %10s\n", "setup", "creation",
              "transaction", "deletion", "total");
  std::map<std::string, double> txn;
  for (const auto& r : runs) {
    double mean[3];
    int i = 0;
    for (const char* phase : {"creation", "transaction", "deletion"}) {
      const auto st = r.stats([&](const PhaseTimes& t) { return t[phase]; });
      bench.json.add_row(r.name + "/" + phase, st.mean, st.stddev, r.metrics);
      mean[i++] = st.mean;
    }
    txn[r.name] = mean[1];
    std::printf("  %-10s %9.1fs %11.1fs %9.1fs %9.1fs\n", r.name.c_str(),
                mean[0], mean[1], mean[2], mean[0] + mean[1] + mean[2]);
    std::fputs(r.summary.c_str(), stdout);
  }
  std::printf("\n");
  print_check("sfs / sgfs transaction (paper: sgfs ~17% better)",
              txn["sfs"] / txn["sgfs"], "1.17");
  print_check("gfs-ssh / sgfs transaction (paper: sgfs ~14% better)",
              txn["gfs-ssh"] / txn["sgfs"], "1.14");
  print_check("sgfs / nfs-v3 transaction (paper: 'close')",
              txn["sgfs"] / txn["nfs-v3"], "~1.0-1.3");
  return bench.finish();
}

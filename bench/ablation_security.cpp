// Ablation: the security/performance tradeoff the paper's §3.1 motivates,
// along one dimension — the session's cipher suite, from null to
// AES-256-CBC with HMAC-SHA1.  Runs PostMark (LAN) per suite.
#include "bench_util.hpp"

using namespace sgfs;
using namespace sgfs::bench;
using namespace sgfs::workloads;
using baselines::SetupKind;
using baselines::Testbed;

int main(int argc, char** argv) {
  Runner bench(argc, argv, "ablation_security",
               {"dirs", "files", "transactions"});
  PostmarkParams params;
  params.directories = static_cast<int>(bench.flags.get_int("dirs", 50));
  params.files = static_cast<int>(bench.flags.get_int("files", 250));
  params.transactions =
      static_cast<int>(bench.flags.get_int("transactions", 500));

  print_header("Ablation — per-session security customization (PostMark, LAN)",
               "the paper's motivation for per-session configuration: "
               "security strength is a per-session performance knob");

  const auto runs = bench.run(
      {
          {"null+null (gfs-equivalent)", testbed(SetupKind::kSgfs)},
          {"integrity only (sgfs-sha)",
           testbed(SetupKind::kSgfs, crypto::Cipher::kNull,
                   crypto::MacAlgo::kHmacSha1)},
          {"rc4-128 (sgfs-rc)",
           testbed(SetupKind::kSgfs, crypto::Cipher::kRc4_128,
                   crypto::MacAlgo::kHmacSha1)},
          {"aes-128-cbc", testbed(SetupKind::kSgfs, crypto::Cipher::kAes128Cbc,
                                  crypto::MacAlgo::kHmacSha1)},
          {"aes-256-cbc (sgfs-aes)",
           testbed(SetupKind::kSgfs, crypto::Cipher::kAes256Cbc,
                   crypto::MacAlgo::kHmacSha1)},
      },
      // The PostMark stream moves with the run's seed (1 on the first run).
      [&](Testbed& tb, uint64_t seed) -> sim::Task<double> {
        auto mp = co_await tb.mount();
        co_return (co_await run_postmark(tb, mp, with_run_seed(params, seed)))
            .total();
      });

  double weakest = 0;
  for (const auto& r : runs) {
    const auto s = r.stats([](double t) { return t; });
    if (weakest == 0) weakest = s.mean;
    std::printf("  %-28s %8.1f s   (+%4.1f%% vs weakest)\n", r.name.c_str(),
                s.mean, 100.0 * (s.mean - weakest) / weakest);
    bench.json.add_row(r.name, s.mean, s.stddev, r.metrics);
    std::fputs(r.summary.c_str(), stdout);
  }
  return bench.finish();
}

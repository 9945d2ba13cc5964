// Ablation: the security/performance tradeoff dimensions the paper's §3.1
// motivates — cipher strength, renegotiation period, fine-grained ACLs.
// Runs PostMark (LAN) per configuration.
#include "bench_util.hpp"

using namespace sgfs;
using namespace sgfs::bench;
using namespace sgfs::workloads;
using baselines::SetupKind;
using baselines::Testbed;
using baselines::TestbedOptions;

namespace {

double run_pm(TestbedOptions opts, const PostmarkParams& params,
              std::string* metrics_out = nullptr) {
  Testbed tb(opts);
  double total = 0;
  tb.engine().run_task([](Testbed& tb, PostmarkParams p,
                          double* out) -> sim::Task<void> {
    auto mp = co_await tb.mount();
    auto times = co_await run_postmark(tb, mp, p);
    *out = times.total();
  }(tb, params, &total));
  if (metrics_out) {
    *metrics_out = obs::format_summary(tb.engine().metrics(), "    ");
  }
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags = Flags::parse(argc, argv, {"dirs", "files", "transactions"});
  JsonReport json(flags, "ablation_security");
  PostmarkParams params;
  params.directories = static_cast<int>(flags.get_int("dirs", 50));
  params.files = static_cast<int>(flags.get_int("files", 250));
  params.transactions =
      static_cast<int>(flags.get_int("transactions", 500));

  print_header("Ablation — per-session security customization (PostMark, LAN)",
               "the paper's motivation for per-session configuration: "
               "security strength is a per-session performance knob");

  struct Variant {
    const char* name;
    crypto::Cipher cipher;
    crypto::MacAlgo mac;
  };
  const Variant variants[] = {
      {"null+null (gfs-equivalent)", crypto::Cipher::kNull,
       crypto::MacAlgo::kNull},
      {"integrity only (sgfs-sha)", crypto::Cipher::kNull,
       crypto::MacAlgo::kHmacSha1},
      {"rc4-128 (sgfs-rc)", crypto::Cipher::kRc4_128,
       crypto::MacAlgo::kHmacSha1},
      {"aes-128-cbc", crypto::Cipher::kAes128Cbc,
       crypto::MacAlgo::kHmacSha1},
      {"aes-256-cbc (sgfs-aes)", crypto::Cipher::kAes256Cbc,
       crypto::MacAlgo::kHmacSha1},
  };
  double weakest = 0;
  for (const auto& v : variants) {
    TestbedOptions opts;
    opts.kind = SetupKind::kSgfs;
    opts.cipher = v.cipher;
    opts.mac = v.mac;
    std::string metrics;
    const double t = run_pm(opts, params, &metrics);
    if (weakest == 0) weakest = t;
    std::printf("  %-28s %8.1f s   (+%4.1f%% vs weakest)\n", v.name, t,
                100.0 * (t - weakest) / weakest);
    json.add_row(v.name, t);
    std::fputs(metrics.c_str(), stdout);
  }
  return 0;
}

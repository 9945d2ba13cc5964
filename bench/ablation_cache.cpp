// Ablation: which parts of the SGFS client-proxy disk cache buy the WAN
// performance (DESIGN.md experiment index)?  Runs the Figure-9 MAB workload
// at 40 ms RTT with individual cache features toggled.
#include "bench_util.hpp"

using namespace sgfs;
using namespace sgfs::bench;
using namespace sgfs::workloads;
using baselines::SetupKind;
using baselines::Testbed;

int main(int argc, char** argv) {
  Runner bench(argc, argv, "ablation_cache", {"compile-cpu"});
  MabParams params;
  params.compile_cpu_seconds =
      static_cast<double>(bench.flags.get_int("compile-cpu", 95));

  print_header("Ablation — SGFS disk-cache design choices (MAB @ 40 ms RTT)",
               "each row toggles one design decision of the client proxy");

  struct Variant {
    const char* name;
    const char* note;
    bool cache;
    bool write_back;
    core::Consistency consistency;
  };
  const Variant variants[] = {
      {"no disk cache", "(baseline: secure proxies only)", false, true,
       core::Consistency::kSessionExclusive},
      {"full cache", "(write-back, session-exclusive)", true, true,
       core::Consistency::kSessionExclusive},
      {"write-through", "(cache data, but no write-back)", true, false,
       core::Consistency::kSessionExclusive},
      {"revalidate", "(TTL consistency instead of session-exclusive)", true,
       true, core::Consistency::kRevalidate},
  };
  std::vector<Setup> setups;
  for (const Variant& v : variants) {
    Setup s{v.name, testbed(SetupKind::kSgfs, crypto::Cipher::kAes256Cbc,
                            crypto::MacAlgo::kHmacSha1)};
    s.opts.wan_rtt = 40 * sim::kMillisecond;
    s.opts.proxy_disk_cache = v.cache;
    s.opts.proxy_write_back = v.write_back;
    s.opts.consistency = v.consistency;
    setups.push_back(std::move(s));
  }
  // The tree and the run draw from the same MAB seed (2 on the first run).
  Runner::Options options;
  options.prepare = [&](Testbed& tb, uint64_t seed) {
    mab_prepare_tree(tb, with_run_seed(params, seed));
  };
  const auto runs = bench.run(
      setups,
      [&](Testbed& tb, uint64_t seed) -> sim::Task<double> {
        auto mp = co_await tb.mount();
        auto times = co_await run_mab(tb, mp, with_run_seed(params, seed));
        co_await mp->flush_all();
        (void)co_await tb.flush_session();
        co_return times.total();
      },
      options);

  double total[4];
  for (size_t i = 0; i < runs.size(); ++i) {
    const auto s = runs[i].stats([](double t) { return t; });
    total[i] = s.mean;
    print_row(runs[i].name, s.mean, s.stddev, variants[i].note);
    std::fputs(runs[i].summary.c_str(), stdout);
    bench.json.attach_metrics(runs[i].name, runs[i].metrics);
  }
  std::printf("\n");
  print_check("no-cache / full cache (caching benefit)", total[0] / total[1],
              "> 2 expected at 40ms");
  print_check("write-through / write-back", total[2] / total[1],
              "> 1 expected");
  print_check("revalidate / session-exclusive", total[3] / total[1],
              ">= 1 expected");
  return bench.finish();
}

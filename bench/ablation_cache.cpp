// Ablation: which parts of the SGFS client-proxy disk cache buy the WAN
// performance (DESIGN.md experiment index)?  Runs the Figure-9 MAB workload
// at 40 ms RTT with individual cache features toggled.
#include "bench_util.hpp"

using namespace sgfs;
using namespace sgfs::bench;
using namespace sgfs::workloads;
using baselines::SetupKind;
using baselines::Testbed;
using baselines::TestbedOptions;

namespace {

double run_mab_total(TestbedOptions opts, const MabParams& params,
                     bool write_back, core::Consistency consistency,
                     std::string* metrics_out = nullptr) {
  opts.proxy_write_back = write_back;
  opts.consistency = consistency;
  Testbed tb(opts);
  mab_prepare_tree(tb, params);
  double total = 0;
  tb.engine().run_task([](Testbed& tb, MabParams params,
                          double* out) -> sim::Task<void> {
    auto mp = co_await tb.mount();
    auto times = co_await run_mab(tb, mp, params);
    co_await mp->flush_all();
    (void)co_await tb.flush_session();
    *out = times.total();
  }(tb, params, &total));
  if (metrics_out) {
    *metrics_out = obs::format_summary(tb.engine().metrics(), "    ");
  }
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags = Flags::parse(argc, argv, {"compile-cpu"});
  JsonReport json(flags, "ablation_cache");
  (void)json;
  MabParams params;
  params.compile_cpu_seconds =
      static_cast<double>(flags.get_int("compile-cpu", 95));

  print_header("Ablation — SGFS disk-cache design choices (MAB @ 40 ms RTT)",
               "each row toggles one design decision of the client proxy");

  TestbedOptions base;
  base.kind = SetupKind::kSgfs;
  base.cipher = crypto::Cipher::kAes256Cbc;
  base.mac = crypto::MacAlgo::kHmacSha1;
  base.wan_rtt = 40 * sim::kMillisecond;

  TestbedOptions no_cache = base;
  no_cache.proxy_disk_cache = false;
  TestbedOptions full = base;
  full.proxy_disk_cache = true;

  std::string m_none, m_full, m_wt, m_reval;
  const double t_none =
      run_mab_total(no_cache, params, true,
                    core::Consistency::kSessionExclusive, &m_none);
  const double t_full = run_mab_total(
      full, params, true, core::Consistency::kSessionExclusive, &m_full);
  const double t_wt = run_mab_total(full, params, /*write_back=*/false,
                                    core::Consistency::kSessionExclusive,
                                    &m_wt);
  const double t_reval = run_mab_total(full, params, true,
                                       core::Consistency::kRevalidate,
                                       &m_reval);

  print_row("no disk cache", t_none, 0, "(baseline: secure proxies only)");
  std::fputs(m_none.c_str(), stdout);
  print_row("full cache", t_full, 0, "(write-back, session-exclusive)");
  std::fputs(m_full.c_str(), stdout);
  print_row("write-through", t_wt, 0, "(cache data, but no write-back)");
  std::fputs(m_wt.c_str(), stdout);
  print_row("revalidate", t_reval, 0, "(TTL consistency instead of "
                                      "session-exclusive)");
  std::fputs(m_reval.c_str(), stdout);
  std::printf("\n");
  print_check("no-cache / full cache (caching benefit)", t_none / t_full,
              "> 2 expected at 40ms");
  print_check("write-through / write-back", t_wt / t_full, "> 1 expected");
  print_check("revalidate / session-exclusive", t_reval / t_full,
              ">= 1 expected");
  return 0;
}

// Figure 9: Modified Andrew Benchmark phase runtimes on nfs-v3 and sgfs in
// LAN and emulated WAN (40 ms RTT).
//
// Paper values (seconds):            copy  stat  search  compile
//   nfs-v3 LAN                        26     4      5       99
//   sgfs   LAN                        26     4      5      112   (+14%)
//   nfs-v3 WAN                       155    53    107     1199
//   sgfs   WAN                       126     5     22      150
// plus: end-of-run write-back 51.2s (stddev 1.3); WAN total sgfs is >4x
// faster than nfs-v3; stat/search/compile speedups ~9x/5x/8x.
#include "bench_util.hpp"

using namespace sgfs;
using namespace sgfs::bench;
using namespace sgfs::workloads;
using baselines::Testbed;

int main(int argc, char** argv) {
  Runner bench(argc, argv, "fig09_mab", {"compile-cpu"});
  MabParams params;
  params.compile_cpu_seconds =
      static_cast<double>(bench.flags.get_int("compile-cpu", 95));

  print_header("Figure 9 — MAB phase runtimes, LAN and WAN (40 ms RTT)",
               "synthetic openssh-4.6p1 tree: 13 dirs, 449 files, 194 "
               "compile outputs");

  const double paper[4][4] = {
      {26, 4, 5, 99}, {26, 4, 5, 112}, {155, 53, 107, 1199}, {126, 5, 22, 150}};
  // The tree and the run draw from the same MAB seed (2 on the first run).
  Runner::Options options;
  options.prepare = [&](Testbed& tb, uint64_t seed) {
    mab_prepare_tree(tb, with_run_seed(params, seed));
  };
  auto all = run_app_figure(
      bench, {},
      [&](Testbed& tb, std::shared_ptr<nfs::MountPoint> mp, uint64_t seed) {
        return run_mab(tb, std::move(mp), with_run_seed(params, seed));
      },
      options,
      {{"copy", "copy"},
       {"stat", "stat"},
       {"search", "search"},
       {"compile", "compile"}},
      paper, /*paper_digits=*/0);

  print_check("sgfs/nfs compile overhead in LAN (paper: +14%)",
              all["sgfs   LAN"]["compile"] / all["nfs-v3 LAN"]["compile"],
              "1.14");
  print_check("WAN total: nfs-v3 / sgfs (paper: >4x)",
              all["nfs-v3 WAN"].total() / all["sgfs   WAN"].total(), "> 4");
  print_check("WAN stat speedup (paper: ~9x)",
              all["nfs-v3 WAN"]["stat"] / all["sgfs   WAN"]["stat"], "9");
  print_check("WAN search speedup (paper: ~5x)",
              all["nfs-v3 WAN"]["search"] / all["sgfs   WAN"]["search"], "5");
  print_check("WAN compile speedup (paper: ~8x)",
              all["nfs-v3 WAN"]["compile"] / all["sgfs   WAN"]["compile"],
              "8");
  return bench.finish();
}

// Figure 10: Seismic (SPEC HPC96 derived) phase runtimes on nfs-v3 and sgfs
// in LAN and emulated WAN (40 ms RTT).
//
// Paper values (seconds):        p1     p2     p3     p4
//   nfs-v3 LAN                  38.3    27      3    167.2
//   sgfs   LAN                  40.6    38      4    167.3
//   nfs-v3 WAN                  88.9  1021     13    173.9
//   sgfs   WAN                  40.2    24      4    167.8
// plus: end-of-run write-back 14.2s (stddev 1.3); WAN total sgfs >5x
// faster; phase speedups ~2x/40x/4x; sgfs WAN ~= sgfs LAN (phase 2 faster
// because the LAN run has no disk cache).
#include "bench_util.hpp"

using namespace sgfs;
using namespace sgfs::bench;
using namespace sgfs::workloads;
using baselines::Testbed;

int main(int argc, char** argv) {
  Runner bench(argc, argv, "fig10_seismic", {"trace-mb"});
  SeismicParams params;
  params.trace_bytes = static_cast<uint64_t>(bench.flags.get_int(
                           "trace-mb", bench.flags.full ? 320 : 96))
                       << 20;

  print_header("Figure 10 — Seismic phase runtimes, LAN and WAN (40 ms RTT)",
               "4 phases (generate/stack/time-mig/depth-mig), trace file " +
                   std::to_string(params.trace_bytes >> 20) +
                   " MB, intermediates removed at the end");

  const double paper[4][4] = {{38.3, 27, 3, 167.2},
                               {40.6, 38, 4, 167.3},
                               {88.9, 1021, 13, 173.9},
                               {40.2, 24, 4, 167.8}};
  baselines::TestbedOptions base;
  // The big trace defeats the client page cache at paper scale.
  base.client_mem_bytes = params.trace_bytes * 4 / 5;
  auto all = run_app_figure(
      bench, base,
      [&](Testbed& tb, std::shared_ptr<nfs::MountPoint> mp, uint64_t seed) {
        // Seismic seed 3 on the first run.
        return run_seismic(tb, std::move(mp), with_run_seed(params, seed));
      },
      {},
      {{"phase1", "p1"}, {"phase2", "p2"}, {"phase3", "p3"}, {"phase4", "p4"}},
      paper, /*paper_digits=*/1);

  print_check("WAN total: nfs-v3 / sgfs (paper: >5x)",
              all["nfs-v3 WAN"].total() / all["sgfs   WAN"].total(), "> 5");
  print_check("WAN phase1 speedup (paper: ~2x)",
              all["nfs-v3 WAN"]["phase1"] / all["sgfs   WAN"]["phase1"],
              "2");
  print_check("WAN phase2 speedup (paper: ~40x)",
              all["nfs-v3 WAN"]["phase2"] / all["sgfs   WAN"]["phase2"],
              "40");
  print_check("WAN phase3 speedup (paper: ~4x)",
              all["nfs-v3 WAN"]["phase3"] / all["sgfs   WAN"]["phase3"],
              "4");
  print_check("sgfs WAN total ~= sgfs LAN total (paper: no slowdown)",
              all["sgfs   WAN"].total() / all["sgfs   LAN"].total(),
              "<= 1.0");
  return bench.finish();
}

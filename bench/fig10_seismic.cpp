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
#include <sstream>

#include "bench_util.hpp"

using namespace sgfs;
using namespace sgfs::bench;
using namespace sgfs::workloads;
using baselines::SetupKind;
using baselines::Testbed;
using baselines::TestbedOptions;

namespace {

struct SeismicRun {
  PhaseTimes times;
  double writeback = 0;
  std::string metrics;
  std::map<std::string, double> snapshot;
};

SeismicRun run_one(TestbedOptions opts, const SeismicParams& params) {
  Testbed tb(opts);
  SeismicRun out;
  tb.engine().run_task([](Testbed& tb, SeismicParams params,
                          SeismicRun* out) -> sim::Task<void> {
    auto mp = co_await tb.mount();
    out->times = co_await run_seismic(tb, mp, params);
    co_await mp->flush_all();
    out->writeback = co_await tb.flush_session();
  }(tb, params, &out));
  if (!tb.engine().errors().empty()) {
    std::fprintf(stderr, "WARNING: %s\n", tb.engine().errors()[0].c_str());
  }
  out.metrics = obs::format_summary(tb.engine().metrics(), "    ");
  out.snapshot = JsonReport::snapshot(tb.engine().metrics());
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags = Flags::parse(argc, argv, {"trace-mb"});
  JsonReport json(flags, "fig10_seismic");
  SeismicParams params;
  params.trace_bytes =
      static_cast<uint64_t>(flags.get_int("trace-mb", flags.full ? 320 : 96))
      << 20;

  print_header("Figure 10 — Seismic phase runtimes, LAN and WAN (40 ms RTT)",
               "4 phases (generate/stack/time-mig/depth-mig), trace file " +
                   std::to_string(params.trace_bytes >> 20) +
                   " MB, intermediates removed at the end");

  struct Config {
    std::string label;
    TestbedOptions opts;
    double paper[4];
  };
  std::vector<Config> configs;
  auto add = [&](std::string label, SetupKind kind, sim::SimDur rtt,
                 bool cache, std::initializer_list<double> paper) {
    Config c;
    c.label = std::move(label);
    c.opts.kind = kind;
    c.opts.cipher = crypto::Cipher::kAes256Cbc;
    c.opts.mac = crypto::MacAlgo::kHmacSha1;
    c.opts.wan_rtt = rtt;
    c.opts.proxy_disk_cache = cache;
    // The big trace defeats the client page cache at paper scale.
    c.opts.client_mem_bytes = params.trace_bytes * 4 / 5;
    int i = 0;
    for (double p : paper) c.paper[i++] = p;
    configs.push_back(std::move(c));
  };
  add("nfs-v3 LAN", SetupKind::kNfsV3, 0, false, {38.3, 27, 3, 167.2});
  add("sgfs   LAN", SetupKind::kSgfs, 0, false, {40.6, 38, 4, 167.3});
  add("nfs-v3 WAN", SetupKind::kNfsV3, 40 * sim::kMillisecond, false,
      {88.9, 1021, 13, 173.9});
  add("sgfs   WAN", SetupKind::kSgfs, 40 * sim::kMillisecond, true,
      {40.2, 24, 4, 167.8});

  std::printf("  %-12s %8s %8s %8s %8s %9s %11s\n", "setup", "p1", "p2",
              "p3", "p4", "total", "writeback");
  std::map<std::string, PhaseTimes> all;
  for (const auto& config : configs) {
    SeismicRun r = run_one(config.opts, params);
    all[config.label] = r.times;
    // JSON rows are named "<setup>/<net>/<phase>", e.g. "sgfs/LAN/copy".
    std::istringstream words(config.label);
    std::string kind, net;
    words >> kind >> net;
    const std::string setup = kind + "/" + net;
    for (const char* phase : {"phase1", "phase2", "phase3", "phase4"}) {
      json.add_row(setup + "/" + phase, r.times[phase], 0, r.snapshot);
    }
    json.add_row(setup + "/writeback", r.writeback, 0, r.snapshot);
    std::printf("  %-12s %7.1fs %7.1fs %7.1fs %7.1fs %8.1fs %10.1fs\n",
                config.label.c_str(), r.times["phase1"], r.times["phase2"],
                r.times["phase3"], r.times["phase4"], r.times.total(),
                r.writeback);
    std::printf("  %-12s %7.1fs %7.1fs %7.1fs %7.1fs %8.1fs   (paper)\n",
                "", config.paper[0], config.paper[1], config.paper[2],
                config.paper[3],
                config.paper[0] + config.paper[1] + config.paper[2] +
                    config.paper[3]);
    std::fputs(r.metrics.c_str(), stdout);
  }
  std::printf("\n");
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
  return 0;
}

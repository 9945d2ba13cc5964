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
#include <sstream>

#include "bench_util.hpp"

using namespace sgfs;
using namespace sgfs::bench;
using namespace sgfs::workloads;
using baselines::SetupKind;
using baselines::Testbed;
using baselines::TestbedOptions;

namespace {

struct MabRun {
  PhaseTimes times;
  double writeback = 0;
  std::string metrics;
  std::map<std::string, double> snapshot;
};

MabRun run_one(TestbedOptions opts, const MabParams& params) {
  Testbed tb(opts);
  mab_prepare_tree(tb, params);
  MabRun out;
  tb.engine().run_task([](Testbed& tb, MabParams params,
                          MabRun* out) -> sim::Task<void> {
    auto mp = co_await tb.mount();
    out->times = co_await run_mab(tb, mp, params);
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
  Flags flags = Flags::parse(argc, argv, {"compile-cpu"});
  JsonReport json(flags, "fig09_mab");
  MabParams params;
  params.compile_cpu_seconds =
      static_cast<double>(flags.get_int("compile-cpu", 95));

  print_header("Figure 9 — MAB phase runtimes, LAN and WAN (40 ms RTT)",
               "synthetic openssh-4.6p1 tree: 13 dirs, 449 files, 194 "
               "compile outputs");

  struct Config {
    std::string label;
    TestbedOptions opts;
    // Paper reference values: copy, stat, search, compile.
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
    int i = 0;
    for (double p : paper) c.paper[i++] = p;
    configs.push_back(std::move(c));
  };
  add("nfs-v3 LAN", SetupKind::kNfsV3, 0, false, {26, 4, 5, 99});
  add("sgfs   LAN", SetupKind::kSgfs, 0, false, {26, 4, 5, 112});
  add("nfs-v3 WAN", SetupKind::kNfsV3, 40 * sim::kMillisecond, false,
      {155, 53, 107, 1199});
  add("sgfs   WAN", SetupKind::kSgfs, 40 * sim::kMillisecond, true,
      {126, 5, 22, 150});

  std::printf("  %-12s %8s %8s %8s %9s %9s %11s\n", "setup", "copy", "stat",
              "search", "compile", "total", "writeback");
  std::map<std::string, PhaseTimes> all;
  for (const auto& config : configs) {
    MabRun r = run_one(config.opts, params);
    all[config.label] = r.times;
    // JSON rows are named "<setup>/<net>/<phase>", e.g. "sgfs/LAN/copy".
    std::istringstream words(config.label);
    std::string kind, net;
    words >> kind >> net;
    const std::string setup = kind + "/" + net;
    for (const char* phase : {"copy", "stat", "search", "compile"}) {
      json.add_row(setup + "/" + phase, r.times[phase], 0, r.snapshot);
    }
    json.add_row(setup + "/writeback", r.writeback, 0, r.snapshot);
    std::printf("  %-12s %7.1fs %7.1fs %7.1fs %8.1fs %8.1fs %10.1fs\n",
                config.label.c_str(), r.times["copy"], r.times["stat"],
                r.times["search"], r.times["compile"], r.times.total(),
                r.writeback);
    std::printf("  %-12s %7.0fs %7.0fs %7.0fs %8.0fs %8.0fs   (paper)\n", "",
                config.paper[0], config.paper[1], config.paper[2],
                config.paper[3],
                config.paper[0] + config.paper[1] + config.paper[2] +
                    config.paper[3]);
    std::fputs(r.metrics.c_str(), stdout);
  }
  std::printf("\n");
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
  return 0;
}

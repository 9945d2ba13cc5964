// Chaos recovery: server crash/restart under write load, write-verifier
// replay, and the cost of getting the data back to stable.
//
// Two scenarios per seed:
//   nfs-v3    the kernel client writes a file larger than its page cache, so
//             UNSTABLE write-backs stream out during the write; the server
//             crash-restarts mid-stream (volatile unstable data genuinely
//             reverts); the closing fsync rides the reconnect, sees the
//             rolled write verifier and replays every acknowledged-but-
//             uncommitted block before retrying COMMIT (RFC 1813 §3.3.21).
//   sgfs-wb   the write-back client proxy absorbs the file into its disk
//             cache at close; the server crash-restarts mid-flush; the
//             session flush re-establishes the secure session, replays the
//             uncommitted blocks and re-COMMITs.
//
// Reported: per-seed recovery time (crash -> all data stable) and replayed
// bytes, plus the distribution (mean/min/max) across the seed set; --json
// gets one row per seed and a summary row per scenario.  The acceptance
// bar: every run detects its crash (verifier mismatch + replay counters),
// the recovered file is byte-identical to what a fault-free run would have
// produced, and the first seed replays bit-identically.
#include "bench_util.hpp"

#include <algorithm>

using namespace sgfs;
using namespace sgfs::bench;
using baselines::SetupKind;
using baselines::Testbed;
using baselines::TestbedOptions;

namespace {

struct RunStats {
  double recovery_seconds = 0;
  uint64_t replayed_bytes = 0;
  uint64_t verf_mismatches = 0;
  uint64_t replays = 0;
  uint64_t crashes = 0;
  uint64_t reconnects = 0;
  bool content_ok = false;

  RunStats() = default;
  bool operator==(const RunStats&) const = default;
};

// Crash schedule and timestamps shared with the workload coroutine.
struct CrashPlan {
  sim::SimDur downtime = 0;
  sim::SimTime crash_time = 0;
  sim::SimTime done_time = 0;

  CrashPlan() = default;
};

constexpr uint64_t kChunk = 32 * 1024;

// Kernel-client scenario: crash lands between two write chunks, while
// eviction write-backs have already pushed UNSTABLE data to the server.
RunStats run_kernel(uint64_t seed, uint64_t file_bytes) {
  TestbedOptions opts;
  opts.kind = SetupKind::kNfsV3;
  opts.wan_rtt = 10 * sim::kMillisecond;
  opts.client_mem_bytes = 8 * kChunk;  // 8-block page cache forces eviction
  opts.seed = seed;
  Testbed tb(opts);

  Rng rng(seed * 0x9e3779b97f4a7c15ull + 7);
  const Buffer payload = rng.bytes(file_bytes);
  const uint64_t nchunks = (file_bytes + kChunk - 1) / kChunk;
  const uint64_t crash_chunk =
      nchunks * 6 / 10 +
      rng.next_below(std::max<uint64_t>(1, nchunks * 3 / 10));
  CrashPlan plan;
  plan.downtime =
      (50 + static_cast<int64_t>(rng.next_below(250))) * sim::kMillisecond;

  tb.engine().run_task([](Testbed& tb, ByteView payload, uint64_t nchunks,
                          uint64_t crash_chunk,
                          CrashPlan* plan) -> sim::Task<void> {
    auto mp = co_await tb.mount();
    int fd = co_await mp->open("/chaos.bin",
                               nfs::kWrOnly | nfs::kCreate | nfs::kTrunc,
                               0644);
    for (uint64_t c = 0; c < nchunks; ++c) {
      if (c == crash_chunk) {
        plan->crash_time = tb.engine().now();
        tb.server_host().crash_restart(plan->crash_time, plan->downtime);
      }
      const uint64_t off = c * kChunk;
      const size_t len = static_cast<size_t>(
          std::min<uint64_t>(kChunk, payload.size() - off));
      co_await mp->write(fd, ByteView(payload.data() + off, len));
    }
    co_await mp->fsync(fd);
    co_await mp->close(fd);
    plan->done_time = tb.engine().now();
  }(tb, ByteView(payload.data(), payload.size()), nchunks, crash_chunk,
    &plan));
  if (!tb.engine().errors().empty()) {
    std::fprintf(stderr, "WARNING: simulation errors: %s\n",
                 tb.engine().errors()[0].c_str());
  }

  RunStats out;
  out.recovery_seconds = sim::to_seconds(plan.done_time - plan.crash_time);
  const auto& m = tb.engine().metrics();
  out.replayed_bytes = m.counter_value("nfs.client.recovery.replayed_bytes");
  out.verf_mismatches =
      m.counter_value("nfs.client.recovery.verf_mismatches");
  out.replays = m.counter_value("nfs.client.recovery.replays");
  out.crashes = m.counter_value("net.host.crashes");
  out.reconnects = m.counter_value("nfs.client.reconnects");
  auto got = tb.server_fs().read_file(
      vfs::Cred(0, 0), std::string(Testbed::kDataPath) + "/chaos.bin");
  out.content_ok = got.ok() && got.value == payload;
  return out;
}

// Write-back-proxy scenario: the file is absorbed at close; the crash lands
// once the background flush has pushed a seed-chosen share of the bytes.
RunStats run_proxy(uint64_t seed, uint64_t file_bytes) {
  TestbedOptions opts;
  opts.kind = SetupKind::kSgfs;
  opts.proxy_disk_cache = true;
  opts.proxy_write_back = true;
  opts.wan_rtt = 10 * sim::kMillisecond;
  opts.seed = seed;
  Testbed tb(opts);

  Rng rng(seed * 0x9e3779b97f4a7c15ull + 9);
  const Buffer payload = rng.bytes(file_bytes);
  const uint64_t threshold = file_bytes / 4 + rng.next_below(file_bytes / 2);
  CrashPlan plan;
  plan.downtime =
      (50 + static_cast<int64_t>(rng.next_below(250))) * sim::kMillisecond;

  tb.engine().run_task([](Testbed& tb, ByteView payload, uint64_t threshold,
                          CrashPlan* plan) -> sim::Task<void> {
    auto mp = co_await tb.mount();
    int fd = co_await mp->open("/chaos.bin",
                               nfs::kWrOnly | nfs::kCreate | nfs::kTrunc,
                               0644);
    co_await mp->write(fd, payload);
    co_await mp->close(fd);  // absorbed into the proxy's write-back cache
    tb.engine().spawn([](Testbed* tb, uint64_t threshold,
                         CrashPlan* plan) -> sim::Task<void> {
      while (tb->client_proxy()->flushed_bytes() < threshold) {
        co_await tb->engine().sleep(2 * sim::kMillisecond);
      }
      plan->crash_time = tb->engine().now();
      tb->server_host().crash_restart(plan->crash_time, plan->downtime);
    }(&tb, threshold, plan));
    co_await tb.flush_session();
    plan->done_time = tb.engine().now();
  }(tb, ByteView(payload.data(), payload.size()), threshold, &plan));
  if (!tb.engine().errors().empty()) {
    std::fprintf(stderr, "WARNING: simulation errors: %s\n",
                 tb.engine().errors()[0].c_str());
  }

  RunStats out;
  out.recovery_seconds = sim::to_seconds(plan.done_time - plan.crash_time);
  const auto& m = tb.engine().metrics();
  out.replayed_bytes = m.counter_value("sgfs.recovery.replayed_bytes");
  out.verf_mismatches = m.counter_value("sgfs.recovery.verf_mismatches");
  out.replays = m.counter_value("sgfs.recovery.replays");
  out.crashes = m.counter_value("net.host.crashes");
  out.reconnects = tb.client_proxy()->reconnects();
  auto got = tb.server_fs().read_file(
      vfs::Cred(0, 0), std::string(Testbed::kDataPath) + "/chaos.bin");
  out.content_ok = got.ok() && got.value == payload;
  return out;
}

std::map<std::string, double> row_metrics(const RunStats& r) {
  return {{"recovery_seconds", r.recovery_seconds},
          {"replayed_bytes", static_cast<double>(r.replayed_bytes)},
          {"verf_mismatches", static_cast<double>(r.verf_mismatches)},
          {"replays", static_cast<double>(r.replays)},
          {"crashes", static_cast<double>(r.crashes)},
          {"reconnects", static_cast<double>(r.reconnects)},
          {"content_ok", r.content_ok ? 1.0 : 0.0}};
}

struct Dist {
  double mean = 0, mn = 0, mx = 0;
};

template <typename Get>
Dist dist_of(const std::vector<RunStats>& runs, Get&& get) {
  Dist d;
  d.mn = get(runs[0]);
  d.mx = get(runs[0]);
  for (const RunStats& r : runs) {
    const double v = get(r);
    d.mean += v;
    d.mn = std::min(d.mn, v);
    d.mx = std::max(d.mx, v);
  }
  d.mean /= static_cast<double>(runs.size());
  return d;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags =
      Flags::parse(argc, argv, {"seeds", "seed", "file-kb", "proxy-file-kb"});
  JsonReport json(flags, "chaos_recovery");
  const int seeds =
      static_cast<int>(flags.get_int("seeds", flags.full ? 10 : 5));
  const uint64_t base_seed = static_cast<uint64_t>(flags.get_int("seed", 42));
  const uint64_t v3_bytes = static_cast<uint64_t>(
                                flags.get_int("file-kb", flags.full ? 2048
                                                                    : 512)) *
                            1024;
  const uint64_t wb_bytes =
      static_cast<uint64_t>(
          flags.get_int("proxy-file-kb", flags.full ? 2048 : 1024)) *
      1024;

  print_header(
      "Chaos recovery — server crash/restart + write-verifier replay",
      std::to_string(seeds) + " seeds, 10ms RTT, " +
          std::to_string(v3_bytes / 1024) + "KB file (nfs-v3, 256KB cache), " +
          std::to_string(wb_bytes / 1024) + "KB file (sgfs write-back)");

  struct Scenario {
    const char* name;
    RunStats (*run)(uint64_t, uint64_t);
    uint64_t bytes;
  };
  const Scenario scenarios[] = {
      {"nfs-v3", run_kernel, v3_bytes},
      {"sgfs-wb", run_proxy, wb_bytes},
  };

  Gate gate("chaos_recovery");
  std::printf("  %-8s %-8s %10s %12s %6s %7s %7s %8s\n", "scenario", "seed",
              "recovery", "replayed", "crash", "mismtch", "replays",
              "content");
  for (const Scenario& sc : scenarios) {
    std::vector<RunStats> runs;
    for (int i = 0; i < seeds; ++i) {
      const uint64_t seed = base_seed + 1000ull * i;
      RunStats r = sc.run(seed, sc.bytes);
      std::printf("  %-8s %-8llu %9.2fs %10.1fKB %6llu %7llu %7llu %8s\n",
                  sc.name, static_cast<unsigned long long>(seed),
                  r.recovery_seconds, r.replayed_bytes / 1024.0,
                  static_cast<unsigned long long>(r.crashes),
                  static_cast<unsigned long long>(r.verf_mismatches),
                  static_cast<unsigned long long>(r.replays),
                  r.content_ok ? "ok" : "LOST");
      json.add_row(std::string(sc.name) + "/seed" + std::to_string(seed),
                   r.recovery_seconds, 0, row_metrics(r));
      runs.push_back(r);
    }
    const Dist rec =
        dist_of(runs, [](const RunStats& r) { return r.recovery_seconds; });
    const Dist rep = dist_of(runs, [](const RunStats& r) {
      return static_cast<double>(r.replayed_bytes);
    });
    std::printf("  %-8s %-8s %9.2fs [%.2f, %.2f]   replayed %.1fKB "
                "[%.1f, %.1f]\n",
                sc.name, "mean", rec.mean, rec.mn, rec.mx, rep.mean / 1024.0,
                rep.mn / 1024.0, rep.mx / 1024.0);
    json.add_row(std::string(sc.name) + "/distribution", rec.mean, 0,
                 {{"recovery_seconds.mean", rec.mean},
                  {"recovery_seconds.min", rec.mn},
                  {"recovery_seconds.max", rec.mx},
                  {"replayed_bytes.mean", rep.mean},
                  {"replayed_bytes.min", rep.mn},
                  {"replayed_bytes.max", rep.mx}});

    // Every run crashed, detected the verifier roll, replayed > 0 bytes
    // and recovered byte-identical content.
    const std::string name = sc.name;
    const auto intact =
        std::count_if(runs.begin(), runs.end(),
                      [](const RunStats& r) { return r.content_ok; });
    gate(name + " runs with intact content", static_cast<double>(intact),
         Op::kEq, seeds);
    gate(name + " min replayed bytes", rep.mn, Op::kGt, 0);
    const Dist crashes = dist_of(runs, [](const RunStats& r) {
      return static_cast<double>(r.crashes);
    });
    gate(name + " min crashes", crashes.mn, Op::kGe, 1);
    const Dist mismatches = dist_of(runs, [](const RunStats& r) {
      return static_cast<double>(r.verf_mismatches);
    });
    gate(name + " min verifier mismatches", mismatches.mn, Op::kGe, 1);

    // Determinism: the first seed must replay bit-identically.
    RunStats replay = sc.run(base_seed, sc.bytes);
    gate(name + " replay identical (first seed twice)",
         replay == runs[0] ? 1 : 0, Op::kEq, 1);
  }

  return gate.finish();
}

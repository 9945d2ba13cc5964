// Fleet-scale sharded serving: session-count sweep + crash-rebalance drill.
//
// Hundreds to a thousand concurrent client sessions run a closed-loop
// GETATTR/READ/WRITE mix against a consistent-hash-sharded fleet of server
// proxies (src/fleet).  Sessions discover their shard through the FSS
// (kGetShardMap) at establishment; the sweep reports aggregate goodput and
// p50/p99/p999 per-op latency versus session count, plus the wall-clock
// sim-events/sec the simulation sustained (the 10k-actor affordability
// figure the hot-path metrics/FairMutex fixes paid for).
//
// The crash drill kills one shard mid-window: the controller publishes a
// new shard-map epoch without it, the orphaned sessions re-discover and
// re-establish against the surviving shards (reconnect + retry + admission
// machinery from the overload/chaos work), and a later epoch folds the
// restarted shard back in.  Gates (nonzero exit on failure): the sweep
// meets its latency SLO with a >= 99% success ratio, the drill actually
// rebalances (reroutes observed, final epoch = 3), goodput dips while the
// shard is down and recovers to >= 90% of the pre-crash plateau, the drill
// replays bit-identically, and sim-events/sec stays above the CI floor.
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "fleet/fleet.hpp"

using namespace sgfs;
using namespace sgfs::bench;

namespace {

/// Prints one run's row and attaches its metrics; returns its goodput.
double print_fleet_run(const std::string& name, const fleet::FleetResult& r,
                       double window_s, JsonReport& json) {
  const double goodput = static_cast<double>(r.ok) / window_s;
  const double evps =
      r.wall_seconds > 0 ? static_cast<double>(r.events) / r.wall_seconds : 0;
  char note[256];
  std::snprintf(note, sizeof note,
                "goodput %.0f/s; p50 %.2f p99 %.2f p999 %.2f ms; ok %llu "
                "busy %llu giveup %llu err %llu; %.0fk ev/s wall",
                goodput, r.percentile_ms(0.50), r.percentile_ms(0.99),
                r.percentile_ms(0.999),
                static_cast<unsigned long long>(r.ok),
                static_cast<unsigned long long>(r.busy),
                static_cast<unsigned long long>(r.giveups),
                static_cast<unsigned long long>(r.errors), evps / 1e3);
  print_row(name, goodput, 0, note);

  std::map<std::string, double> m = r.metrics;
  m["fleet.goodput_per_sec"] = goodput;
  m["fleet.p50_ms"] = r.percentile_ms(0.50);
  m["fleet.p99_ms"] = r.percentile_ms(0.99);
  m["fleet.p999_ms"] = r.percentile_ms(0.999);
  m["fleet.ok"] = static_cast<double>(r.ok);
  m["fleet.busy"] = static_cast<double>(r.busy);
  m["fleet.giveups"] = static_cast<double>(r.giveups);
  m["fleet.errors"] = static_cast<double>(r.errors);
  m["fleet.establishes"] = static_cast<double>(r.establishes);
  m["fleet.reroutes"] = static_cast<double>(r.reroutes);
  m["fleet.discovery_fetches"] = static_cast<double>(r.discovery_fetches);
  m["fleet.final_epoch"] = static_cast<double>(r.final_epoch);
  m["fleet.events"] = static_cast<double>(r.events);
  m["fleet.actors"] = static_cast<double>(r.actors);
  m["fleet.sim_errors"] = static_cast<double>(r.sim_errors);
  m["fleet.events_per_wall_sec"] = evps;
  json.attach_metrics(name, m);
  return goodput;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags = Flags::parse(
      argc, argv,
      {"quick", "shards", "window", "crash-window", "min-events-per-sec"});
  JsonReport json(flags, "fleet");

  const bool quick = flags.raw.count("quick") > 0;
  const int shards = static_cast<int>(flags.get_int("shards", 4));
  const double window = flags.get_double("window", quick ? 10.0 : 20.0);
  const double crash_window =
      flags.get_double("crash-window", quick ? 14.0 : 20.0);
  const double slo_p99_ms = 100.0;
  const double slo_p999_ms = 500.0;
  const double min_evps = flags.get_double("min-events-per-sec", 0.0);
  std::vector<int> sweep = {100, 250, 500, 1000};
  if (quick) sweep = {250, 1000};

  std::printf("fleet: %d server-proxy shards, consistent-hash placement, "
              "FSS shard discovery\n", shards);
  std::printf("sweep: closed-loop sessions (5 ops/s each), %.0fs window\n\n",
              window);

  Gate gate("fleet");

  // --- session-count sweep (no faults) -------------------------------------
  for (int sessions : sweep) {
    fleet::FleetOptions opt;
    opt.shards = shards;
    opt.sessions = sessions;
    opt.window_s = window;
    fleet::FleetResult r = fleet::run_fleet(opt);
    const std::string name = "fleet@" + std::to_string(sessions);
    const double goodput = print_fleet_run(name, r, window, json);

    const double total =
        static_cast<double>(r.ok + r.busy + r.giveups + r.errors);
    const double success = total > 0 ? static_cast<double>(r.ok) / total : 0;
    gate(name + " goodput ops/s", goodput, Op::kGt, 0);
    gate(name + " success ratio", success, Op::kGe, 0.99);
    gate(name + " p99 ms (SLO)", r.percentile_ms(0.99), Op::kLe, slo_p99_ms);
    gate(name + " p999 ms (SLO)", r.percentile_ms(0.999), Op::kLe,
         slo_p999_ms);
    gate(name + " p999 ms recorded", r.percentile_ms(0.999), Op::kGt, 0);
    gate(name + " sim errors", static_cast<double>(r.sim_errors), Op::kEq, 0);
  }

  // --- crash-rebalance drill at full scale ----------------------------------
  fleet::FleetOptions drill;
  drill.shards = shards;
  drill.sessions = 1000;
  drill.window_s = crash_window;
  drill.crash_shard = 1;
  drill.crash_at_s = quick ? 4.0 : 6.0;
  drill.downtime_s = quick ? 3.0 : 4.0;
  std::printf("\ncrash drill: 1000 sessions, shard1 crashes at +%.0fs for "
              "%.0fs; controller republishes the map\n",
              drill.crash_at_s, drill.downtime_s);
  fleet::FleetResult cr = fleet::run_fleet(drill);
  const double crash_goodput =
      print_fleet_run("fleet@crash", cr, crash_window, json);

  std::printf("  goodput timeline (ops/s per virtual second):\n    ");
  for (size_t b = 0; b < cr.bucket_ok.size(); ++b) {
    std::printf("%s%llu", b ? " " : "",
                static_cast<unsigned long long>(cr.bucket_ok[b]));
  }
  std::printf("\n");

  const double pre = cr.mean_goodput(cr.win_start_bucket + 1,
                                     cr.crash_bucket);
  const double during = cr.mean_goodput(
      cr.crash_bucket + 1,
      cr.crash_bucket + static_cast<size_t>(drill.downtime_s));
  const double post = cr.mean_goodput(cr.restored_bucket,
                                      cr.win_end_bucket);
  gate("crash drill goodput ops/s", crash_goodput, Op::kGt, 0);
  gate("crash drill p999 ms recorded", cr.percentile_ms(0.999), Op::kGt, 0);
  gate("crash drill pre-crash plateau ops/s", pre, Op::kGt, 0);
  const double dip = pre > 0 ? during / pre : 1.0;
  gate("crash drill goodput dip while down", dip, Op::kLe, 0.9);
  const double recovery = pre > 0 ? post / pre : 0.0;
  gate("crash drill recovery / pre-crash plateau", recovery, Op::kGe, 0.9);
  gate("crash drill reroutes (rebalancing exercised)",
       static_cast<double>(cr.reroutes), Op::kGt, 0);
  gate("crash drill final shard-map epoch",
       static_cast<double>(cr.final_epoch), Op::kEq, 3);
  gate("crash drill actors spawned", static_cast<double>(cr.actors), Op::kGe,
       10000);
  gate("crash drill sim errors", static_cast<double>(cr.sim_errors), Op::kEq,
       0);

  // --- determinism: the drill replays bit-identically ----------------------
  fleet::FleetResult replay = fleet::run_fleet(drill);
  const bool identical = replay.fingerprint() == cr.fingerprint();
  gate("crash drill replay fingerprint identical", identical ? 1 : 0, Op::kEq,
       1);

  // --- simulator throughput (the affordability figure) ----------------------
  const double evps = cr.wall_seconds > 0
                          ? static_cast<double>(cr.events) / cr.wall_seconds
                          : 0;
  std::printf("\nsim throughput: %.0f events/s wall (%llu events in %.2fs) "
              "at 1000 sessions\n",
              evps, static_cast<unsigned long long>(cr.events),
              cr.wall_seconds);
  if (min_evps > 0) {
    gate("sim events per wall second", evps, Op::kGe, min_evps);
  } else if (JsonReport* j = JsonReport::current()) {
    j->add_check("sim events per wall second", evps, "tracked");
  }

  return gate.finish();
}

// Connection storm: one secure server proxy, N clients, a mid-window server
// restart, and the whole cohort re-establishing at once (src/fleet/connstorm).
//
// Sweeps resumption (cross-session tickets + durable ticket cache + FSS SSO
// pass cache) on/off x admission control on/off.  Gates (nonzero exit on
// failure):
//
//   - the resumption+admission configuration recovers goodput to 90% of its
//     pre-crash plateau >= 3x faster than the naive full-handshake herd
//     (recovery clamped to one 1s bucket of measurement granularity);
//   - with the SSO pass desk on, FSS signatures stay O(users) — bounded by
//     users x a small constant — while the naive sweep pays O(sessions);
//   - tickets are actually redeemed (resumed handshakes dominate the storm)
//     and never used when resumption is off;
//   - the headline run replays bit-identically (ConnstormResult fingerprint).
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "fleet/connstorm.hpp"

using namespace sgfs;
using namespace sgfs::bench;

namespace {

struct Sweep {
  std::string name;
  bool resumption = false;
  bool admission = false;
};

void print_storm_run(const std::string& name, const fleet::ConnstormResult& r,
                     double window_s, JsonReport& json) {
  const double goodput = static_cast<double>(r.ok) / window_s;
  char note[256];
  std::snprintf(note, sizeof note,
                "plateau %.0f/s; recovery %.0fs; full %llu resumed %llu "
                "fallback %llu; fss sigs %llu hits %llu",
                r.plateau, r.recovery_s,
                static_cast<unsigned long long>(r.full_handshakes),
                static_cast<unsigned long long>(r.resumed_sessions),
                static_cast<unsigned long long>(r.fallback_handshakes),
                static_cast<unsigned long long>(r.fss_signatures),
                static_cast<unsigned long long>(r.fss_cache_hits));
  print_row(name, goodput, 0, note);

  std::map<std::string, double> m = r.metrics;
  m["storm.goodput_per_sec"] = goodput;
  m["storm.plateau_per_sec"] = r.plateau;
  m["storm.recovery_s"] = r.recovery_s;
  m["storm.ok"] = static_cast<double>(r.ok);
  m["storm.busy"] = static_cast<double>(r.busy);
  m["storm.giveups"] = static_cast<double>(r.giveups);
  m["storm.errors"] = static_cast<double>(r.errors);
  m["storm.establishes"] = static_cast<double>(r.establishes);
  m["storm.reconnects"] = static_cast<double>(r.reconnects);
  m["storm.full_handshakes"] = static_cast<double>(r.full_handshakes);
  m["storm.resumed_sessions"] = static_cast<double>(r.resumed_sessions);
  m["storm.fallback_handshakes"] =
      static_cast<double>(r.fallback_handshakes);
  m["storm.fss_signatures"] = static_cast<double>(r.fss_signatures);
  m["storm.fss_cache_hits"] = static_cast<double>(r.fss_cache_hits);
  m["storm.sso_authorizations"] = static_cast<double>(r.sso_authorizations);
  m["storm.events"] = static_cast<double>(r.events);
  m["storm.sim_errors"] = static_cast<double>(r.sim_errors);
  json.attach_metrics(name, m);

  std::printf("    goodput timeline (ok/s; crash at bucket %zu, restart at "
              "%zu):\n    ",
              r.crash_bucket, r.restart_bucket);
  for (size_t b = r.win_start_bucket; b < r.win_end_bucket; ++b) {
    std::printf("%s%llu", b > r.win_start_bucket ? " " : "",
                static_cast<unsigned long long>(r.bucket_ok[b]));
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags = Flags::parse(
      argc, argv,
      {"quick", "clients", "users", "window", "crash-at", "downtime", "seed"});
  JsonReport json(flags, "connstorm");

  const bool quick = flags.raw.count("quick") > 0;
  fleet::ConnstormOptions base;
  base.clients = static_cast<int>(flags.get_int("clients", 128));
  base.users = static_cast<int>(flags.get_int("users", 8));
  base.window_s = flags.get_double("window", quick ? 18.0 : 22.0);
  base.crash_at_s = flags.get_double("crash-at", 6.0);
  base.downtime_s = flags.get_double("downtime", 2.0);
  base.seed = static_cast<uint64_t>(flags.get_int("seed", 42));

  std::printf("connstorm: %d secure sessions (%d grid users), server "
              "restart at +%.0fs for %.0fs, %.0fs window\n\n",
              base.clients, base.users, base.crash_at_s, base.downtime_s,
              base.window_s);

  Gate gate("connstorm");

  const std::vector<Sweep> sweeps = {
      {"naive", false, false},
      {"resume", true, false},
      {"admission", false, true},
      {"resume+adm", true, true},
  };
  std::map<std::string, fleet::ConnstormResult> results;
  for (const Sweep& s : sweeps) {
    fleet::ConnstormOptions opt = base;
    opt.resumption = s.resumption;
    opt.sso_cache = s.resumption;  // the unified-lifecycle bundle
    opt.admission = s.admission;
    fleet::ConnstormResult r = fleet::run_connstorm(opt);
    print_storm_run(s.name, r, base.window_s, json);
    gate(s.name + " sim errors", static_cast<double>(r.sim_errors), Op::kEq,
         0);
    gate(s.name + " pre-crash plateau ops/s", r.plateau, Op::kGt, 0);
    results[s.name] = std::move(r);
  }

  const fleet::ConnstormResult& naive = results["naive"];
  const fleet::ConnstormResult& full = results["resume+adm"];

  // --- recovery: tickets + admission vs the full-handshake herd ------------
  const double clamped_full = full.recovery_s < 1.0 ? 1.0 : full.recovery_s;
  const double speedup = naive.recovery_s / clamped_full;
  gate("recovery speedup (naive / resume+adm)", speedup, Op::kGe, 3.0);

  // --- ticket accounting ----------------------------------------------------
  gate("naive resumed handshakes", static_cast<double>(naive.resumed_sessions),
       Op::kEq, 0);
  gate("resume+adm resumed handshakes",
       static_cast<double>(full.resumed_sessions), Op::kGe, base.clients);
  // sgfs.session.* counters only exist when resumption is on; the naive
  // herd's RSA exchanges show up in the channel-level crypto.handshakes.
  const double herd = naive.metrics.count("crypto.handshakes")
                          ? naive.metrics.at("crypto.handshakes")
                          : 0;
  gate("naive full handshakes (herd >= 2 per client)", herd, Op::kGe,
       2.0 * base.clients);
  gate("resume+adm fallback handshakes (durable cache)",
       static_cast<double>(full.fallback_handshakes), Op::kEq, 0);

  // --- FSS signature scaling: O(users) with the pass desk, O(sessions)
  // without ------------------------------------------------------------------
  gate("resume+adm FSS signatures (O(users))",
       static_cast<double>(full.fss_signatures), Op::kLe, 4.0 * base.users);
  gate("naive FSS signatures (O(sessions))",
       static_cast<double>(naive.fss_signatures), Op::kGe,
       2.0 * base.clients);
  gate("resume+adm FSS cache hits", static_cast<double>(full.fss_cache_hits),
       Op::kGt, 0);

  // --- determinism ----------------------------------------------------------
  {
    fleet::ConnstormOptions opt = base;
    opt.resumption = true;
    opt.sso_cache = true;
    opt.admission = true;
    fleet::ConnstormResult replay = fleet::run_connstorm(opt);
    const bool identical = replay.fingerprint() == full.fingerprint();
    gate("resume+adm replay fingerprint identical", identical ? 1 : 0,
         Op::kEq, 1);
  }

  return gate.finish();
}

// Overload robustness: offered-load sweep across the server proxy.
//
// An open-loop generator (fixed, deterministic inter-arrival times across N
// session hosts) issues GETATTRs through a CPU-bound plain-transport server
// proxy and sweeps the offered load past the proxy's capacity.  Two client/
// server configurations face the same arrivals:
//
//   naive   — classic NFS-over-UDP behaviour: clients retransmit on timeout
//             and give up after a bound; the server admits everything, so
//             the forward queue grows without limit and every reply arrives
//             after its caller stopped listening.  Goodput collapses.
//   robust  — server-side admission control (bounded concurrency + queue,
//             NFS3ERR_JUKEBOX busy replies at capacity), client-side
//             JUKEBOX-aware delayed retry under fresh xids, and a retry
//             budget bounding retransmission amplification.  Goodput
//             plateaus at capacity and tail latency stays bounded.
//
// The acceptance bar (gated; nonzero exit on failure): both configurations
// match the offered load when underloaded, the robust configuration holds
// its plateau at 2x capacity while the naive one collapses below half of
// it, shedding/jukebox actually engaged, and the peak-load robust run
// replays bit-identically in virtual time.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "net/network.hpp"
#include "nfs/nfs3_server.hpp"
#include "nfs/wire_ops.hpp"
#include "rpc/retry.hpp"
#include "rpc/rpc_server.hpp"
#include "sgfs/server_proxy.hpp"
#include "vfs/vfs.hpp"

using namespace sgfs;
using namespace sgfs::bench;

namespace {

constexpr const char* kDataPath = "/GFS/grid";
constexpr uint32_t kGridUid = 1000;

// Proxy forwarding cost: 5 ms CPU per message makes the proxy the bottleneck
// at ~195 calls/s (5 ms + loopback hop + kernel nfsd work), small enough
// that a 2x-capacity sweep stays cheap to simulate.
constexpr sim::SimDur kProxyMsgCpu = 5 * sim::kMillisecond;

/// Client-side behaviour of one configuration.
struct ClientCfg {
  rpc::RetryPolicy retry;
  rpc::JukeboxPolicy jukebox;   // disabled => JUKEBOX surfaces to caller
  double budget_ratio = 0.0;    // 0 => no retry budget

  ClientCfg() = default;
};

/// One (configuration, offered load) run's outcome.  Counters are keyed by
/// ARRIVAL time (standard open-loop accounting): only calls that arrived
/// inside the measurement window count, however late they complete.
struct RunOut {
  uint64_t offered = 0;   // in-window arrivals
  uint64_t ok = 0;        // completed successfully
  uint64_t giveups = 0;   // client exhausted its retransmission budget
  uint64_t busy = 0;      // JUKEBOX surfaced after (any) delayed retries
  uint64_t errors = 0;    // anything else (should stay 0)
  std::vector<uint64_t> lat_ns;  // latency of each in-window success

  double goodput = 0;  // ok / window seconds
  double p50_ms = 0;
  double p99_ms = 0;
  std::map<std::string, double> metrics;

  RunOut() = default;

  /// Bit-determinism comparison: every count and every latency sample.
  bool same(const RunOut& o) const {
    return offered == o.offered && ok == o.ok && giveups == o.giveups &&
           busy == o.busy && errors == o.errors && lat_ns == o.lat_ns;
  }
};

/// Completion bookkeeping shared by the generators and their spawned calls.
struct Tally {
  uint64_t issued = 0;
  uint64_t done = 0;

  Tally() = default;
};

sim::Task<void> one_call(sim::Engine& eng, nfs::WireOps& ops, nfs::Fh fh,
                         bool in_window, RunOut& out, Tally& tally) {
  const sim::SimTime arrival = eng.now();
  try {
    nfs::GetattrRes res = co_await ops.getattr(fh);
    if (res.status == nfs::Status::kOk) {
      if (in_window) {
        ++out.ok;
        out.lat_ns.push_back(static_cast<uint64_t>(eng.now() - arrival));
      }
    } else if (res.status == nfs::Status::kJukebox) {
      if (in_window) ++out.busy;
    } else {
      if (in_window) ++out.errors;
    }
  } catch (const rpc::RpcTimeout&) {
    if (in_window) ++out.giveups;
  } catch (const std::exception&) {
    if (in_window) ++out.errors;
  }
  ++tally.done;
}

sim::Task<void> generator(sim::Engine& eng, nfs::WireOps& ops, nfs::Fh fh,
                          sim::SimDur phase, sim::SimDur interval,
                          sim::SimTime window_start, sim::SimTime window_end,
                          RunOut& out, Tally& tally) {
  co_await eng.sleep(phase);
  while (eng.now() < window_end) {
    ++tally.issued;
    const bool in_window = eng.now() >= window_start;
    if (in_window) ++out.offered;
    eng.spawn(one_call(eng, ops, fh, in_window, out, tally));
    co_await eng.sleep(interval);
  }
}

sim::Task<void> drive(sim::Engine& eng, std::vector<net::Host*>& sess,
                      ClientCfg ccfg, double offered_per_sec,
                      sim::SimDur warmup, sim::SimDur window, RunOut& out) {
  Tally tally;
  const net::Address proxy_addr("server", 3049);

  // One wire-ops backend (its own RPC connection and retry state) per
  // session host; session 0 mounts for everyone.
  std::vector<std::unique_ptr<nfs::V3WireOps>> ops;
  for (net::Host* host : sess) {
    rpc::AuthSys auth(kGridUid, kGridUid, host->name());
    auto o = co_await nfs::V3WireOps::connect(*host, proxy_addr, auth,
                                              ccfg.retry, ccfg.jukebox);
    if (ccfg.budget_ratio > 0) {
      o->set_retry_budget(
          std::make_shared<rpc::RetryBudget>(ccfg.budget_ratio));
    }
    ops.push_back(std::move(o));
  }
  nfs::Fh root = co_await ops[0]->mount(kDataPath);

  // Open-loop arrivals: aggregate rate R split evenly across sessions,
  // fixed interval N/R per session, session i phase-shifted by i/R so the
  // aggregate stream is a clean R-per-second comb.  Fully deterministic.
  const size_t n = ops.size();
  const sim::SimDur interval =
      sim::from_seconds(static_cast<double>(n) / offered_per_sec);
  const sim::SimTime t0 = eng.now();
  const sim::SimTime window_start = t0 + warmup;
  const sim::SimTime window_end = window_start + window;
  for (size_t i = 0; i < n; ++i) {
    const sim::SimDur phase =
        static_cast<sim::SimDur>(interval * i / static_cast<sim::SimDur>(n));
    eng.spawn(generator(eng, *ops[i], root, phase, interval, window_start,
                        window_end, out, tally));
  }

  // Wait for every issued call to resolve (success, give-up or surfaced
  // JUKEBOX) — NOT for the server to drain its backlog of abandoned work.
  co_await eng.sleep(warmup + window);
  while (tally.done < tally.issued) {
    co_await eng.sleep(50 * sim::kMillisecond);
  }
}

double percentile(std::vector<uint64_t> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t idx = static_cast<size_t>(
      q * static_cast<double>(v.size() - 1) + 0.5);
  return static_cast<double>(v[idx]);
}

RunOut run_once(bool admission, ClientCfg ccfg, int sessions,
                double offered_per_sec, sim::SimDur warmup,
                sim::SimDur window) {
  sim::Engine eng;
  net::Network net(eng);
  net::Host& server = net.add_host("server");
  std::vector<net::Host*> sess;
  for (int i = 0; i < sessions; ++i) {
    sess.push_back(&net.add_host("sess" + std::to_string(i)));
  }
  net.set_default_link(net::LinkParams::lan());

  // Kernel NFS server on the loopback, exported to the proxy host only.
  auto fs = std::make_shared<vfs::FileSystem>();
  vfs::Cred root(0, 0);
  fs->mkdir_p(root, kDataPath, 0755);
  auto dir = fs->resolve(root, kDataPath);
  vfs::SetAttrs chown;
  chown.uid = kGridUid;
  chown.gid = kGridUid;
  fs->setattr(root, dir.value, chown);
  auto kernel_nfs = std::make_shared<nfs::Nfs3Server>(server, fs, 1,
                                                      nfs::ServerCostModel());
  kernel_nfs->add_export(
      nfs::ExportEntry("/GFS", std::set<std::string>{"server"}));
  auto kernel_rpc = std::make_unique<rpc::RpcServer>(server, 2049);
  kernel_rpc->register_program(nfs::kNfsProgram, nfs::kNfsVersion3,
                               kernel_nfs);
  kernel_rpc->register_program(nfs::kMountProgram, nfs::kMountVersion3,
                               kernel_nfs->mount_program());
  kernel_rpc->start();

  // CPU-bound plain-transport server proxy (the system under overload).
  core::ServerProxyConfig scfg;
  scfg.kernel_nfs = net::Address("server", 2049);
  scfg.plain_transport = true;
  scfg.plain_account = core::Account("grid", kGridUid, kGridUid);
  scfg.accounts.add(core::Account("grid", kGridUid, kGridUid));
  scfg.fine_grained_acls = false;
  scfg.cost.per_msg_cpu = kProxyMsgCpu;
  if (admission) {
    scfg.admission = rpc::AdmissionControl(4, 16, /*busy=*/true);
  }
  auto proxy =
      std::make_shared<core::ServerProxy>(server, scfg, nullptr, Rng(42));
  proxy->start(3049);

  RunOut out;
  eng.run_task(drive(eng, sess, ccfg, offered_per_sec, warmup, window, out));
  if (!eng.errors().empty()) {
    std::fprintf(stderr, "WARNING: simulation errors: %s\n",
                 eng.errors()[0].c_str());
  }

  out.goodput = static_cast<double>(out.ok) / sim::to_seconds(window);
  out.p50_ms = percentile(out.lat_ns, 0.50) / 1e6;
  out.p99_ms = percentile(out.lat_ns, 0.99) / 1e6;
  out.metrics = JsonReport::snapshot(eng.metrics());
  out.metrics["overload.offered"] = static_cast<double>(out.offered);
  out.metrics["overload.ok"] = static_cast<double>(out.ok);
  out.metrics["overload.giveups"] = static_cast<double>(out.giveups);
  out.metrics["overload.busy_failures"] = static_cast<double>(out.busy);
  out.metrics["overload.errors"] = static_cast<double>(out.errors);
  out.metrics["overload.goodput_per_sec"] = out.goodput;
  out.metrics["overload.p50_ms"] = out.p50_ms;
  out.metrics["overload.p99_ms"] = out.p99_ms;
  out.metrics["overload.proxy_shed"] =
      static_cast<double>(proxy->calls_shed());
  return out;
}

ClientCfg naive_cfg() {
  ClientCfg c;
  // Sun-RPC-over-UDP style: retransmit on timeout, give up after 2 resends
  // (250 ms, 500 ms, 1 s => the caller abandons the call after 1.75 s).
  c.retry.initial_timeout = 250 * sim::kMillisecond;
  c.retry.backoff = 2.0;
  c.retry.max_timeout = 2 * sim::kSecond;
  c.retry.max_retransmits = 2;
  return c;
}

ClientCfg robust_cfg() {
  ClientCfg c = naive_cfg();  // same timeout behaviour underneath
  c.jukebox.max_retries = 6;
  c.jukebox.initial_delay = 100 * sim::kMillisecond;
  c.jukebox.backoff = 2.0;
  c.jukebox.max_delay = 2 * sim::kSecond;
  c.budget_ratio = 0.1;  // retries bounded to 10% of offered load
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags =
      Flags::parse(argc, argv, {"quick", "sessions", "warmup", "window"});
  JsonReport json(flags, "overload");

  const bool quick = flags.raw.count("quick") > 0;
  const int sessions = static_cast<int>(flags.get_int("sessions", 8));
  const sim::SimDur warmup =
      sim::from_seconds(flags.get_double("warmup", quick ? 3.0 : 5.0));
  const sim::SimDur window =
      sim::from_seconds(flags.get_double("window", quick ? 10.0 : 25.0));
  // Proxy capacity is ~195 calls/s (5 ms CPU per forwarded message); the
  // sweep crosses it and ends at roughly 2x.
  std::vector<double> loads = {50, 100, 150, 250, 300, 400};
  if (quick) loads = {100, 400};

  std::printf("overload: offered-load sweep, %d sessions, %.0fs window "
              "(proxy capacity ~195/s)\n",
              sessions, sim::to_seconds(window));

  std::vector<RunOut> naive_runs;
  std::vector<RunOut> robust_runs;
  for (size_t pass = 0; pass < 2; ++pass) {
    const bool admission = pass == 1;
    const char* tag = admission ? "robust" : "naive";
    const ClientCfg ccfg = admission ? robust_cfg() : naive_cfg();
    std::printf("%s (%s):\n", tag,
                admission ? "admission + jukebox retry + retry budget"
                          : "retransmit + give up, no admission");
    for (double load : loads) {
      RunOut out =
          run_once(admission, ccfg, sessions, load, warmup, window);
      char name[64];
      std::snprintf(name, sizeof name, "%s@%.0f", tag, load);
      char note[160];
      std::snprintf(note, sizeof note,
                    "goodput %.1f/s of %.0f/s offered; p50 %.1f ms p99 "
                    "%.1f ms; ok %llu giveup %llu busy %llu",
                    out.goodput, load, out.p50_ms, out.p99_ms,
                    static_cast<unsigned long long>(out.ok),
                    static_cast<unsigned long long>(out.giveups),
                    static_cast<unsigned long long>(out.busy));
      print_row(name, out.goodput, 0, note);
      json.attach_metrics(name, out.metrics);
      (admission ? robust_runs : naive_runs).push_back(out);
    }
  }

  // --- gates ---------------------------------------------------------------
  const size_t low = 0;
  const size_t peak = loads.size() - 1;
  const RunOut& naive_low = naive_runs[low];
  const RunOut& robust_low = robust_runs[low];
  const RunOut& naive_peak = naive_runs[peak];
  const RunOut& robust_peak = robust_runs[peak];

  Gate gate("overload");

  const double naive_low_frac = naive_low.goodput / loads[low];
  gate("naive goodput/offered underloaded", naive_low_frac, Op::kGe, 0.9);
  const double robust_low_frac = robust_low.goodput / loads[low];
  gate("robust goodput/offered underloaded", robust_low_frac, Op::kGe, 0.9);

  // Robust plateau: goodput at 2x capacity stays near the best the robust
  // configuration achieved anywhere in the sweep.
  double robust_best = 0;
  for (const RunOut& r : robust_runs) robust_best = std::max(robust_best,
                                                             r.goodput);
  const double plateau = robust_peak.goodput / robust_best;
  gate("robust peak/best goodput (plateau)", plateau, Op::kGe, 0.8);

  // Naive collapse vs robust plateau at the same peak load.
  const double collapse = robust_peak.goodput > 0
                              ? naive_peak.goodput / robust_peak.goodput
                              : 1.0;
  gate("naive/robust goodput at peak (collapse)", collapse, Op::kLe, 0.5);

  // The mechanisms actually engaged at peak load.
  const double shed = robust_peak.metrics.at("overload.proxy_shed");
  gate("robust peak load shed calls", shed, Op::kGt, 0);
  const auto jb = robust_peak.metrics.find("nfs.client.jukebox_retries");
  const double jukebox = jb == robust_peak.metrics.end() ? 0 : jb->second;
  gate("robust peak jukebox retries", jukebox, Op::kGt, 0);
  const auto gu = naive_peak.metrics.find("rpc.client.giveups");
  const double giveups = gu == naive_peak.metrics.end() ? 0 : gu->second;
  gate("naive peak client give-ups", giveups, Op::kGt, 0);

  // Bit-determinism: the peak-load robust run replays identically.
  RunOut replay = run_once(true, robust_cfg(), sessions, loads[peak], warmup,
                           window);
  const bool identical = replay.same(robust_peak);
  gate("robust peak replay identical", identical ? 1 : 0, Op::kEq, 1);

  return gate.finish();
}

// Fault injection + recovery: PostMark on sgfs under WAN message loss.
//
// Exercises the failure path end-to-end: a deterministic net::FaultPlan
// drops (and optionally corrupts) RPC-level messages on the client<->server
// link; the client proxy's RPC retransmission (same xid, exponential
// backoff) recovers lost calls and replies; a corrupted secure record fails
// the MAC check, the channel fails closed, and the proxy re-establishes the
// session; retransmitted non-idempotent ops (CREATE/REMOVE/RENAME/SETATTR)
// are answered from the server proxy's duplicate-request cache instead of
// re-executing.
//
// The acceptance bar: the 1%-loss run completes (no hang), retransmission
// and DRC counters are nonzero, and the same seed replays bit-identically.
#include "bench_util.hpp"

using namespace sgfs;
using namespace sgfs::bench;
using namespace sgfs::workloads;
using baselines::SetupKind;
using baselines::Testbed;
using baselines::TestbedOptions;

namespace {

struct RunResult {
  PhaseTimes times;
  uint64_t retransmits = 0;
  uint64_t reconnects = 0;
  uint64_t drc_hits = 0;
  uint64_t delivered = 0;
  uint64_t dropped = 0;
  uint64_t corrupted = 0;

  RunResult() = default;

  bool operator==(const RunResult& o) const {
    return times.phases == o.times.phases && retransmits == o.retransmits &&
           reconnects == o.reconnects && drc_hits == o.drc_hits &&
           delivered == o.delivered && dropped == o.dropped &&
           corrupted == o.corrupted;
  }
};

RunResult run_once(double loss, double corrupt, PostmarkParams params,
                   uint64_t seed, const Flags& flags,
                   const std::string& trace_tag = "",
                   std::string* metrics_out = nullptr) {
  TestbedOptions opts;
  opts.kind = SetupKind::kSgfs;
  opts.cipher = crypto::Cipher::kAes256Cbc;
  opts.mac = crypto::MacAlgo::kHmacSha1;
  opts.wan_rtt = 10 * sim::kMillisecond;
  opts.loss_probability = loss;
  opts.corrupt_probability = corrupt;
  opts.seed = seed;
  Testbed tb(opts);
  if (metrics_out != nullptr && trace_requested(flags)) {
    tb.engine().tracer().set_enabled(true);
  }
  params.seed = seed;
  RunResult out;
  tb.engine().run_task([](Testbed& tb, PostmarkParams p,
                          PhaseTimes* t) -> sim::Task<void> {
    auto mp = co_await tb.mount();
    *t = co_await run_postmark(tb, mp, p);
  }(tb, params, &out.times));
  if (!tb.engine().errors().empty()) {
    std::fprintf(stderr, "WARNING: simulation errors: %s\n",
                 tb.engine().errors()[0].c_str());
  }
  out.retransmits = tb.client_proxy()->upstream_retransmits();
  out.reconnects = tb.client_proxy()->reconnects();
  out.drc_hits = tb.server_drc_hits();
  if (auto* plan = tb.fault_plan()) {
    out.delivered = plan->delivered();
    out.dropped = plan->dropped();
    out.corrupted = plan->corrupted();
  }
  if (metrics_out != nullptr) {
    *metrics_out = obs::format_summary(tb.engine().metrics(), "    ");
    dump_trace(flags, tb.engine(), trace_tag);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags =
      Flags::parse(argc, argv, {"dirs", "files", "transactions", "seed"});
  JsonReport json(flags, "fault_recovery");
  PostmarkParams params;
  params.directories =
      static_cast<int>(flags.get_int("dirs", flags.full ? 100 : 10));
  params.files =
      static_cast<int>(flags.get_int("files", flags.full ? 500 : 100));
  params.transactions = static_cast<int>(
      flags.get_int("transactions", flags.full ? 1000 : 250));
  const uint64_t seed =
      static_cast<uint64_t>(flags.get_int("seed", 42));

  print_header("Fault recovery — PostMark on sgfs under WAN message loss",
               std::to_string(params.directories) + " dirs, " +
                   std::to_string(params.files) + " files, " +
                   std::to_string(params.transactions) +
                   " transactions, 10ms RTT, retransmit 1s/x2/30s cap");

  struct Point {
    const char* name;
    double loss;
    double corrupt;
  };
  const Point points[] = {
      {"no faults", 0.0, 0.0},
      {"0.1% loss", 0.001, 0.0},
      {"1% loss", 0.01, 0.0},
      {"1% loss + 0.1% corrupt", 0.01, 0.001},
  };

  std::printf("  %-24s %9s %12s %9s %9s %7s %7s %7s %6s %5s\n", "faults",
              "creation", "transaction", "deletion", "total", "deliv",
              "drop", "corr", "rexmit", "drc");
  RunResult one_pct;
  for (const auto& pt : points) {
    std::string metrics;
    RunResult r = run_once(pt.loss, pt.corrupt, params, seed, flags, pt.name,
                           &metrics);
    if (pt.loss == 0.01 && pt.corrupt == 0) one_pct = r;
    std::printf(
        "  %-24s %8.1fs %11.1fs %8.1fs %8.1fs %7llu %7llu %7llu %6llu "
        "%5llu\n",
        pt.name, r.times["creation"], r.times["transaction"],
        r.times["deletion"], r.times.total(),
        static_cast<unsigned long long>(r.delivered),
        static_cast<unsigned long long>(r.dropped),
        static_cast<unsigned long long>(r.corrupted),
        static_cast<unsigned long long>(r.retransmits),
        static_cast<unsigned long long>(r.drc_hits));
    json.add_row(pt.name, r.times.total(), 0,
                 {{"delivered", static_cast<double>(r.delivered)},
                  {"dropped", static_cast<double>(r.dropped)},
                  {"corrupted", static_cast<double>(r.corrupted)},
                  {"retransmits", static_cast<double>(r.retransmits)},
                  {"drc_hits", static_cast<double>(r.drc_hits)},
                  {"reconnects", static_cast<double>(r.reconnects)}});
    if (pt.corrupt > 0) {
      std::printf("  %-24s session re-establishments: %llu\n", "",
                  static_cast<unsigned long long>(r.reconnects));
    }
    std::fputs(metrics.c_str(), stdout);
  }
  std::printf("\n");

  // Recovery: the 1%-loss run completed, and every mechanism engaged.
  Gate gate("fault_recovery");
  gate("1% loss dropped messages", static_cast<double>(one_pct.dropped),
       Op::kGt, 0);
  gate("1% loss retransmits", static_cast<double>(one_pct.retransmits),
       Op::kGt, 0);
  gate("1% loss DRC hits", static_cast<double>(one_pct.drc_hits), Op::kGt, 0);

  // Determinism: the 1%-loss point must replay bit-identically.
  RunResult replay = run_once(0.01, 0.0, params, seed, flags);
  gate("1% loss replay identical (same seed twice)",
       replay == one_pct ? 1 : 0, Op::kEq, 1);
  return gate.finish();
}

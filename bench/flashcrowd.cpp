// Flash crowd: hundreds of clients pulling one published read-only file,
// origin-only vs an untrusted replica fleet with end-to-end Merkle
// verification, under a Byzantine-fraction sweep (DESIGN.md §16).
//
// Scenarios:
//
//   origin      no replicas: every read funnels through the owner's secure
//               channel — the goodput floor and the scaling bottleneck;
//   clean       replica fleet, nobody lies: content-addressed fan-out;
//   byz25       >= 25% of the fleet serves corrupt blocks under honest
//               proofs (plus a stale-catalog gossiper);
//   allbyz      the whole fleet lies until clear_after, then comes clean:
//               blacklist -> degrade-to-origin -> half-open probe ->
//               re-admission, end to end.
//
// Gates (nonzero exit on failure):
//
//   - verified clients serve ZERO corrupt bytes in every scenario (an
//     oracle regenerates the published content and compares every read);
//   - clean replica goodput >= 2x origin-only at the top client count;
//   - byz25 goodput stays >= the origin-only floor, and Merkle
//     verification demonstrably fires (non-vacuous);
//   - allbyz demonstrates blacklists, degradation AND probes (non-vacuous);
//   - the byz25 scenario replays bit-identically (fingerprint).
#include <cinttypes>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "fleet/flashcrowd.hpp"

using namespace sgfs;
using namespace sgfs::bench;
using fleet::FlashcrowdOptions;
using fleet::FlashcrowdResult;

namespace {

void print_crowd_row(const std::string& name, const FlashcrowdResult& r,
                     JsonReport& json) {
  char note[256];
  std::snprintf(note, sizeof note,
                "%.1f MB/s; corrupt %" PRIu64 "; replica %" PRIu64
                "; origin %" PRIu64 "; vf %" PRIu64 "; bl %" PRIu64
                "; probe %" PRIu64 "; degraded %" PRIu64,
                r.goodput_bytes_per_s / (1 << 20), r.corrupt_bytes,
                r.replica_blocks, r.origin_reads, r.verify_failures,
                r.blacklists, r.probes, r.degraded);
  print_row(name, r.sim_seconds, 0, note);
  std::map<std::string, double> m;
  m["crowd.goodput_mb_s"] = r.goodput_bytes_per_s / (1 << 20);
  m["crowd.reads_ok"] = static_cast<double>(r.reads_ok);
  m["crowd.read_errors"] = static_cast<double>(r.read_errors);
  m["crowd.bytes_read"] = static_cast<double>(r.bytes_read);
  m["crowd.corrupt_bytes"] = static_cast<double>(r.corrupt_bytes);
  m["crowd.clients_done"] = static_cast<double>(r.clients_done);
  m["crowd.replica_blocks"] = static_cast<double>(r.replica_blocks);
  m["crowd.origin_reads"] = static_cast<double>(r.origin_reads);
  m["crowd.verify_failures"] = static_cast<double>(r.verify_failures);
  m["crowd.timeouts"] = static_cast<double>(r.timeouts);
  m["crowd.fetch_errors"] = static_cast<double>(r.fetch_errors);
  m["crowd.blacklists"] = static_cast<double>(r.blacklists);
  m["crowd.probes"] = static_cast<double>(r.probes);
  m["crowd.hedged"] = static_cast<double>(r.hedged);
  m["crowd.hedge_wins"] = static_cast<double>(r.hedge_wins);
  m["crowd.degraded"] = static_cast<double>(r.degraded);
  m["crowd.catalog_fetches"] = static_cast<double>(r.catalog_fetches);
  m["crowd.stale_catalogs"] = static_cast<double>(r.stale_catalogs);
  m["crowd.byzantine_armed"] = static_cast<double>(r.byzantine_armed);
  m["crowd.sim_errors"] = static_cast<double>(r.sim_errors);
  m["crowd.fingerprint"] = static_cast<double>(r.fingerprint() & 0xffffffff);
  json.attach_metrics(name, m);
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags = Flags::parse(
      argc, argv, {"quick", "clients", "replicas", "blocks", "seed"});
  JsonReport json(flags, "flashcrowd");

  const bool quick = flags.raw.count("quick") > 0;
  const int clients =
      static_cast<int>(flags.get_int("clients", quick ? 60 : 150));
  const int replicas = static_cast<int>(flags.get_int("replicas", 4));
  const uint64_t blocks =
      static_cast<uint64_t>(flags.get_int("blocks", quick ? 48 : 96));
  const uint64_t seed = static_cast<uint64_t>(flags.get_int("seed", 42));

  std::printf("flashcrowd: %d clients, %d replicas, %" PRIu64
              " x 32 KiB blocks, seed %" PRIu64 "\n\n",
              clients, replicas, blocks, seed);

  auto base = [&] {
    FlashcrowdOptions o;
    o.clients = clients;
    o.replicas = replicas;
    o.file_blocks = blocks;
    o.ramp_s = 0.5;  // flash crowds surge, they don't trickle
    o.seed = seed;
    return o;
  };

  Gate gate("flashcrowd");
  const uint64_t want_reads = static_cast<uint64_t>(clients) * blocks;
  auto common_gates = [&](const std::string& tag, const FlashcrowdResult& r) {
    gate(tag + " sim errors", static_cast<double>(r.sim_errors), Op::kEq, 0);
    gate(tag + " clients done", static_cast<double>(r.clients_done), Op::kEq,
         clients);
    gate(tag + " reads ok", static_cast<double>(r.reads_ok), Op::kEq,
         static_cast<double>(want_reads));
    gate(tag + " read errors", static_cast<double>(r.read_errors), Op::kEq, 0);
    // THE invariant: never one corrupt byte, no matter who serves.
    gate(tag + " corrupt bytes", static_cast<double>(r.corrupt_bytes),
         Op::kEq, 0);
  };

  // Origin-only: the funnel every client shares when nothing is replicated.
  FlashcrowdOptions oorigin = base();
  oorigin.use_replicas = false;
  const FlashcrowdResult origin = fleet::run_flashcrowd(oorigin);
  print_crowd_row("origin", origin, json);
  common_gates("origin", origin);

  // Clean fleet: content-addressed reads spread over the replicas.
  FlashcrowdOptions oclean = base();
  const FlashcrowdResult clean = fleet::run_flashcrowd(oclean);
  print_crowd_row("clean", clean, json);
  common_gates("clean", clean);
  gate("clean replica blocks served", static_cast<double>(clean.replica_blocks),
       Op::kGt, 0);
  gate("clean goodput >= 2x origin",
       origin.goodput_bytes_per_s > 0
           ? clean.goodput_bytes_per_s / origin.goodput_bytes_per_s
           : 0,
       Op::kGe, 2.0);

  // Byzantine quarter: corrupt blocks under honest proofs plus a
  // stale-catalog gossiper.  Short refresh makes mid-run gossip certain.
  FlashcrowdOptions obyz = base();
  obyz.faults.fraction = 0.25 + 1e-9;
  obyz.faults.corrupt = true;
  obyz.faults.stale = true;
  obyz.catalog_refresh = 500 * sim::kMillisecond;
  const FlashcrowdResult byz = fleet::run_flashcrowd(obyz);
  print_crowd_row("byz25", byz, json);
  common_gates("byz25", byz);
  gate("byz25 replicas armed", static_cast<double>(byz.byzantine_armed),
       Op::kGe, 1);
  gate("byz25 verify failures (non-vacuous)",
       static_cast<double>(byz.verify_failures), Op::kGt, 0);
  gate("byz25 blacklists", static_cast<double>(byz.blacklists), Op::kGt, 0);
  gate("byz25 goodput >= origin floor",
       origin.goodput_bytes_per_s > 0
           ? byz.goodput_bytes_per_s / origin.goodput_bytes_per_s
           : 0,
       Op::kGe, 0.98);

  // Whole fleet Byzantine until clear_after: clients must degrade to the
  // origin (correct, slower), then probe the recovered fleet back in.
  FlashcrowdOptions oall = base();
  oall.faults.fraction = 1.0;
  oall.faults.corrupt = true;
  // Keep the fleet dirty until the crowd is demonstrably mid-read.  The
  // origin's handshake funnel serializes the whole crowd (~30 ms each), so
  // first reads land around clients x 30 ms; overshoot well past that.  A
  // late clear is harmless — degraded clients crawl through the congested
  // origin for seconds — but an early clear means nobody ever meets the
  // corrupt fleet and every robustness counter stays vacuously zero.
  oall.faults.clear_after =
      1 * sim::kSecond +
      static_cast<sim::SimDur>(clients) * 50 * sim::kMillisecond;
  oall.blacklist_duration = 500 * sim::kMillisecond;
  const FlashcrowdResult allbyz = fleet::run_flashcrowd(oall);
  print_crowd_row("allbyz", allbyz, json);
  common_gates("allbyz", allbyz);
  gate("allbyz blacklists", static_cast<double>(allbyz.blacklists), Op::kGt,
       0);
  gate("allbyz degraded to origin", static_cast<double>(allbyz.degraded),
       Op::kGt, 0);
  gate("allbyz probes (half-open re-admission)",
       static_cast<double>(allbyz.probes), Op::kGt, 0);
  gate("allbyz replica blocks after recovery",
       static_cast<double>(allbyz.replica_blocks), Op::kGt, 0);

  // Determinism: the Byzantine headline scenario replays bit-identically.
  {
    const FlashcrowdResult replay = fleet::run_flashcrowd(obyz);
    const bool identical = replay.fingerprint() == byz.fingerprint();
    gate("byz25 replay fingerprint identical", identical ? 1 : 0, Op::kEq,
         1);
  }

  return gate.finish();
}

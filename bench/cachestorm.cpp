// Cache storm: the client proxy's encrypted-at-rest disk cache under a
// hostile scratch disk, tampered *while the workload is running* (DESIGN.md
// §15).  Sweeps tamper rate x cache mode:
//
//   robust    sealed cache (cache_encryption on): verify-on-read, poisoned
//             blobs evicted and re-fetched, sustained bursts degrade to
//             cache-bypass with a half-open probe;
//   naive     the paper's plaintext disk cache under the same injector —
//             the negative control that serves whatever the disk holds;
//   readthru  no proxy data cache at all: every read pays the WAN — the
//             goodput floor graceful degradation must never sink below.
//
// Gates (nonzero exit on failure):
//
//   - robust serves zero corrupt bytes at every tamper rate;
//   - tampering actually trips verification in robust mode (non-vacuous);
//   - naive at the highest rate serves corrupt bytes (the control bites);
//   - robust goodput stays >= the read-through floor (2% measurement slack)
//     at every rate — detect-and-refetch must beat switching the cache off;
//   - the headline robust run replays bit-identically (fingerprint).
#include <cinttypes>
#include <string>
#include <vector>

#include "baselines/testbed.hpp"
#include "bench_util.hpp"
#include "nfs/nfs3_client.hpp"

using namespace sgfs;
using namespace sgfs::bench;
using baselines::SetupKind;
using baselines::Testbed;
using baselines::TestbedOptions;

namespace {

constexpr uint64_t kBlock = 32 * 1024;

enum class Mode { kRobust, kNaive, kReadthru };

uint64_t fnv1a(ByteView bytes, uint64_t h = 1469598103934665603ull) {
  for (uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

// The exact bytes Testbed::preload_file generated (same chunked Rng fill).
Buffer preload_oracle(uint64_t size, uint64_t content_seed) {
  Buffer out(size);
  Rng content(content_seed);
  constexpr size_t kFill = 1 << 20;
  Buffer chunk(kFill);
  for (uint64_t off = 0; off < size;) {
    const size_t n =
        static_cast<size_t>(std::min<uint64_t>(kFill, size - off));
    content.fill(MutByteView(chunk.data(), n));
    std::copy(chunk.begin(), chunk.begin() + n, out.begin() + off);
    off += n;
  }
  return out;
}

struct StormResult {
  double sim_s = 0;
  uint64_t bytes_read = 0;
  uint64_t corrupt_bytes = 0;
  uint64_t injected = 0;
  uint64_t verify_failures = 0;
  uint64_t poison_evictions = 0;
  uint64_t refetches = 0;
  uint64_t bypass_entries = 0;
  uint64_t probes = 0;
  uint64_t sealed_blocks = 0;
  uint64_t absorbed_reads = 0;
  uint64_t sim_errors = 0;
  bool accounting_ok = true;
  uint64_t fingerprint = 0;

  double goodput_mb_s() const {
    return sim_s > 0 ? static_cast<double>(bytes_read) / (1 << 20) / sim_s
                     : 0;
  }
};

// Tamper-under-load storm: one sequential fill pass, then `passes` rounds
// of hot-set reads (3/4 of ops hit the hottest quarter of the file — the
// locality that makes a cache worth having) while the injector tampers the
// at-rest blobs underneath.  Every served block is compared byte-for-byte
// against the preload generator; the same seeded op sequence drives every
// mode, and a tiny kernel-client cache keeps the proxy on the hot path.
StormResult run_storm(Mode mode, double tamper_rate, int passes,
                      uint64_t file_bytes, uint64_t seed) {
  TestbedOptions opt;
  opt.kind = SetupKind::kSgfs;
  opt.cipher = crypto::Cipher::kNull;  // wall-clock economy; MAC stays on
  opt.proxy_disk_cache = mode != Mode::kReadthru;
  opt.proxy_write_back = mode != Mode::kReadthru;
  opt.cache_encryption = mode == Mode::kRobust;
  opt.wan_rtt = 10 * sim::kMillisecond;
  opt.client_mem_bytes = 4 * kBlock;
  // Storm-scaled breaker: the default 5 s bypass window is longer than the
  // whole sweep, which would turn "degrade, then recover" into "degrade
  // forever" and hide the half-open probe from the goodput gate.
  opt.cache_bypass = 400 * sim::kMillisecond;
  opt.seed = seed;
  opt.cache_tamper.rate_per_s = tamper_rate;
  opt.cache_tamper.seed = seed ^ 0x5707ull;
  Testbed tb(opt);
  tb.preload_file("storm.bin", file_bytes, /*warm=*/true,
                  /*content_seed=*/seed + 7);
  const Buffer oracle = preload_oracle(file_bytes, seed + 7);

  StormResult r;
  tb.engine().run_task([](Testbed& tb, const Buffer& oracle, int passes,
                          uint64_t file_bytes,
                          StormResult* r) -> sim::Task<void> {
    auto mp = co_await tb.mount();
    int fd = co_await mp->open("storm.bin", nfs::kRdOnly);
    const sim::SimTime t0 = tb.engine().now();
    const uint64_t blocks = file_bytes / kBlock;
    const uint64_t hot = std::max<uint64_t>(blocks / 4, 1);
    Rng access(42 ^ 0xacce55ull);  // same op sequence in every mode
    Buffer tmp(kBlock);
    auto read_block = [&](uint64_t block) -> sim::Task<void> {
      const uint64_t off = block * kBlock;
      tmp.resize(kBlock);
      uint64_t done = 0;
      while (done < kBlock) {
        const size_t got = co_await mp->pread(
            fd, off + done,
            MutByteView(tmp.data() + done,
                        static_cast<size_t>(kBlock - done)));
        if (got == 0) break;
        done += got;
      }
      r->bytes_read += done;
      for (uint64_t i = 0; i < done; ++i) {
        if (tmp[i] != oracle[off + i]) ++r->corrupt_bytes;
      }
      r->fingerprint = fnv1a(ByteView(tmp.data(), done), r->fingerprint);
    };
    for (uint64_t b = 0; b < blocks; ++b) co_await read_block(b);  // fill
    for (uint64_t op = 0; op < blocks * static_cast<uint64_t>(passes);
         ++op) {
      const uint64_t block = access.next_below(4) < 3
                                 ? access.next_below(hot)
                                 : access.next_below(blocks);
      co_await read_block(block);
    }
    r->sim_s = sim::to_seconds(tb.engine().now() - t0);
    co_await mp->close(fd);
    co_await tb.flush_session();
  }(tb, oracle, passes, file_bytes, &r));

  auto& m = tb.engine().metrics();
  r.injected = tb.cache_injector() ? tb.cache_injector()->injected() : 0;
  r.verify_failures = m.counter_value("sgfs.cache.verify_failures");
  r.poison_evictions = m.counter_value("sgfs.cache.poison_evictions");
  r.refetches = m.counter_value("sgfs.cache.refetches");
  r.bypass_entries = m.counter_value("sgfs.cache.bypass_entries");
  r.probes = m.counter_value("sgfs.cache.probes");
  r.sealed_blocks = m.counter_value("sgfs.cache.sealed_blocks");
  if (tb.client_proxy() != nullptr) {
    r.absorbed_reads = tb.client_proxy()->absorbed_reads();
    r.accounting_ok = tb.client_proxy()->cache_accounting_consistent();
  }
  r.sim_errors = tb.engine().errors().size();
  r.fingerprint = fnv1a(
      ByteView(reinterpret_cast<const uint8_t*>(&r.verify_failures),
               sizeof r.verify_failures),
      r.fingerprint);
  return r;
}

void print_storm_row(const std::string& name, const StormResult& r,
                     JsonReport& json) {
  char note[256];
  std::snprintf(note, sizeof note,
                "%.1f MB/s; corrupt %" PRIu64 "; injected %" PRIu64
                "; vf %" PRIu64 "; evict %" PRIu64 "; bypass %" PRIu64
                "; absorbed %" PRIu64,
                r.goodput_mb_s(), r.corrupt_bytes, r.injected,
                r.verify_failures, r.poison_evictions, r.bypass_entries,
                r.absorbed_reads);
  print_row(name, r.sim_s, 0, note);
  std::map<std::string, double> m;
  m["storm.goodput_mb_s"] = r.goodput_mb_s();
  m["storm.bytes_read"] = static_cast<double>(r.bytes_read);
  m["storm.corrupt_bytes"] = static_cast<double>(r.corrupt_bytes);
  m["storm.injected"] = static_cast<double>(r.injected);
  m["storm.verify_failures"] = static_cast<double>(r.verify_failures);
  m["storm.poison_evictions"] = static_cast<double>(r.poison_evictions);
  m["storm.refetches"] = static_cast<double>(r.refetches);
  m["storm.bypass_entries"] = static_cast<double>(r.bypass_entries);
  m["storm.probes"] = static_cast<double>(r.probes);
  m["storm.sealed_blocks"] = static_cast<double>(r.sealed_blocks);
  m["storm.absorbed_reads"] = static_cast<double>(r.absorbed_reads);
  m["storm.sim_errors"] = static_cast<double>(r.sim_errors);
  m["storm.accounting_ok"] = r.accounting_ok ? 1 : 0;
  json.attach_metrics(name, m);
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags = Flags::parse(argc, argv, {"quick", "passes", "mb", "seed"});
  JsonReport json(flags, "cachestorm");

  const bool quick = flags.raw.count("quick") > 0;
  const int passes = static_cast<int>(flags.get_int("passes", quick ? 3 : 5));
  const uint64_t file_bytes =
      static_cast<uint64_t>(flags.get_int("mb", quick ? 1 : 4)) << 20;
  const uint64_t seed = static_cast<uint64_t>(flags.get_int("seed", 42));
  std::vector<double> rates = {0, 50, 200};
  if (!quick) rates.push_back(1000);

  std::printf("cachestorm: %" PRIu64 " KiB file, 1 fill + %d re-read passes, "
              "tamper rates {",
              file_bytes >> 10, passes);
  for (size_t i = 0; i < rates.size(); ++i) {
    std::printf("%s%.0f", i ? ", " : "", rates[i]);
  }
  std::printf("}/s\n\n");

  Gate gate("cachestorm");

  // The floor: no proxy data cache, every read pays the WAN.  Tampering is
  // irrelevant to it (there are no at-rest blobs), so one run suffices.
  const StormResult floor =
      run_storm(Mode::kReadthru, 0, passes, file_bytes, seed);
  print_storm_row("readthru", floor, json);
  gate("readthru sim errors", static_cast<double>(floor.sim_errors), Op::kEq,
       0);

  StormResult robust_hot;  // highest-rate robust run, for the replay gate
  for (double rate : rates) {
    const std::string tag = std::to_string(static_cast<int>(rate));
    const StormResult robust =
        run_storm(Mode::kRobust, rate, passes, file_bytes, seed);
    print_storm_row("robust@" + tag, robust, json);
    gate("robust@" + tag + " sim errors",
         static_cast<double>(robust.sim_errors), Op::kEq, 0);
    gate("robust@" + tag + " corrupt bytes",
         static_cast<double>(robust.corrupt_bytes), Op::kEq, 0);
    gate("robust@" + tag + " accounting", robust.accounting_ok ? 1 : 0,
         Op::kEq, 1);
    // Graceful degradation: detect-and-refetch (and, under sustained fire,
    // cache-bypass) must never sink below simply having no cache.
    gate("robust@" + tag + " goodput vs floor (MB/s)", robust.goodput_mb_s(),
         Op::kGe, 0.98 * floor.goodput_mb_s());
    if (rate == 0) {
      gate("robust@0 verify failures",
           static_cast<double>(robust.verify_failures), Op::kEq, 0);
      gate("robust@0 caching beats the floor (MB/s)", robust.goodput_mb_s(),
           Op::kGt, floor.goodput_mb_s());
    } else {
      gate("robust@" + tag + " injected tampers",
           static_cast<double>(robust.injected), Op::kGt, 0);
      gate("robust@" + tag + " verify failures (non-vacuous)",
           static_cast<double>(robust.verify_failures), Op::kGt, 0);
    }
    if (rate == rates.back()) robust_hot = robust;
  }

  // The paper-faithful negative control: the plaintext cache under the
  // hottest injector MUST serve poisoned bytes, or the robust gates above
  // prove nothing.
  const StormResult naive =
      run_storm(Mode::kNaive, rates.back(), passes, file_bytes, seed);
  print_storm_row("naive@" + std::to_string(static_cast<int>(rates.back())),
                  naive, json);
  gate("naive sim errors", static_cast<double>(naive.sim_errors), Op::kEq, 0);
  gate("naive verify failures (nothing to verify)",
       static_cast<double>(naive.verify_failures), Op::kEq, 0);
  gate("naive corrupt bytes (control must bite)",
       static_cast<double>(naive.corrupt_bytes), Op::kGt, 0);

  // Determinism: the hottest robust run replays bit-identically.
  {
    const StormResult replay =
        run_storm(Mode::kRobust, rates.back(), passes, file_bytes, seed);
    const bool identical = replay.fingerprint == robust_hot.fingerprint &&
                           replay.verify_failures ==
                               robust_hot.verify_failures;
    gate("robust replay fingerprint identical", identical ? 1 : 0, Op::kEq,
         1);
  }

  return gate.finish();
}

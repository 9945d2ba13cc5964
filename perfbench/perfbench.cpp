// SGFS benchmark driver: runs one named workload against the public APIs
// (baselines::Testbed + nfs::MountPoint, fleet::run_fleet,
// fleet::run_connstorm), repeating it with one seed until the wall budget is
// spent, and prints one JSON record per repetition on stdout.  run.py turns
// the records into the benchmark's metrics; this file only measures.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans PATH]
//
// Every layer is measured from outside: wall clocks around the driver's own
// calls, and counters the program already exposes (engine metrics registry,
// Engine::events_processed(), Host CPU/disk busy totals, buf_stats(), the
// FleetResult/ConnstormResult fields).  Each record splits into
//   "wall": host seconds (noisy by nature), and
//   "det":  simulated results and per-layer counts, which must repeat
//           exactly for a seed; run.py fails the run when they do not.
// With --trace 1 the repetitions alternate untraced/traced; traced ones
// enable the engine's RPC tracer where a Testbed exposes it and record the
// driver's own spans (written to --spans at exit).  A final "calibration"
// record times the crypto and engine public functions, giving the unit
// costs behind run.py's per-layer wall estimates.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <queue>
#include <stdexcept>
#include <string>
#include <vector>

#include "baselines/testbed.hpp"
#include "common/bufchain.hpp"
#include "crypto/aes.hpp"
#include "crypto/hmac.hpp"
#include "crypto/rsa.hpp"
#include "fleet/connstorm.hpp"
#include "fleet/fleet.hpp"
#include "sim/engine.hpp"

namespace {

using namespace sgfs;
using baselines::SetupKind;
using baselines::Testbed;
using baselines::TestbedOptions;
using Clock = std::chrono::steady_clock;

const Clock::time_point kProcessStart = Clock::now();

double wall_now() {
  return std::chrono::duration<double>(Clock::now() - kProcessStart).count();
}

// --- workload sizes ----------------------------------------------------------
// bulk-aes-lan: the file is twice the client page cache, so the reread
// misses as in the paper's IOzone setup (Fig. 4), at 1/32 of its size.
constexpr uint64_t kBulkCacheBytes = 8ull << 20;
constexpr uint64_t kBulkFileBytes = 2 * kBulkCacheBytes;
constexpr uint64_t kBulkWriteBytes = 8ull << 20;
constexpr size_t kRecordBytes = 32 * 1024;
// smallfile-wan-cache: PostMark shape (Fig. 8) over a 40 ms RTT WAN.
constexpr int kPmDirs = 20;
constexpr int kPmFiles = 500;
constexpr int kPmTransactions = 2500;
constexpr size_t kPmMinSize = 512;
constexpr size_t kPmMaxSize = 16 * 1024;
// fleet-small-ops and reconnect-storm: the run_fleet / run_connstorm
// harnesses.  The fleet is sized for many short repetitions (the engine
// does the same per-event work at 500 sessions as at 1000) while its window
// still holds >= 10,000 ops, enough for a p999; the storm keeps the bench's
// 128 clients, whose full-handshake herd is its point.
constexpr int kFleetSessions = 500;
constexpr double kFleetWindowS = 5.0;
constexpr int kStormClients = 128;

// --- JSON output ---------------------------------------------------------------

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char esc[8];
      std::snprintf(esc, sizeof esc, "\\u%04x", ch);
      out += esc;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string object(const std::map<std::string, double>& m) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    if (out.size() > 1) out += ", ";
    out += quoted(k) + ": " + num(v);
  }
  return out + "}";
}

// --- spans -------------------------------------------------------------------

/// The driver's own spans: one around each call into a layer's public
/// function.  Kept in memory, written out at exit.  Off = one branch.
class Spans {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    double wall_start = 0, wall_end = 0;
    sim::SimTime sim_start = 0, sim_end = 0;
  };

  bool on = false;

  int open(const char* name, sim::SimTime sim_now) {
    if (!on) return -1;
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.sim_start = sim_now;
    s.wall_start = wall_now();
    spans_.push_back(std::move(s));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void close(int id, sim::SimTime sim_now) {
    if (id < 0) return;
    spans_[id].wall_end = wall_now();
    spans_[id].sim_end = sim_now;
    stack_.pop_back();
  }

  size_t size() const { return spans_.size(); }

  bool write(const std::string& path) const {
    std::ofstream os(path);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << "{\"id\": " << i << ", \"parent\": " << s.parent
         << ", \"name\": " << quoted(s.name)
         << ", \"wall_start\": " << num(s.wall_start)
         << ", \"wall_end\": " << num(s.wall_end)
         << ", \"sim_start_ns\": " << s.sim_start
         << ", \"sim_end_ns\": " << s.sim_end << "}\n";
    }
    return static_cast<bool>(os);
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

Spans g_spans;

/// Opens a span on construction, closes it on scope exit.
class SpanScope {
 public:
  SpanScope(const char* name, const sim::Engine* eng = nullptr)
      : eng_(eng), id_(g_spans.open(name, eng ? eng->now() : 0)) {}
  ~SpanScope() { g_spans.close(id_, eng_ ? eng_->now() : 0); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  const sim::Engine* eng_;
  int id_;
};

// --- one repetition ------------------------------------------------------------

struct Record {
  std::map<std::string, double> wall;  // host seconds
  std::map<std::string, double> det;   // must repeat exactly for a seed
  std::vector<uint64_t> lat_ns;        // simulated latency of each ok op
  std::string error;                   // empty when every check passed
};

void check(Record& rec, bool ok, const std::string& what) {
  if (!ok && rec.error.empty()) rec.error = what;
}

/// Per-op bookkeeping for the MountPoint workloads: each op's simulated
/// latency plus a span around it in traced repetitions.
struct OpLog {
  sim::Engine& eng;
  Record& rec;
  uint64_t attempted = 0;

  template <typename T>
  sim::Task<T> run(const char* name, sim::Task<T> op) {
    ++attempted;
    const sim::SimTime t0 = eng.now();
    SpanScope span(name, &eng);
    T v = co_await std::move(op);
    rec.lat_ns.push_back(static_cast<uint64_t>(eng.now() - t0));
    co_return v;
  }

  sim::Task<void> run(const char* name, sim::Task<void> op) {
    ++attempted;
    const sim::SimTime t0 = eng.now();
    SpanScope span(name, &eng);
    co_await std::move(op);
    rec.lat_ns.push_back(static_cast<uint64_t>(eng.now() - t0));
  }
};

/// Counter, histogram and resource readings of one Testbed, differenced
/// over the measured phase.
struct Readings {
  obs::MetricsRegistry::Snapshot snap;
  BufStats buf;
  uint64_t events = 0, actors = 0;
  std::map<std::string, sim::SimDur> busy;

  static Readings take(Testbed& tb) {
    Readings r;
    r.snap = tb.engine().metrics().snapshot();
    r.buf = buf_stats();
    r.events = tb.engine().events_processed();
    r.actors = tb.engine().actors_spawned();
    for (net::Host* h : {&tb.client_host(), &tb.server_host()}) {
      r.busy[h->name() + ".cpu"] = h->cpu().busy_total();
      r.busy[h->name() + ".disk"] = h->disk().resource().busy_total();
    }
    return r;
  }
};

/// Quantile of the observations a histogram gained between two snapshots,
/// with the registry's own bucket-upper-edge convention.
int64_t delta_quantile(const obs::Histogram& after,
                       const obs::Histogram* before, double q) {
  const uint64_t total = after.count() - (before ? before->count() : 0);
  if (total == 0) return 0;
  const auto target = static_cast<uint64_t>(q * static_cast<double>(total) +
                                            0.5);
  uint64_t cum = 0;
  for (size_t i = 0; i < obs::Histogram::kBuckets; ++i) {
    cum += after.bucket_count(i) - (before ? before->bucket_count(i) : 0);
    if (cum >= target && cum > 0) {
      return i + 1 < obs::Histogram::kBuckets
                 ? obs::Histogram::bucket_lower_bound(i + 1) - 1
                 : after.max();
    }
  }
  return after.max();
}

void add_deltas(Record& rec, const Readings& a, const Readings& b) {
  for (const auto& [name, v] : b.snap.counters) {
    auto it = a.snap.counters.find(name);
    rec.det[name] = static_cast<double>(
        v - (it == a.snap.counters.end() ? 0 : it->second));
  }
  for (const auto& [name, h] : b.snap.histograms) {
    auto it = a.snap.histograms.find(name);
    const obs::Histogram* before =
        it == a.snap.histograms.end() ? nullptr : &it->second;
    rec.det[name + ".sum"] =
        static_cast<double>(h.sum() - (before ? before->sum() : 0));
    rec.det[name + ".count"] =
        static_cast<double>(h.count() - (before ? before->count() : 0));
    rec.det[name + ".p99"] = static_cast<double>(delta_quantile(h, before,
                                                                0.99));
  }
  rec.det["buf.bytes_copied"] =
      static_cast<double>(b.buf.bytes_copied - a.buf.bytes_copied);
  rec.det["buf.bytes_zerocopy"] =
      static_cast<double>(b.buf.bytes_zerocopy - a.buf.bytes_zerocopy);
  rec.det["buf.segments_allocated"] = static_cast<double>(
      b.buf.segments_allocated - a.buf.segments_allocated);
  rec.det["sim.events"] = static_cast<double>(b.events - a.events);
  rec.det["sim.actors_spawned"] = static_cast<double>(b.actors - a.actors);
  for (const auto& [name, busy] : b.busy) {
    rec.det["host." + name + ".busy_ns"] =
        static_cast<double>(busy - a.busy.at(name));
  }
}

TestbedOptions sgfs_aes(uint64_t seed) {
  TestbedOptions o;
  o.kind = SetupKind::kSgfs;
  o.cipher = crypto::Cipher::kAes256Cbc;
  o.mac = crypto::MacAlgo::kHmacSha1;
  o.seed = seed;
  return o;
}

/// Builds the testbed, times the set-up pieces, runs `body` as the measured
/// phase and differences the readings around it.  `harness_wall` is host time
/// the body spent on the driver's own work (making inputs, checking bytes);
/// it is taken out of the measured wall.
template <typename Prepare, typename Body>
Record run_testbed(TestbedOptions opts, bool traced, Prepare&& prepare,
                   Body&& body) {
  Record rec;
  const size_t spans0 = g_spans.size();
  SpanScope iter_span(traced ? "iteration.traced" : "iteration");
  Clock::time_point t0 = Clock::now();
  std::unique_ptr<Testbed> tb;
  {
    SpanScope s("Testbed");
    tb = std::make_unique<Testbed>(opts);
  }
  Clock::time_point t1 = Clock::now();
  prepare(*tb);  // preload_file calls, each in its own span
  Clock::time_point t2 = Clock::now();
  rec.wall["setup.testbed_s"] = std::chrono::duration<double>(t1 - t0).count();
  rec.wall["setup.preload_s"] = std::chrono::duration<double>(t2 - t1).count();

  tb->engine().tracer().set_enabled(traced);
  std::shared_ptr<nfs::MountPoint> mp;
  t0 = Clock::now();
  {
    SpanScope s("mount", &tb->engine());
    tb->engine().run_task([](Testbed& tb,
                             std::shared_ptr<nfs::MountPoint>* out)
                              -> sim::Task<void> {
      *out = co_await tb.mount();
    }(*tb, &mp));
  }
  rec.wall["setup.mount_s"] =
      std::chrono::duration<double>(Clock::now() - t0).count();

  const Readings before = Readings::take(*tb);
  double harness_wall = 0;
  t0 = Clock::now();
  {
    SpanScope s("measured", &tb->engine());
    body(*tb, mp, rec, harness_wall);
  }
  rec.wall["wall_s"] =
      std::chrono::duration<double>(Clock::now() - t0).count() - harness_wall;
  const Readings after = Readings::take(*tb);
  add_deltas(rec, before, after);
  // The driver's spans plus the RPC spans the engine's tracer recorded.
  rec.det["trace.spans"] = static_cast<double>(
      g_spans.size() - spans0 + tb->engine().tracer().spans().size());
  rec.det["sim.errors"] = static_cast<double>(tb->engine().errors().size());
  check(rec, tb->engine().errors().empty(),
        tb->engine().errors().empty() ? "" : tb->engine().errors()[0]);
  return rec;
}

const vfs::Cred kGrid(Testbed::kGridUid, Testbed::kGridUid);

std::string data_path(const std::string& rel) {
  return std::string(Testbed::kDataPath) + "/" + rel;
}

// --- bulk-aes-lan ----------------------------------------------------------------

Record bulk_aes_lan(uint64_t seed, bool traced) {
  TestbedOptions opts = sgfs_aes(seed);
  opts.proxy_disk_cache = false;
  opts.client_mem_bytes = kBulkCacheBytes;
  Buffer expected;
  Buffer to_write;
  auto prepare = [&](Testbed& tb) {
    SpanScope s("preload_file", &tb.engine());
    tb.preload_file("bulk.dat", kBulkFileBytes, /*warm=*/true, seed);
  };
  auto body = [&](Testbed& tb, std::shared_ptr<nfs::MountPoint> mp,
                  Record& rec, double& harness_wall) {
    // Inputs and the reference copy are the driver's work, not timed.
    const auto v0 = Clock::now();
    expected = tb.server_fs().read_file(kGrid, data_path("bulk.dat")).value;
    Rng content(seed ^ 0xb01cu);
    to_write = content.bytes(kBulkWriteBytes);
    harness_wall += std::chrono::duration<double>(Clock::now() - v0).count();

    OpLog log{tb.engine(), rec};
    sim::SimDur read_sim = 0, write_sim = 0;
    double flush_sim = 0;
    uint64_t mismatches = 0;
    tb.engine().run_task([](Testbed& tb, nfs::MountPoint& mp, OpLog& log,
                            const Buffer& expected, const Buffer& to_write,
                            sim::SimDur& read_sim, sim::SimDur& write_sim,
                            double& flush_sim, uint64_t& mismatches,
                            double& harness_wall) -> sim::Task<void> {
      Buffer record(kRecordBytes);
      sim::SimTime start = tb.engine().now();
      for (int pass = 0; pass < 2; ++pass) {
        SpanScope phase(pass == 0 ? "read" : "reread", &tb.engine());
        int fd = co_await log.run("open", mp.open("bulk.dat", nfs::kRdOnly));
        uint64_t off = 0;
        for (;;) {
          MutByteView view(record.data(), record.size());
          const size_t n = co_await log.run("read", mp.read(fd, view));
          if (n == 0) break;
          const auto v0 = Clock::now();
          if (off + n > expected.size() ||
              std::memcmp(record.data(), expected.data() + off, n) != 0) {
            ++mismatches;
          }
          harness_wall +=
              std::chrono::duration<double>(Clock::now() - v0).count();
          off += n;
        }
        if (off != expected.size()) ++mismatches;
        co_await log.run("close", mp.close(fd));
      }
      read_sim = tb.engine().now() - start;

      start = tb.engine().now();
      {
        SpanScope phase("write", &tb.engine());
        int fd = co_await log.run(
            "open", mp.open("bulk.out", nfs::kWrOnly | nfs::kCreate |
                                            nfs::kTrunc));
        for (uint64_t off = 0; off < to_write.size(); off += kRecordBytes) {
          ByteView chunk(to_write.data() + off, kRecordBytes);
          co_await log.run("write", mp.write(fd, chunk));
        }
        co_await log.run("fsync", mp.fsync(fd));
        co_await log.run("close", mp.close(fd));
      }
      {
        SpanScope s("flush_session", &tb.engine());
        flush_sim = co_await tb.flush_session();
      }
      write_sim = tb.engine().now() - start;
    }(tb, *mp, log, expected, to_write, read_sim, write_sim, flush_sim,
                             mismatches, harness_wall));

    rec.det["ops.attempted"] = static_cast<double>(log.attempted);
    rec.det["ops.failed"] = 0;
    rec.det["app.read_bytes"] = static_cast<double>(2 * kBulkFileBytes);
    rec.det["app.write_bytes"] = static_cast<double>(kBulkWriteBytes);
    rec.det["sim.read_s"] = sim::to_seconds(read_sim);
    rec.det["sim.write_s"] = sim::to_seconds(write_sim);
    rec.det["sim.window_s"] = sim::to_seconds(read_sim + write_sim);
    rec.det["sgfs.flush_s"] = flush_sim;
    check(rec, mismatches == 0, "bulk read returned bytes that differ from "
                                "the server copy");
    auto back = tb.server_fs().read_file(kGrid, data_path("bulk.out"));
    check(rec, back.ok() && back.value == to_write,
          "bulk write-back differs from the bytes written");
  };
  return run_testbed(opts, traced, prepare, body);
}

// --- smallfile-wan-cache -------------------------------------------------------

std::string pm_dir(int d) { return "pm" + std::to_string(d); }
std::string pm_file(int d, int f) {
  return pm_dir(d) + "/f" + std::to_string(f);
}

struct SmallfileState {
  std::map<std::string, Buffer> model;  // path -> bytes the app wrote
  std::vector<std::string> deleted;
  uint64_t read_bytes = 0, write_bytes = 0, mismatches = 0;
  sim::SimDur read_sim = 0, write_sim = 0;
  double flush_sim = 0;
};

sim::Task<void> pm_write(nfs::MountPoint& mp, OpLog& log, SmallfileState& st,
                         const std::string& path, Buffer data, bool append) {
  const sim::SimTime t0 = log.eng.now();
  const uint32_t flags =
      nfs::kWrOnly | nfs::kCreate | (append ? nfs::kAppend : nfs::kTrunc);
  int fd = co_await log.run("open", mp.open(path, flags));
  ByteView view(data.data(), data.size());
  co_await log.run("write", mp.write(fd, view));
  co_await log.run("close", mp.close(fd));
  Buffer& m = st.model[path];
  if (!append) m.clear();
  m.insert(m.end(), data.begin(), data.end());
  st.write_bytes += data.size();
  st.write_sim += log.eng.now() - t0;
}

sim::Task<void> pm_read(nfs::MountPoint& mp, OpLog& log, SmallfileState& st,
                        const std::string& path) {
  const sim::SimTime t0 = log.eng.now();
  int fd = co_await log.run("open", mp.open(path, nfs::kRdOnly));
  Buffer buf(64 * 1024);
  Buffer got;
  for (;;) {
    MutByteView view(buf.data(), buf.size());
    const size_t n = co_await log.run("read", mp.read(fd, view));
    if (n == 0) break;
    got.insert(got.end(), buf.begin(), buf.begin() + n);
  }
  co_await log.run("close", mp.close(fd));
  if (got != st.model[path]) ++st.mismatches;
  st.read_bytes += got.size();
  st.read_sim += log.eng.now() - t0;
}

/// PostMark's shape: a directory pool, an initial file set, then
/// transactions that are equally likely create/delete or read/append.  The
/// final deletion phase is left out so the flushed result can be checked
/// file by file on the server.
sim::Task<void> postmark(Testbed& tb, nfs::MountPoint& mp, OpLog& log,
                         SmallfileState& st, uint64_t seed) {
  Rng rng(seed ^ 0x9057a4c);
  auto rand_size = [&] {
    return kPmMinSize + rng.next_below(kPmMaxSize - kPmMinSize + 1);
  };
  for (int d = 0; d < kPmDirs; ++d) {
    co_await log.run("mkdir", mp.mkdir(pm_dir(d)));
  }
  std::vector<std::pair<int, int>> live;
  for (int f = 0; f < kPmFiles; ++f) {
    const int d = static_cast<int>(rng.next_below(kPmDirs));
    co_await pm_write(mp, log, st, pm_file(d, f), rng.bytes(rand_size()),
                      false);
    live.emplace_back(d, f);
  }
  int next_file = kPmFiles;
  for (int t = 0; t < kPmTransactions; ++t) {
    const bool structural = rng.next_below(2) == 0;
    if (structural) {
      if (rng.next_below(2) == 0 || live.empty()) {
        const int d = static_cast<int>(rng.next_below(kPmDirs));
        const int f = next_file++;
        co_await pm_write(mp, log, st, pm_file(d, f), rng.bytes(rand_size()),
                          false);
        live.emplace_back(d, f);
      } else {
        const size_t idx = rng.next_below(live.size());
        const auto [d, f] = live[idx];
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
        const std::string path = pm_file(d, f);
        co_await log.run("unlink", mp.unlink(path));
        st.model.erase(path);
        st.deleted.push_back(path);
      }
    } else if (!live.empty()) {
      const auto [d, f] = live[rng.next_below(live.size())];
      if (rng.next_below(2) == 0) {
        co_await pm_read(mp, log, st, pm_file(d, f));
      } else {
        co_await pm_write(mp, log, st, pm_file(d, f), rng.bytes(rand_size()),
                          true);
      }
    }
  }
  const sim::SimTime t0 = tb.engine().now();
  {
    SpanScope s("flush_session", &tb.engine());
    st.flush_sim = co_await tb.flush_session();
  }
  st.write_sim += tb.engine().now() - t0;
}

Record smallfile_wan_cache(uint64_t seed, bool traced) {
  TestbedOptions opts = sgfs_aes(seed);
  // Write-through: in write-back mode a file read more than the kernel
  // attribute timeout after it was written comes back short (the stale
  // pre-write size), which the byte check below catches on every seed.
  opts.proxy_disk_cache = true;
  opts.proxy_write_back = false;
  opts.consistency = core::Consistency::kSessionExclusive;
  opts.wan_rtt = 40 * sim::kMillisecond;
  auto prepare = [](Testbed&) {};
  auto body = [&](Testbed& tb, std::shared_ptr<nfs::MountPoint> mp,
                  Record& rec, double&) {
    // File contents are generated and reads checked inline: per op that is
    // a few KiB of work, small next to the op itself.
    OpLog log{tb.engine(), rec};
    SmallfileState st;
    const sim::SimTime start = tb.engine().now();
    tb.engine().run_task(postmark(tb, *mp, log, st, seed));
    rec.det["ops.attempted"] = static_cast<double>(log.attempted);
    rec.det["ops.failed"] = 0;
    rec.det["app.read_bytes"] = static_cast<double>(st.read_bytes);
    rec.det["app.write_bytes"] = static_cast<double>(st.write_bytes);
    rec.det["sim.read_s"] = sim::to_seconds(st.read_sim);
    rec.det["sim.write_s"] = sim::to_seconds(st.write_sim);
    rec.det["sim.window_s"] = sim::to_seconds(tb.engine().now() - start);
    rec.det["sgfs.flush_s"] = st.flush_sim;
    check(rec, st.mismatches == 0,
          "smallfile read returned bytes the application never wrote");
    for (const auto& [path, bytes] : st.model) {
      auto back = tb.server_fs().read_file(kGrid, data_path(path));
      check(rec, back.ok() && back.value == bytes,
            "server copy of " + path + " differs after flush_session");
    }
    for (const auto& path : st.deleted) {
      if (st.model.count(path)) continue;  // recreated later (never today)
      check(rec, !tb.server_fs().resolve(kGrid, data_path(path)).ok(),
            "deleted file " + path + " still on the server after flush");
    }
  };
  return run_testbed(opts, traced, prepare, body);
}

// --- fleet-small-ops / reconnect-storm ------------------------------------------

/// Shared shape of the two harness workloads: a set-up probe (the same
/// options with a near-empty measurement window: topology, PKI, discovery
/// and the establishment ramp) followed by the full call.  Only whole calls
/// can be timed from outside, so the measured wall is the full call's, its
/// internal set-up included, and the probe is reported as the set-up.
template <typename Opts, typename Run, typename Result>
Record run_harness(Opts opt, bool traced, const char* name, Run&& run,
                   Result& res) {
  Record rec;
  const size_t spans0 = g_spans.size();
  SpanScope iter_span(traced ? "iteration.traced" : "iteration");
  // run_connstorm insists on a restart inside the window, so the probe
  // schedules a 1 ms one at the window's start (run_fleet ignores both).
  Opts probe = opt;
  probe.window_s = 0.002;
  probe.crash_at_s = 0;
  probe.downtime_s = 0.001;
  auto t0 = Clock::now();
  uint64_t probe_errors = 0;
  {
    SpanScope s((std::string(name) + ".setup_probe").c_str());
    probe_errors = run(probe).sim_errors;
  }
  const double setup = std::chrono::duration<double>(Clock::now() - t0).count();
  const BufStats buf1 = buf_stats();
  t0 = Clock::now();
  {
    SpanScope s(name);
    res = run(opt);
  }
  const double call = std::chrono::duration<double>(Clock::now() - t0).count();
  const BufStats buf2 = buf_stats();
  rec.wall["setup.testbed_s"] = setup;
  rec.wall["setup.preload_s"] = 0;
  rec.wall["setup.mount_s"] = 0;
  rec.wall["wall_s"] = call;
  for (const auto& [k, v] : res.metrics) rec.det[k] = v;
  rec.det["buf.bytes_copied"] =
      static_cast<double>(buf2.bytes_copied - buf1.bytes_copied);
  rec.det["buf.bytes_zerocopy"] =
      static_cast<double>(buf2.bytes_zerocopy - buf1.bytes_zerocopy);
  rec.det["buf.segments_allocated"] = static_cast<double>(
      buf2.segments_allocated - buf1.segments_allocated);
  const uint64_t failed = res.busy + res.giveups + res.errors;
  rec.det["ops.attempted"] = static_cast<double>(res.ok + failed);
  rec.det["ops.failed"] = static_cast<double>(failed);
  rec.det["ops.busy"] = static_cast<double>(res.busy);
  rec.det["ops.giveups"] = static_cast<double>(res.giveups);
  rec.det["ops.errors"] = static_cast<double>(res.errors);
  rec.det["trace.spans"] = static_cast<double>(g_spans.size() - spans0);
  rec.det["sim.window_s"] = opt.window_s;
  rec.det["sim.events"] = static_cast<double>(res.events);
  rec.det["sim.actors_spawned"] = static_cast<double>(res.actors);
  rec.det["sim.errors"] = static_cast<double>(res.sim_errors);
  rec.det["harness.fingerprint_lo"] =
      static_cast<double>(res.fingerprint() & 0xffffffffu);
  check(rec, res.sim_errors == 0 && probe_errors == 0,
        std::string(name) + ": sim_errors != 0");
  return rec;
}

Record fleet_small_ops(uint64_t seed, bool traced) {
  fleet::FleetOptions opt;
  opt.shards = 4;
  opt.sessions = kFleetSessions;
  opt.window_s = kFleetWindowS;
  opt.op_interval_s = 0.2;
  opt.crash_shard = -1;
  opt.seed = seed;
  fleet::FleetResult res;
  Record rec = run_harness(
      opt, traced, "run_fleet",
      [](const fleet::FleetOptions& o) { return fleet::run_fleet(o); }, res);
  rec.lat_ns = res.lat_ns;
  rec.det["fleet.discovery_fetches"] =
      static_cast<double>(res.discovery_fetches);
  rec.det["fleet.establishes"] = static_cast<double>(res.establishes);
  return rec;
}

Record reconnect_storm(uint64_t seed, bool traced) {
  fleet::ConnstormOptions opt;
  opt.clients = kStormClients;
  opt.seed = seed;
  fleet::ConnstormResult res;
  Record rec = run_harness(
      opt, traced, "run_connstorm",
      [](const fleet::ConnstormOptions& o) { return fleet::run_connstorm(o); },
      res);
  rec.det["sim.recovery_s"] = res.recovery_s;
  rec.det["fleet.establishes"] = static_cast<double>(res.establishes);
  rec.det["storm.sso_authorizations"] =
      static_cast<double>(res.sso_authorizations);
  return rec;
}

// --- calibration ---------------------------------------------------------------

/// Median host nanoseconds per call of `fn` over 5 batches of >= 20 ms.
double ns_per_call(const std::function<void()>& fn) {
  std::vector<double> per;
  for (int batch = 0; batch < 5; ++batch) {
    uint64_t calls = 0;
    const auto t0 = Clock::now();
    double el = 0;
    do {
      fn();
      ++calls;
      el = std::chrono::duration<double>(Clock::now() - t0).count();
    } while (el < 0.02);
    per.push_back(el * 1e9 / static_cast<double>(calls));
  }
  std::sort(per.begin(), per.end());
  return per[per.size() / 2];
}

/// Unit costs of the layers' public functions, timed in this process.
std::map<std::string, double> calibrate(size_t send_record,
                                        size_t recv_record) {
  std::map<std::string, double> cal;
  volatile uint8_t sink = 0;
  Rng rng(7);
  const Buffer key = rng.bytes(32);
  const Buffer mac_key = rng.bytes(20);
  const Buffer iv = rng.bytes(16);
  const crypto::Aes aes{ByteView(key)};
  const uint8_t seq[8] = {0, 0, 0, 0, 0, 0, 0, 1};
  // One record of the sgfs-aes suite: IV derivation (HMAC-SHA1 over the
  // sequence number), AES-256-CBC over the body and HMAC-SHA1 over it.
  auto record_cost = [&](size_t bytes, bool encrypt) {
    const Buffer plain = rng.bytes(bytes > 48 ? bytes - 48 : 16);
    const Buffer cipher = crypto::aes_cbc_encrypt(aes, iv, plain);
    return ns_per_call([&] {
      auto ivd = crypto::HmacSha1::mac(mac_key, ByteView(seq, 8));
      Buffer out = encrypt ? crypto::aes_cbc_encrypt(aes, iv, plain)
                           : crypto::aes_cbc_decrypt(aes, iv, cipher);
      auto tag = crypto::HmacSha1::mac(mac_key, encrypt ? ByteView(out)
                                                        : ByteView(cipher));
      sink = sink ^ ivd[0] ^ out[0] ^ tag[0];
    });
  };
  if (send_record > 0) cal["crypto.send_record_ns"] = record_cost(send_record,
                                                                  true);
  if (recv_record > 0) cal["crypto.recv_record_ns"] = record_cost(recv_record,
                                                                  false);

  // RSA at the PKI's key size (CertificateAuthority's 512-bit default).
  Rng key_rng(11);
  const crypto::RsaKeyPair kp = crypto::rsa_generate(key_rng, 512);
  const Buffer msg = rng.bytes(64);
  const Buffer sig = crypto::rsa_sign_sha1(kp.priv, msg);
  const Buffer secret = rng.bytes(48);
  const Buffer enc = crypto::rsa_encrypt(kp.pub, rng, secret);
  cal["crypto.rsa_sign_ns"] = ns_per_call(
      [&] { sink = sink ^ crypto::rsa_sign_sha1(kp.priv, msg)[0]; });
  cal["crypto.rsa_verify_ns"] = ns_per_call(
      [&] { sink = sink ^ crypto::rsa_verify_sha1(kp.pub, msg, sig); });
  cal["crypto.rsa_encrypt_ns"] = ns_per_call(
      [&] { sink = sink ^ crypto::rsa_encrypt(kp.pub, rng, secret)[0]; });
  cal["crypto.rsa_decrypt_ns"] = ns_per_call(
      [&] { sink = sink ^ crypto::rsa_decrypt(kp.priv, enc)[0]; });

  // Engine: a bare sim::Engine sleep loop, 1000 actors deep.
  std::vector<double> per_event;
  for (int rep = 0; rep < 3; ++rep) {
    sim::Engine eng;
    for (int a = 0; a < 1000; ++a) {
      eng.spawn([](sim::Engine& eng, uint64_t s) -> sim::Task<void> {
        Rng r(s);
        for (int i = 0; i < 100; ++i) {
          co_await eng.sleep(static_cast<sim::SimDur>(1 + r.next_below(1000)));
        }
      }(eng, static_cast<uint64_t>(a)));
    }
    const auto t0 = Clock::now();
    eng.run();
    const double el = std::chrono::duration<double>(Clock::now() - t0).count();
    per_event.push_back(el * 1e9 /
                        static_cast<double>(eng.events_processed()));
  }
  std::sort(per_event.begin(), per_event.end());
  cal["sim.event_ns"] = per_event[1];
  return cal;
}

// --- host speed reference ---------------------------------------------------------

/// Seconds a fixed piece of work takes right now: integer mixing, a
/// cache-missing pointer chase over 32 MiB, and heap, ordered-map and
/// allocator churn.  It shares no code with the program, so a change to the
/// program cannot move it, and it slows with the host the way the program
/// does: on a shared machine the same repetition takes up to half as long
/// again in contended phases lasting tens of seconds.  run.py scales every
/// wall reading by it.
double reference_seconds() {
  static const std::vector<uint32_t> next = [] {
    constexpr uint32_t kSlots = 1u << 23;
    std::vector<uint32_t> order(kSlots);
    for (uint32_t i = 0; i < kSlots; ++i) order[i] = i;
    Rng rng(0x5eed);
    for (uint32_t i = kSlots - 1; i > 0; --i) {
      std::swap(order[i], order[rng.next_below(i + 1)]);
    }
    std::vector<uint32_t> cycle(kSlots);
    for (uint32_t i = 0; i < kSlots; ++i) {
      cycle[order[i]] = order[(i + 1) % kSlots];
    }
    return cycle;
  }();
  static volatile uint64_t sink = 0;
  const auto t0 = Clock::now();
  uint64_t h = 0x9e3779b97f4a7c15ull;
  for (uint32_t i = 0; i < 10'000'000; ++i) {
    h = (h ^ i) * 0xff51afd7ed558ccdull;
    h ^= h >> 31;
  }
  uint32_t p = static_cast<uint32_t>(h) & ((1u << 23) - 1);
  for (int i = 0; i < 200'000; ++i) p = next[p];
  std::priority_queue<uint64_t, std::vector<uint64_t>, std::greater<>> q;
  std::map<uint64_t, std::string> m;
  Rng r(3);
  for (int i = 0; i < 100'000; ++i) {
    q.push(r.next_u64());
    m.emplace(r.next_u64(), "abcdefghijklmnopqrstuvwxyz0123456789");
    if (i % 2) {
      q.pop();
      m.erase(m.begin());
    }
  }
  sink = sink + h + p + q.size() + m.size();
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- main ------------------------------------------------------------------------

uint64_t fnv(const std::vector<uint64_t>& v) {
  uint64_t h = 14695981039346656037ull;
  for (uint64_t x : v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  return h;
}

void print_record(const Record& rec, bool traced, bool with_lat) {
  std::string out = "{\"kind\": \"iteration\", \"traced\": ";
  out += traced ? "1" : "0";
  out += ", \"wall\": " + object(rec.wall);
  out += ", \"det\": " + object(rec.det);
  char digest[32];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(fnv(rec.lat_ns)));
  out += ", \"lat_digest\": \"" + std::string(digest) + "\"";
  if (with_lat) {
    std::vector<uint64_t> sorted = rec.lat_ns;
    std::sort(sorted.begin(), sorted.end());
    out += ", \"lat_ns\": [";
    for (size_t i = 0; i < sorted.size(); ++i) {
      if (i) out += ",";
      out += std::to_string(sorted[i]);
    }
    out += "]";
  }
  out += ", \"error\": " + quoted(rec.error) + "}";
  std::puts(out.c_str());
  std::fflush(stdout);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload bulk-aes-lan|fleet-small-ops|"
               "smallfile-wan-cache|reconnect-storm --seed N --seconds S "
               "--trace 0|1 [--spans PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Keep freed heap in the process: repetitions then reuse warm pages
  // instead of paying fresh page faults, whose cost varies widely on a
  // virtual machine.
  mallopt(M_MMAP_THRESHOLD, 1 << 30);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return usage();
    args[argv[i] + 2] = argv[i + 1];
  }
  if (argc % 2 != 1 || !args.count("workload") || !args.count("seed") ||
      !args.count("seconds") || !args.count("trace")) {
    return usage();
  }
  const std::string workload = args["workload"];
  const uint64_t seed = std::stoull(args["seed"]);
  const double seconds = std::stod(args["seconds"]);
  const bool trace = args["trace"] == "1";

  std::function<Record(uint64_t, bool)> run;
  if (workload == "bulk-aes-lan") {
    run = bulk_aes_lan;
  } else if (workload == "fleet-small-ops") {
    run = fleet_small_ops;
  } else if (workload == "smallfile-wan-cache") {
    run = smallfile_wan_cache;
  } else if (workload == "reconnect-storm") {
    run = reconnect_storm;
  } else {
    return usage();
  }

  // A warm-up repetition (reported, but not timed by run.py) lets caches
  // fill and lazy set-up finish.  Then repeat until the budget is spent,
  // alternating untraced/traced when tracing, and always at least three
  // timed repetitions of each kind.
  const auto start = Clock::now();
  int timed = 0;
  bool failed = false;
  std::map<std::string, double> traced_det;
  for (int i = 0;; ++i) {
    const bool traced = trace && i > 0 && i % 2 == 0;
    // The warm-up repetition runs before the reference's first use, so the
    // peak RSS read after it is the workload's alone.
    const double ref_before = i == 0 ? 0 : reference_seconds();
    g_spans.on = traced;
    Record rec;
    try {
      rec = run(seed, traced);
    } catch (const std::exception& e) {
      rec.error = std::string("operation failed: ") + e.what();
      rec.det["ops.attempted"] = 1;
      rec.det["ops.failed"] = 1;
    }
    g_spans.on = false;
    rec.wall["peak_rss_mb"] = peak_rss_mb();
    const double ref_after = reference_seconds();
    rec.wall["host.ref_s"] = i == 0 ? ref_after : (ref_before + ref_after) / 2;
    const bool first_of_kind = i == 0 || (traced && i == 2);
    print_record(rec, traced, first_of_kind);
    if (!rec.error.empty()) {
      failed = true;
      break;
    }
    if (traced) traced_det = rec.det;
    if (i > 0) ++timed;
    const double el =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (el >= seconds && timed >= (trace ? 6 : 3)) break;
  }
  if (trace && !failed) {
    // Record sizes come from the traced repetitions' crypto counters.
    auto mean_size = [&](const char* bytes, const char* records) -> size_t {
      const double n = traced_det.count(records) ? traced_det[records] : 0;
      return n > 0 ? static_cast<size_t>(traced_det[bytes] / n) : 0;
    };
    const double ref_before = reference_seconds();
    auto cal = calibrate(mean_size("crypto.bytes_sent", "crypto.records_sent"),
                         mean_size("crypto.bytes_recv", "crypto.records_recv"));
    cal["host.ref_s"] = (ref_before + reference_seconds()) / 2;
    std::printf("{\"kind\": \"calibration\", \"unit_costs\": %s}\n",
                object(cal).c_str());
  }
  std::printf("{\"kind\": \"process\", \"spans\": %zu}\n", g_spans.size());
  if (args.count("spans") && trace && !g_spans.write(args["spans"])) {
    std::fprintf(stderr, "perfbench: could not write %s\n",
                 args["spans"].c_str());
  }
  return failed ? 1 : 0;
}

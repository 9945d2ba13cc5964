// Shared helpers for the figure-reproduction benchmarks.
//
// Every bench binary prints: the measured (simulated) values, the paper's
// reported values where the paper gives numbers, and the ratio checks the
// text calls out.  A bench that gates a claim decides pass or fail only
// through Gate.  Flags: --full reproduces paper-size workloads; --runs=N
// repeats with different seeds and reports mean ± stddev; each bench also
// names the flags of its own that Flags::parse accepts.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/bufchain.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "workloads/workloads.hpp"

namespace sgfs::bench {

struct Flags {
  bool full = false;
  int runs = 1;
  std::map<std::string, std::string> raw;

  /// Parses argv.  The flags every bench shares (--full, --runs=N,
  /// --json=PATH, --trace=PATH) are always accepted; besides those, only
  /// the names in `known` are.  Any other argument (a typo, a retired
  /// flag) exits with status 2 naming it, rather than running the
  /// defaults without complaint.
  static Flags parse(int argc, char** argv,
                     std::initializer_list<std::string_view> known) {
    Flags flags;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--full") {
        flags.full = true;
        continue;
      }
      if (arg.rfind("--runs=", 0) == 0) {
        flags.runs = std::max(1, std::atoi(arg.c_str() + 7));
        continue;
      }
      const size_t eq = arg.find('=');
      const std::string name =
          arg.rfind("--", 0) == 0
              ? arg.substr(2, eq == std::string::npos ? eq : eq - 2)
              : std::string();
      const bool accepted =
          name == "json" || name == "trace" ||
          std::find(known.begin(), known.end(), name) != known.end();
      if (name.empty() || !accepted) {
        std::fprintf(stderr, "%s: unknown flag %s\n", argv[0],
                     name.empty() ? arg.c_str() : ("--" + name).c_str());
        std::exit(2);
      }
      flags.raw[name] = eq == std::string::npos ? "1" : arg.substr(eq + 1);
    }
    return flags;
  }

  int64_t get_int(const std::string& key, int64_t def) const {
    auto it = raw.find(key);
    return it == raw.end() ? def : std::atoll(it->second.c_str());
  }

  double get_double(const std::string& key, double def) const {
    auto it = raw.find(key);
    return it == raw.end() ? def : std::atof(it->second.c_str());
  }
};

/// The comparison a gate applies: measured <op> threshold.
enum class Op { kEq, kGt, kGe, kLt, kLe };

inline const char* op_name(Op op) {
  switch (op) {
    case Op::kEq: return "==";
    case Op::kGt: return ">";
    case Op::kGe: return ">=";
    case Op::kLt: return "<";
    case Op::kLe: return "<=";
  }
  return "?";
}

inline bool op_holds(double measured, Op op, double threshold) {
  switch (op) {
    case Op::kEq: return measured == threshold;
    case Op::kGt: return measured > threshold;
    case Op::kGe: return measured >= threshold;
    case Op::kLt: return measured < threshold;
    case Op::kLe: return measured <= threshold;
  }
  return false;
}

inline void print_header(const std::string& title,
                         const std::string& workload_desc) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("workload: %s\n", workload_desc.c_str());
  std::printf("(simulated seconds; calibrated2007 cost model — compare "
              "shapes/ratios, not absolutes)\n\n");
}

/// Machine-readable results (--json=PATH): one JSON document per bench run
/// with a row per configuration (simulated seconds, stddev, metric
/// snapshot) plus the checks.  A paper comparison is {what, measured,
/// paper}; a gate is {what, measured, op, threshold, pass}.  Written on
/// destruction so it is emitted even when a later check aborts the
/// process.
class JsonReport {
 public:
  JsonReport(const Flags& flags, std::string bench) : bench_(std::move(bench)) {
    auto it = flags.raw.find("json");
    if (it != flags.raw.end()) path_ = it->second;
    if (enabled()) current() = this;
  }
  JsonReport(const JsonReport&) = delete;
  JsonReport& operator=(const JsonReport&) = delete;

  bool enabled() const { return !path_.empty(); }

  /// The report print_row()/print_check() mirror into (one per bench main).
  static JsonReport*& current() {
    static JsonReport* cur = nullptr;
    return cur;
  }

  /// Counter/gauge snapshot of a registry, for attaching to a row before
  /// the simulation that owns the registry is torn down.
  static std::map<std::string, double> snapshot(
      const obs::MetricsRegistry& reg) {
    return reg.flat_snapshot();
  }

  void add_row(const std::string& name, double seconds, double stddev = 0,
               std::map<std::string, double> metrics = {},
               std::string note = "") {
    if (!enabled()) return;
    rows_.push_back(
        Row{name, seconds, stddev, std::move(metrics), std::move(note)});
  }

  /// Attaches a metric snapshot to the most recent row named `name` (rows
  /// usually come in via the print_row() mirror, which has no registry).
  void attach_metrics(const std::string& name,
                      std::map<std::string, double> metrics) {
    if (!enabled()) return;
    for (auto it = rows_.rbegin(); it != rows_.rend(); ++it) {
      if (it->name == name) {
        it->metrics = std::move(metrics);
        return;
      }
    }
  }

  void add_check(const std::string& what, double measured,
                 const std::string& paper) {
    if (!enabled()) return;
    checks_.push_back(Check{what, measured, paper, nullptr, 0, false});
  }

  void add_gate(const std::string& what, double measured, Op op,
                double threshold, bool pass) {
    if (!enabled()) return;
    checks_.push_back(Check{what, measured, "", op_name(op), threshold, pass});
  }

  ~JsonReport() {
    if (current() == this) current() = nullptr;
    if (!enabled()) return;
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "WARNING: could not write JSON to %s\n",
                   path_.c_str());
      return;
    }
    std::fprintf(f, "{\n  \"bench\": %s,\n  \"rows\": [",
                 quoted(bench_).c_str());
    for (size_t i = 0; i < rows_.size(); ++i) {
      const Row& r = rows_[i];
      std::fprintf(f, "%s\n    {\"name\": %s, \"simulated_seconds\": %.17g",
                   i ? "," : "", quoted(r.name).c_str(), r.seconds);
      if (r.stddev > 0) std::fprintf(f, ", \"stddev\": %.17g", r.stddev);
      if (!r.note.empty()) {
        std::fprintf(f, ", \"note\": %s", quoted(r.note).c_str());
      }
      if (!r.metrics.empty()) {
        std::fprintf(f, ", \"metrics\": {");
        size_t j = 0;
        for (const auto& [k, v] : r.metrics) {
          std::fprintf(f, "%s%s: %.17g", j++ ? ", " : "", quoted(k).c_str(),
                       v);
        }
        std::fprintf(f, "}");
      }
      std::fprintf(f, "}");
    }
    std::fprintf(f, "\n  ],\n  \"checks\": [");
    for (size_t i = 0; i < checks_.size(); ++i) {
      const Check& c = checks_[i];
      std::fprintf(f, "%s\n    {\"what\": %s, \"measured\": %.17g",
                   i ? "," : "", quoted(c.what).c_str(), c.measured);
      if (c.op != nullptr) {
        std::fprintf(f, ", \"op\": \"%s\", \"threshold\": %.17g, "
                        "\"pass\": %s}",
                     c.op, c.threshold, c.pass ? "true" : "false");
      } else {
        std::fprintf(f, ", \"paper\": %s}", quoted(c.paper).c_str());
      }
    }
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
    std::printf("json: results -> %s\n", path_.c_str());
  }

 private:
  struct Row {
    std::string name;
    double seconds = 0;
    double stddev = 0;
    std::map<std::string, double> metrics;
    std::string note;
  };
  struct Check {
    std::string what;
    double measured = 0;
    std::string paper;         // a paper comparison: the paper's figure
    const char* op = nullptr;  // a gate: measured <op> threshold
    double threshold = 0;
    bool pass = false;
  };

  static std::string quoted(const std::string& s) {
    std::string out = "\"";
    for (char ch : s) {
      switch (ch) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        default:
          if (static_cast<unsigned char>(ch) < 0x20) {
            char esc[8];
            std::snprintf(esc, sizeof esc, "\\u%04x", ch);
            out += esc;
          } else {
            out.push_back(ch);
          }
      }
    }
    out += '"';
    return out;
  }

  std::string bench_;
  std::string path_;
  std::vector<Row> rows_;
  std::vector<Check> checks_;
};

inline void print_row(const std::string& name, double measured,
                      double stddev, const char* note = "") {
  if (stddev > 0) {
    std::printf("  %-12s %9.1f s  (± %.1f)  %s\n", name.c_str(), measured,
                stddev, note);
  } else {
    std::printf("  %-12s %9.1f s  %s\n", name.c_str(), measured, note);
  }
  if (JsonReport* json = JsonReport::current()) {
    json->add_row(name, measured, stddev, {}, note);
  }
}

inline void print_check(const std::string& what, double measured,
                        const std::string& paper) {
  std::printf("  check: %-44s measured %6.2f   paper %s\n", what.c_str(),
              measured, paper.c_str());
  if (JsonReport* json = JsonReport::current()) {
    json->add_check(what, measured, paper);
  }
}

/// A bench's pass/fail gates, and its only verdict.  Each gate prints a
/// check line ("want <op> <threshold>") and records {op, threshold, pass}
/// in the JSON report; a failing one also prints "FAIL: <what>: measured
/// X, want <op> T".  finish() prints the verdict and returns the exit code.
class Gate {
 public:
  explicit Gate(std::string bench) : bench_(std::move(bench)) {}

  void operator()(const std::string& what, double measured, Op op,
                  double threshold) {
    const bool pass = op_holds(measured, op, threshold);
    std::printf("  check: %-44s measured %6.2f   want %s %g\n", what.c_str(),
                measured, op_name(op), threshold);
    if (JsonReport* json = JsonReport::current()) {
      json->add_gate(what, measured, op, threshold, pass);
    }
    if (!pass) {
      std::printf("  FAIL: %s: measured %g, want %s %g\n", what.c_str(),
                  measured, op_name(op), threshold);
      ok_ = false;
    }
  }

  int finish() const {
    std::printf("%s: %s\n", bench_.c_str(),
                ok_ ? "all gates passed" : "FAILED gates");
    return ok_ ? 0 : 1;
  }

 private:
  std::string bench_;
  bool ok_ = true;
};

/// True when the user asked for an RPC span trace (--trace=PATH).
inline bool trace_requested(const Flags& flags) {
  return flags.raw.count("trace") > 0;
}

/// Dumps the engine's recorded spans to "<--trace value>.<tag>.jsonl".
/// The tag (often a human-readable row label) is sanitized to a filename-safe
/// token.
inline void dump_trace(const Flags& flags, const sim::Engine& eng,
                       const std::string& tag) {
  auto it = flags.raw.find("trace");
  if (it == flags.raw.end()) return;
  std::string safe_tag;
  for (char ch : tag) {
    const bool ok = (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
                    (ch >= '0' && ch <= '9') || ch == '-' || ch == '_' ||
                    ch == '.';
    safe_tag += ok ? ch : '_';
  }
  const std::string path = it->second + "." + safe_tag + ".jsonl";
  if (eng.tracer().dump_jsonl_file(path)) {
    std::printf("    trace: %llu spans -> %s\n",
                static_cast<unsigned long long>(eng.tracer().spans().size()),
                path.c_str());
  } else {
    std::fprintf(stderr, "WARNING: could not write trace to %s\n",
                 path.c_str());
  }
}

/// One row of a figure bench: its label and the testbed it runs on.
struct Setup {
  std::string name;
  baselines::TestbedOptions opts;
};

/// A setup's testbed options with the given cipher suite (null by default;
/// setups without a secure channel ignore it).
inline baselines::TestbedOptions testbed(
    baselines::SetupKind kind, crypto::Cipher cipher = crypto::Cipher::kNull,
    crypto::MacAlgo mac = crypto::MacAlgo::kNull) {
  baselines::TestbedOptions opts;
  opts.kind = kind;
  opts.cipher = cipher;
  opts.mac = mac;
  return opts;
}

/// What the runner keeps of one setup: the workload body's result for each
/// seed, in seed order, and the first seed's per-layer metrics (the printed
/// summary, and the JSON snapshot when --json is given).
template <typename R>
struct Runs {
  std::string name;
  std::vector<R> seeds;
  std::string summary;
  std::map<std::string, double> metrics;

  /// Mean and stddev over the seeds of one value of the result.
  template <typename Get>
  workloads::Stats stats(Get get) const {
    std::vector<double> xs;
    for (const R& r : seeds) xs.push_back(get(r));
    return workloads::stats_of(xs);
  }
};

/// The T of a sim::Task<T>: the result type of a workload body.
template <typename T>
struct TaskValue;
template <typename T>
struct TaskValue<sim::Task<T>> {
  using type = T;
};

/// The seed of the first run; run r gets kFirstSeed + 1000*r.
constexpr uint64_t kFirstSeed = 42;

/// Workload parameters for the runner's seed `run_seed`: their own seed is
/// kept on the first run and moved by as much as the runner's seed has
/// moved since.  Each --runs repeat then draws a different workload, while
/// the default single run keeps the workload's historical seed (and output).
template <typename Params>
Params with_run_seed(Params params, uint64_t run_seed) {
  params.seed += run_seed - kFirstSeed;
  return params;
}

/// The run path of the paper-figure benches.  It parses the flags, opens
/// the JSON report, and runs every (setup, seed) cell: seeds 42 + 1000*r
/// for r < --runs, each on a fresh Testbed, with --trace honoured on the
/// first seed.  All cells run before the bench prints its table.  Errors
/// of detached actors are counted over every cell, and finish() makes them
/// the bench's gate, `sim errors == 0`.
class Runner {
 public:
  struct Options {
    /// Populates the server before the workload starts (no simulated time);
    /// gets the run's seed, as the workload body does.
    std::function<void(baselines::Testbed&, uint64_t)> prepare;
    /// Publishes each run's buf.* copy counters into its metrics (BufStats
    /// is process-global, as payloads cross hosts, so a run takes deltas).
    bool buf_stats = false;
    /// Line prefix of the printed metric summaries.
    std::string indent = "    ";
  };

  Runner(int argc, char** argv, const std::string& bench,
         std::initializer_list<std::string_view> known)
      : flags(Flags::parse(argc, argv, known)), json(flags, bench),
        gate_(bench) {}

  Flags flags;
  JsonReport json;

  /// Runs `body(testbed, seed)`, a coroutine returning one result, on every
  /// setup and seed; returns the runs in setup order.
  template <typename Body>
  auto run(const std::vector<Setup>& setups, Body body,
           const Options& options = {}) {
    using R = typename TaskValue<decltype(body(
        std::declval<baselines::Testbed&>(), uint64_t{}))>::type;
    std::vector<Runs<R>> out;
    for (const Setup& setup : setups) {
      Runs<R>& runs = out.emplace_back();
      runs.name = setup.name;
      for (int r = 0; r < flags.runs; ++r) {
        const bool first = r == 0;
        const BufStats buf_start = buf_stats();
        baselines::TestbedOptions opts = setup.opts;
        opts.seed = kFirstSeed + 1000ull * r;
        baselines::Testbed tb(opts);
        if (first && trace_requested(flags)) {
          tb.engine().tracer().set_enabled(true);
        }
        if (options.prepare) options.prepare(tb, opts.seed);
        R result{};
        tb.engine().run_task([](Body& body, baselines::Testbed& tb,
                                uint64_t seed, R* out) -> sim::Task<void> {
          *out = co_await body(tb, seed);
        }(body, tb, opts.seed, &result));
        runs.seeds.push_back(std::move(result));
        const auto& errors = tb.engine().errors();
        sim_errors_ += errors.size();
        if (!errors.empty()) {
          std::fprintf(stderr, "WARNING: %s seed %llu: %s\n",
                       setup.name.c_str(),
                       static_cast<unsigned long long>(opts.seed),
                       errors[0].c_str());
        }
        obs::MetricsRegistry& reg = tb.engine().metrics();
        if (options.buf_stats) {
          const BufStats& now = buf_stats();
          reg.counter("buf.bytes_copied")
              .inc(now.bytes_copied - buf_start.bytes_copied);
          reg.counter("buf.bytes_zerocopy")
              .inc(now.bytes_zerocopy - buf_start.bytes_zerocopy);
          reg.counter("buf.segments_allocated")
              .inc(now.segments_allocated - buf_start.segments_allocated);
        }
        if (!first) continue;
        runs.summary = obs::format_summary(reg, options.indent);
        if (json.enabled()) runs.metrics = reg.flat_snapshot();
        dump_trace(flags, tb.engine(), setup.name);
      }
    }
    return out;
  }

  /// The bench's verdict: gates `sim errors == 0` and returns the exit code.
  int finish() {
    gate_("sim errors", static_cast<double>(sim_errors_), Op::kEq, 0);
    return gate_.finish();
  }

 private:
  Gate gate_;
  uint64_t sim_errors_ = 0;
};

/// A run of Figure 9 or 10: the application's phases, then the end-of-run
/// write-back of the kernel client and the proxy disk cache, which the paper
/// reports separately.
struct AppRun {
  workloads::PhaseTimes times;
  double writeback = 0;
};

/// Runs and prints Figure 9 or 10: `workload(testbed, mount, seed)` and the
/// write-back on nfs-v3 and sgfs over AES-256-CBC/HMAC-SHA1, in LAN and over
/// a 40 ms WAN where sgfs uses its disk cache.  `phases` pairs each phase's
/// name with its column head, and `paper` holds the paper's seconds per row
/// and phase, printed with `paper_digits` decimals.  JSON rows are
/// "<setup>/<net>/<phase>" and ".../writeback".  Returns each row's mean
/// phase times by label, for the bench's checks.
template <typename Workload>
std::map<std::string, workloads::PhaseTimes> run_app_figure(
    Runner& bench, const baselines::TestbedOptions& base, Workload workload,
    const Runner::Options& options,
    const std::vector<std::pair<std::string, std::string>>& phases,
    const double (&paper)[4][4], int paper_digits) {
  std::vector<Setup> setups;  // nfs-v3 LAN, sgfs LAN, nfs-v3 WAN, sgfs WAN
  for (bool wan : {false, true}) {
    for (bool sgfs : {false, true}) {
      Setup& s = setups.emplace_back(Setup{
          std::string(sgfs ? "sgfs  " : "nfs-v3") + (wan ? " WAN" : " LAN"),
          base});
      s.opts.kind = sgfs ? baselines::SetupKind::kSgfs
                         : baselines::SetupKind::kNfsV3;
      s.opts.cipher = crypto::Cipher::kAes256Cbc;
      s.opts.mac = crypto::MacAlgo::kHmacSha1;
      s.opts.wan_rtt = wan ? 40 * sim::kMillisecond : 0;
      s.opts.proxy_disk_cache = sgfs && wan;
    }
  }
  const auto runs = bench.run(
      setups,
      [&](baselines::Testbed& tb, uint64_t seed) -> sim::Task<AppRun> {
        auto mp = co_await tb.mount();
        AppRun out;
        out.times = co_await workload(tb, mp, seed);
        co_await mp->flush_all();
        out.writeback = co_await tb.flush_session();
        co_return out;
      },
      options);

  // A column is two wider than its head, and at least 8.
  std::vector<int> widths;
  std::printf("  %-12s", "setup");
  for (const auto& [name, head] : phases) {
    widths.push_back(std::max<int>(8, static_cast<int>(head.size()) + 2));
    std::printf(" %*s", widths.back(), head.c_str());
  }
  std::printf(" %9s %11s\n", "total", "writeback");
  std::map<std::string, workloads::PhaseTimes> all;
  for (size_t i = 0; i < runs.size(); ++i) {
    const auto& r = runs[i];
    const std::string setup = r.name.substr(0, r.name.find(' ')) + "/" +
                              r.name.substr(r.name.rfind(' ') + 1);
    workloads::PhaseTimes& mean = all[r.name];
    for (const auto& [name, head] : phases) {
      const auto st = r.stats([&](const AppRun& x) { return x.times[name]; });
      mean.add(name, st.mean);
      bench.json.add_row(setup + "/" + name, st.mean, st.stddev, r.metrics);
    }
    const auto wb = r.stats([](const AppRun& x) { return x.writeback; });
    bench.json.add_row(setup + "/writeback", wb.mean, wb.stddev, r.metrics);
    std::printf("  %-12s", r.name.c_str());
    for (size_t p = 0; p < phases.size(); ++p) {
      std::printf(" %*.1fs", widths[p] - 1, mean[phases[p].first]);
    }
    std::printf(" %8.1fs %10.1fs\n", mean.total(), wb.mean);
    std::printf("  %-12s", "");
    double paper_total = 0;
    for (size_t p = 0; p < phases.size(); ++p) {
      std::printf(" %*.*fs", widths[p] - 1, paper_digits, paper[i][p]);
      paper_total += paper[i][p];
    }
    std::printf(" %8.*fs   (paper)\n", paper_digits, paper_total);
    std::fputs(r.summary.c_str(), stdout);
  }
  std::printf("\n");
  return all;
}

}  // namespace sgfs::bench

// Virtual-time metrics: counters, gauges, and log-scale histograms in a
// per-simulation registry.
//
// Every sim::Engine owns one MetricsRegistry (eng.metrics()), so all layers
// that already hold an engine reference — RPC client/server, secure channel,
// NFS client emulation, sgfs proxies, resources — record into the same
// per-simulation namespace without constructor plumbing.  All durations are
// *virtual* nanoseconds from the DES clock; recording a metric never touches
// the event queue, so instrumentation cannot perturb simulated behaviour or
// break bit-determinism.
//
// Naming scheme: dotted lowercase paths, grouped by subsystem —
//   rpc.client.*     rpc.server.*      crypto.*      nfs.client.*
//   sgfs.client_proxy.*  sgfs.server_proxy.*  resource.<name>.*
// Counter pairs named `<base>.hits` / `<base>.misses` get a derived hit
// ratio in format_summary().  Histograms use `_ns` / `_bytes` suffixes to
// mark their unit.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>

namespace sgfs::obs {

/// Monotonic event count.
class Counter {
 public:
  void inc(uint64_t n = 1) { value_ += n; }
  uint64_t value() const { return value_; }
  void reset() { value_ = 0; }

 private:
  uint64_t value_ = 0;
};

/// Instantaneous level (e.g. write-behind queue depth) with a high-water
/// mark.  Never goes below zero: transient decrements past zero clamp.
class Gauge {
 public:
  void set(int64_t v);
  void add(int64_t delta) { set(value_ + delta); }
  int64_t value() const { return value_; }
  int64_t max() const { return max_; }
  void reset() {
    value_ = 0;
    max_ = 0;
  }

 private:
  int64_t value_ = 0;
  int64_t max_ = 0;
};

/// Log-scale (power-of-two bucket) histogram of non-negative values.
/// Bucket 0 holds value 0; bucket i >= 1 holds [2^(i-1), 2^i).  Quantiles
/// are bucket-resolution estimates (reported as the bucket's upper edge,
/// clamped to the observed max) — coarse, but stable and allocation-free.
class Histogram {
 public:
  static constexpr size_t kBuckets = 64;

  void observe(int64_t v);

  uint64_t count() const { return count_; }
  int64_t sum() const { return sum_; }
  int64_t min() const { return count_ ? min_ : 0; }
  int64_t max() const { return max_; }
  double mean() const {
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_)
                  : 0.0;
  }

  uint64_t bucket_count(size_t i) const {
    return i < kBuckets ? buckets_[i] : 0;
  }

  /// Index of the bucket holding `v` (0 for v <= 0).
  static size_t bucket_index(int64_t v);
  /// Smallest value mapped to bucket i (0, 1, 2, 4, 8, ...).
  static int64_t bucket_lower_bound(size_t i);

  /// Value at quantile q in [0, 1]: upper edge of the first bucket whose
  /// cumulative count reaches q * count, clamped to [min, max].
  int64_t quantile(double q) const;

  void reset();

 private:
  std::array<uint64_t, kBuckets> buckets_{};
  uint64_t count_ = 0;
  int64_t sum_ = 0;
  int64_t min_ = 0;
  int64_t max_ = 0;
};

/// Name -> instrument maps with stable references: counter("x") returns the
/// same Counter& for the life of the registry, so hot paths may cache the
/// pointer.  Lookup creates on first use (zero-valued).
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name) { return counters_[name]; }
  Gauge& gauge(const std::string& name) { return gauges_[name]; }
  Histogram& histogram(const std::string& name) { return histograms_[name]; }

  /// Read-only lookups: value of a registered instrument, or 0 / nullptr
  /// when the name was never registered (no side effects).
  uint64_t counter_value(const std::string& name) const;
  int64_t gauge_value(const std::string& name) const;
  const Histogram* find_histogram(const std::string& name) const;

  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, Gauge>& gauges() const { return gauges_; }
  const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }

  /// Point-in-time copy of every instrument's state, independent of later
  /// updates.
  struct Snapshot {
    std::map<std::string, uint64_t> counters;
    std::map<std::string, int64_t> gauges;
    std::map<std::string, Histogram> histograms;

    uint64_t counter_value(const std::string& name) const;
  };
  Snapshot snapshot() const;
  /// Counter values and gauge values (plus each gauge's high-water mark as
  /// `<name>.max`) in one name -> value map: the form bench JSON rows and
  /// harness results carry.
  std::map<std::string, double> flat_snapshot() const;

  /// Zeroes every registered instrument, keeping registrations (and thus
  /// any cached references) valid.
  void reset();

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

/// Lazily-bound handle to a named Counter.  Construction is cheap and does
/// NOT register the name; the first inc() resolves against the registry — at
/// the same moment a direct `reg.counter(name).inc()` would have created the
/// instrument — and caches the stable pointer, so steady-state cost is one
/// branch plus a pointer deref instead of a string construction + map lookup
/// per event.  Deferring registration keeps snapshots and format_summary()
/// byte-identical with the uncached code: names still appear only once the
/// first event lands.  The registry must outlive any use of the handle.
class CounterHandle {
 public:
  CounterHandle() = default;
  CounterHandle(MetricsRegistry& reg, std::string name)
      : reg_(&reg), name_(std::move(name)) {}

  void inc(uint64_t n = 1) {
    if (!c_) c_ = &reg_->counter(name_);
    c_->inc(n);
  }

 private:
  MetricsRegistry* reg_ = nullptr;
  std::string name_;
  Counter* c_ = nullptr;
};

/// Lazily-bound handle to a named Gauge (see CounterHandle).
class GaugeHandle {
 public:
  GaugeHandle() = default;
  GaugeHandle(MetricsRegistry& reg, std::string name)
      : reg_(&reg), name_(std::move(name)) {}

  void set(int64_t v) { resolve().set(v); }
  void add(int64_t delta) { resolve().add(delta); }

 private:
  Gauge& resolve() {
    if (!g_) g_ = &reg_->gauge(name_);
    return *g_;
  }
  MetricsRegistry* reg_ = nullptr;
  std::string name_;
  Gauge* g_ = nullptr;
};

/// Lazily-bound handle to a named Histogram (see CounterHandle).
class HistogramHandle {
 public:
  HistogramHandle() = default;
  HistogramHandle(MetricsRegistry& reg, std::string name)
      : reg_(&reg), name_(std::move(name)) {}

  void observe(int64_t v) {
    if (!h_) h_ = &reg_->histogram(name_);
    h_->observe(v);
  }

 private:
  MetricsRegistry* reg_ = nullptr;
  std::string name_;
  Histogram* h_ = nullptr;
};

/// Multi-line human-readable dump: non-zero metrics grouped by the first two
/// dotted name components, histograms as count/mean/p50/p99/max, and derived
/// hit ratios for `<base>.hits` / `<base>.misses` counter pairs.  Each line
/// is prefixed with `indent`.
std::string format_summary(const MetricsRegistry& reg,
                           const std::string& indent = "    ");

}  // namespace sgfs::obs

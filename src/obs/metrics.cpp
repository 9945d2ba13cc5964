#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <sstream>
#include <vector>

namespace sgfs::obs {

void Gauge::set(int64_t v) {
  value_ = v < 0 ? 0 : v;
  max_ = std::max(max_, value_);
}

size_t Histogram::bucket_index(int64_t v) {
  if (v <= 0) return 0;
  const size_t i = std::bit_width(static_cast<uint64_t>(v));
  return i < kBuckets ? i : kBuckets - 1;
}

int64_t Histogram::bucket_lower_bound(size_t i) {
  if (i == 0) return 0;
  return static_cast<int64_t>(uint64_t{1} << (i - 1));
}

void Histogram::observe(int64_t v) {
  if (v < 0) v = 0;
  if (count_ == 0 || v < min_) min_ = v;
  if (v > max_) max_ = v;
  sum_ += v;
  ++count_;
  ++buckets_[bucket_index(v)];
}

int64_t Histogram::quantile(double q) const {
  if (count_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const auto target =
      static_cast<uint64_t>(q * static_cast<double>(count_) + 0.5);
  uint64_t cum = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    cum += buckets_[i];
    if (cum >= target && cum > 0) {
      // Upper edge of bucket i, clamped to the observed range.
      const int64_t upper =
          i + 1 < kBuckets ? bucket_lower_bound(i + 1) - 1 : max_;
      return std::clamp<int64_t>(upper, min(), max_);
    }
  }
  return max_;
}

void Histogram::reset() {
  buckets_.fill(0);
  count_ = 0;
  sum_ = 0;
  min_ = 0;
  max_ = 0;
}

uint64_t MetricsRegistry::counter_value(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second.value();
}

int64_t MetricsRegistry::gauge_value(const std::string& name) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0 : it->second.value();
}

const Histogram* MetricsRegistry::find_histogram(
    const std::string& name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

uint64_t MetricsRegistry::Snapshot::counter_value(
    const std::string& name) const {
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

MetricsRegistry::Snapshot MetricsRegistry::snapshot() const {
  Snapshot out;
  for (const auto& [name, c] : counters_) out.counters[name] = c.value();
  for (const auto& [name, g] : gauges_) out.gauges[name] = g.value();
  for (const auto& [name, h] : histograms_) out.histograms[name] = h;
  return out;
}

std::map<std::string, double> MetricsRegistry::flat_snapshot() const {
  std::map<std::string, double> out;
  for (const auto& [name, c] : counters_) {
    out[name] = static_cast<double>(c.value());
  }
  for (const auto& [name, g] : gauges_) {
    out[name] = static_cast<double>(g.value());
    out[name + ".max"] = static_cast<double>(g.max());
  }
  return out;
}

void MetricsRegistry::reset() {
  for (auto& [name, c] : counters_) c.reset();
  for (auto& [name, g] : gauges_) g.reset();
  for (auto& [name, h] : histograms_) h.reset();
}

namespace {

// Group key: first two dotted components ("rpc.client.calls" -> "rpc.client");
// two-component names group by the first alone ("crypto.handshakes" ->
// "crypto").
std::string group_of(const std::string& name) {
  const size_t first = name.find('.');
  if (first == std::string::npos) return name;
  const size_t second = name.find('.', first + 1);
  return second == std::string::npos ? name.substr(0, first)
                                     : name.substr(0, second);
}

std::string short_name(const std::string& name, const std::string& group) {
  if (name.size() > group.size() + 1 && name.compare(0, group.size(), group) == 0) {
    return name.substr(group.size() + 1);
  }
  return name;
}

std::string fmt_dur_or_count(const std::string& name, double v) {
  char buf[64];
  if (name.size() >= 3 && name.compare(name.size() - 3, 3, "_ns") == 0) {
    // Virtual-time duration: print in the most readable unit.
    if (v >= 1e9) {
      std::snprintf(buf, sizeof buf, "%.2fs", v / 1e9);
    } else if (v >= 1e6) {
      std::snprintf(buf, sizeof buf, "%.2fms", v / 1e6);
    } else if (v >= 1e3) {
      std::snprintf(buf, sizeof buf, "%.1fus", v / 1e3);
    } else {
      std::snprintf(buf, sizeof buf, "%.0fns", v);
    }
  } else {
    std::snprintf(buf, sizeof buf, "%.0f", v);
  }
  return buf;
}

}  // namespace

std::string format_summary(const MetricsRegistry& reg,
                           const std::string& indent) {
  // Collect one line per group: counters/gauges inline, histograms and hit
  // ratios on their own lines.
  struct Line {
    std::string group;
    std::string text;
  };
  std::vector<Line> lines;
  std::string cur_group;
  std::string cur_text;
  auto flush = [&] {
    if (!cur_text.empty()) lines.push_back({cur_group, cur_text});
    cur_text.clear();
  };
  auto append_kv = [&](const std::string& group, const std::string& kv) {
    if (group != cur_group) {
      flush();
      cur_group = group;
    }
    // Wrap group lines at ~72 chars of payload.
    if (!cur_text.empty() && cur_text.size() + kv.size() + 1 > 72) flush();
    if (!cur_text.empty()) cur_text += ' ';
    cur_text += kv;
  };

  for (const auto& [name, c] : reg.counters()) {
    if (c.value() == 0) continue;
    const std::string group = group_of(name);
    append_kv(group, short_name(name, group) + "=" +
                         std::to_string(c.value()));
    // Derived hit ratio for <base>.hits / <base>.misses pairs (emit once,
    // when visiting the .hits counter — ".hits" sorts before ".misses").
    const std::string suffix = ".hits";
    if (name.size() > suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      const std::string base = name.substr(0, name.size() - suffix.size());
      const uint64_t hits = c.value();
      const uint64_t misses = reg.counter_value(base + ".misses");
      // Only derive a ratio when a .misses sibling was actually registered;
      // standalone .hits counters (e.g. rpc.server.drc.hits) have no
      // meaningful denominator.
      if (reg.counters().count(base + ".misses") && hits + misses > 0) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%s=%.1f%%",
                      (short_name(base, group) + ".hit_ratio").c_str(),
                      100.0 * static_cast<double>(hits) /
                          static_cast<double>(hits + misses));
        append_kv(group, buf);
      }
    }
  }
  for (const auto& [name, g] : reg.gauges()) {
    if (g.value() == 0 && g.max() == 0) continue;
    const std::string group = group_of(name);
    append_kv(group, short_name(name, group) + "=" +
                         std::to_string(g.value()) + "(max " +
                         std::to_string(g.max()) + ")");
  }
  flush();

  for (const auto& [name, h] : reg.histograms()) {
    if (h.count() == 0) continue;
    const std::string group = group_of(name);
    const std::string sn = short_name(name, group);
    std::string text = sn + ": n=" + std::to_string(h.count()) +
                       " mean=" + fmt_dur_or_count(name, h.mean()) +
                       " p50=" +
                       fmt_dur_or_count(
                           name, static_cast<double>(h.quantile(0.5))) +
                       " p99=" +
                       fmt_dur_or_count(
                           name, static_cast<double>(h.quantile(0.99))) +
                       " max=" +
                       fmt_dur_or_count(name,
                                        static_cast<double>(h.max()));
    lines.push_back({group, text});
  }

  // Stable-sort lines by group so counters and histograms of the same
  // subsystem sit together, preserving in-group order.
  std::stable_sort(lines.begin(), lines.end(),
                   [](const Line& a, const Line& b) { return a.group < b.group; });

  std::ostringstream os;
  for (const auto& line : lines) {
    os << indent << '[' << line.group << "] " << line.text << '\n';
  }
  return os.str();
}

}  // namespace sgfs::obs

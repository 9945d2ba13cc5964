#include "sim/resource.hpp"

namespace sgfs::sim {

Engine::SleepAwaiter Resource::use(SimDur dur, const std::string& tag) {
  if (dur < 0) dur = 0;
  if (slow_factor_) {
    const double f = slow_factor_(eng_.now());
    if (f > 1.0) dur = static_cast<SimDur>(static_cast<double>(dur) * f);
  }
  const SimTime start = std::max(eng_.now(), next_free_);
  next_free_ = start + dur;
  // Queue wait = how long this user sat behind earlier users.  Instrument
  // references are stable, so look them up once and cache.
  if (wait_hist_ == nullptr) {
    wait_hist_ = &eng_.metrics().histogram("resource." + name_ + ".wait_ns");
    uses_ = &eng_.metrics().counter("resource." + name_ + ".uses");
  }
  wait_hist_->observe(start - eng_.now());
  uses_->inc();
  account(start, dur, tag);
  return eng_.sleep_until(start + dur);
}

void Resource::charge(SimDur dur, const std::string& tag) {
  if (dur <= 0) return;
  account(eng_.now(), dur, tag);
}

SimDur Resource::busy_for(const std::string& tag) const {
  auto it = busy_by_tag_.find(tag);
  return it == busy_by_tag_.end() ? 0 : it->second;
}

void Resource::account(SimTime start, SimDur dur, const std::string& tag) {
  busy_total_ += dur;
  busy_by_tag_[tag] += dur;
  if (window_ <= 0 || dur <= 0) return;
  auto slice_into = [&](std::vector<SimDur>& bins) {
    SimTime t = start;
    SimDur left = dur;
    while (left > 0) {
      const size_t bin = static_cast<size_t>(t / window_);
      if (bins.size() <= bin) bins.resize(bin + 1, 0);
      const SimTime bin_end = static_cast<SimTime>(bin + 1) * window_;
      const SimDur piece = std::min<SimDur>(left, bin_end - t);
      bins[bin] += piece;
      t += piece;
      left -= piece;
    }
  };
  slice_into(bins_all_);
  slice_into(bins_by_tag_[tag]);
}

std::vector<double> Resource::to_fractions(const std::vector<SimDur>& bins,
                                           SimDur window, SimTime until) {
  if (window <= 0) return {};
  const size_t n =
      static_cast<size_t>((until + window - 1) / window);
  std::vector<double> out(n, 0.0);
  for (size_t i = 0; i < n && i < bins.size(); ++i) {
    out[i] = static_cast<double>(bins[i]) / static_cast<double>(window);
  }
  return out;
}

std::vector<double> Resource::utilization_series(const std::string& tag,
                                                 SimTime until) const {
  auto it = bins_by_tag_.find(tag);
  if (it == bins_by_tag_.end()) {
    return to_fractions({}, window_, until);
  }
  return to_fractions(it->second, window_, until);
}

std::vector<double> Resource::utilization_series(SimTime until) const {
  return to_fractions(bins_all_, window_, until);
}

}  // namespace sgfs::sim

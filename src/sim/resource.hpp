// FIFO-serialized resources: host CPUs and disks.
//
// A Resource models a single server (one CPU core, one disk spindle): users
// occupy it for a charged duration and queue behind earlier users.  Busy time
// is accounted per tag, and an optional fixed-window recorder produces the
// utilization time series the paper plots in Figures 5 and 6 (proxy/daemon
// CPU% sampled every 5 seconds).
#pragma once

#include <algorithm>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace sgfs::sim {

class Resource {
 public:
  Resource(Engine& eng, std::string name)
      : eng_(eng), name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// Occupies the resource for `dur`, queueing FIFO behind earlier users:
  /// books the slot now, and `co_await res.use(...)` resumes at its end.
  /// `tag` attributes the busy time (e.g. "proxy", "kernel", "app").
  Engine::SleepAwaiter use(SimDur dur, const std::string& tag = "");

  /// Accounts `dur` of busy time starting now without modelling queueing —
  /// for costs known to overlap poorly-modelled work.  Advances no clock.
  void charge(SimDur dur, const std::string& tag = "");

  SimDur busy_total() const { return busy_total_; }
  SimDur busy_for(const std::string& tag) const;

  /// Enables fixed-window utilization recording (window > 0).
  void enable_sampling(SimDur window) { window_ = window; }

  /// Gray-failure hook: a degradation multiplier queried at the start of
  /// each use().  A returned factor > 1.0 stretches the charged duration
  /// ("slow disk" / "slow CPU" windows); 1.0 — the inert default — leaves
  /// service times bit-identical to runs without the hook.  The callback
  /// must be a pure function of time (no Rng, no events).
  void set_slow_factor(std::function<double(SimTime)> fn) {
    slow_factor_ = std::move(fn);
  }

  /// Busy fraction per window for one tag, from t=0 through `until`.
  std::vector<double> utilization_series(const std::string& tag,
                                         SimTime until) const;

  /// Busy fraction per window across all tags.
  std::vector<double> utilization_series(SimTime until) const;

 private:
  void account(SimTime start, SimDur dur, const std::string& tag);
  static std::vector<double> to_fractions(const std::vector<SimDur>& bins,
                                          SimDur window, SimTime until);

  Engine& eng_;
  std::string name_;
  std::function<double(SimTime)> slow_factor_;
  obs::Histogram* wait_hist_ = nullptr;  // cached; registry refs are stable
  obs::Counter* uses_ = nullptr;
  SimTime next_free_ = 0;
  SimDur busy_total_ = 0;
  std::map<std::string, SimDur> busy_by_tag_;
  SimDur window_ = 0;
  std::map<std::string, std::vector<SimDur>> bins_by_tag_;
  std::vector<SimDur> bins_all_;
};

}  // namespace sgfs::sim

// Simulated machines.
//
// A Host models one of the paper's testbed VMs: a single-core CPU resource
// (all protocol processing on that machine queues on it) and a disk with a
// seek + transfer cost model.  The client VM additionally has a bounded page
// cache (enforced by the NFS client emulation, not here).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "sim/engine.hpp"
#include "sim/resource.hpp"

namespace sgfs::net {

/// Disk cost model: per-operation positioning cost plus transfer time.
struct DiskParams {
  sim::SimDur seek = 8 * sim::kMillisecond;
  double bytes_per_sec = 60.0 * 1024 * 1024;
};

class Disk {
 public:
  Disk(sim::Engine& eng, std::string name, DiskParams params)
      : res_(eng, std::move(name)), params_(params) {}

  /// Charges one random-access read of `bytes`.
  sim::Engine::SleepAwaiter read(size_t bytes, bool sequential = false,
                                 const std::string& tag = "disk") {
    return res_.use(op_cost(bytes, sequential), tag);
  }
  /// Charges one write of `bytes`.
  sim::Engine::SleepAwaiter write(size_t bytes, bool sequential = false,
                                  const std::string& tag = "disk") {
    return res_.use(op_cost(bytes, sequential), tag);
  }

  sim::Resource& resource() { return res_; }
  const DiskParams& params() const { return params_; }

 private:
  sim::SimDur op_cost(size_t bytes, bool sequential) const;
  sim::Resource res_;
  DiskParams params_;
};

class Network;

class Host {
 public:
  Host(sim::Engine& eng, Network& net, std::string name, DiskParams disk);

  const std::string& name() const { return name_; }
  sim::Engine& engine() { return eng_; }
  Network& network() { return net_; }
  sim::Resource& cpu() { return cpu_; }
  Disk& disk() { return disk_; }

  // --- crash/restart faults -------------------------------------------------
  //
  // A crash models the *process* dying, not the link: at the crash instant
  // every registered crash handler runs (services drop their volatile state —
  // unstable write data, DRC, session keys, proxy tables), every stream
  // touching this host is reset (both ends see StreamClosed), and for the
  // downtime window connect() to this host is refused.  Listeners survive:
  // the restarted process rebinds the same ports, so reconnects succeed once
  // the host is back up.  Entirely inert unless crash_restart() is called —
  // no events, no Rng draws, no time charges — so fault-free runs stay
  // bit-identical.

  /// Registers a volatile-state-loss handler fired at each crash instant.
  /// `owner` gates the handler: once it expires the handler is skipped and
  /// pruned, so components destroyed after the Host (e.g. programs whose
  /// last shared_ptr lives in a coroutine frame torn down with the Engine)
  /// never need to call back into it.  Returns an id for
  /// remove_crash_handler(), for components that want earlier removal.
  uint64_t add_crash_handler(std::weak_ptr<const void> owner,
                             std::function<void()> fn);
  void remove_crash_handler(uint64_t id);

  /// Schedules a crash at absolute time `at`, followed by `downtime` during
  /// which the host is down (streams reset, connections refused), then a
  /// restart.  Overlapping schedules nest: the host is up again only when
  /// every scheduled downtime has elapsed.
  void crash_restart(sim::SimTime at,
                     sim::SimDur downtime = 100 * sim::kMillisecond);

  bool is_down() const { return down_count_ > 0; }
  uint64_t crashes() const { return crashes_; }

 private:
  sim::Task<void> crash_task(sim::SimTime at, sim::SimDur downtime);

  sim::Engine& eng_;
  Network& net_;
  std::string name_;
  sim::Resource cpu_;
  Disk disk_;
  struct CrashHandler {
    std::weak_ptr<const void> owner;
    std::function<void()> fn;

    CrashHandler() {}
    CrashHandler(std::weak_ptr<const void> o, std::function<void()> f)
        : owner(std::move(o)), fn(std::move(f)) {}
  };
  std::map<uint64_t, CrashHandler> crash_handlers_;
  uint64_t next_handler_id_ = 1;
  int down_count_ = 0;
  uint64_t crashes_ = 0;
};

}  // namespace sgfs::net

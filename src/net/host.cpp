#include "net/host.hpp"

#include <vector>

#include "net/fault.hpp"
#include "net/network.hpp"

namespace sgfs::net {

sim::SimDur Disk::op_cost(size_t bytes, bool sequential) const {
  const sim::SimDur transfer = static_cast<sim::SimDur>(
      static_cast<double>(bytes) / params_.bytes_per_sec *
      static_cast<double>(sim::kSecond));
  return (sequential ? 0 : params_.seek) + transfer;
}

Host::Host(sim::Engine& eng, Network& net, std::string name, DiskParams disk)
    : eng_(eng),
      net_(net),
      name_(std::move(name)),
      cpu_(eng, name_ + ".cpu"),
      disk_(eng, name_ + ".disk", disk) {
  // Gray-failure hook-up: slow-CPU / slow-disk degradation windows live in
  // the network's FaultPlan (scheduled, seeded, metrics-mirrored); each
  // resource asks for its factor at use time.  With no plan installed — or
  // no active window — the factor is 1.0 and service times are untouched.
  cpu_.set_slow_factor([this](sim::SimTime t) {
    FaultPlan* plan = net_.fault_plan();
    return plan ? plan->cpu_factor(name_, t) : 1.0;
  });
  disk_.resource().set_slow_factor([this](sim::SimTime t) {
    FaultPlan* plan = net_.fault_plan();
    return plan ? plan->disk_factor(name_, t) : 1.0;
  });
}

uint64_t Host::add_crash_handler(std::weak_ptr<const void> owner,
                                 std::function<void()> fn) {
  const uint64_t id = next_handler_id_++;
  crash_handlers_.emplace(id, CrashHandler(std::move(owner), std::move(fn)));
  return id;
}

void Host::remove_crash_handler(uint64_t id) { crash_handlers_.erase(id); }

void Host::crash_restart(sim::SimTime at, sim::SimDur downtime) {
  eng_.spawn(crash_task(at, downtime));
}

sim::Task<void> Host::crash_task(sim::SimTime at, sim::SimDur downtime) {
  co_await eng_.sleep_until(at);
  ++down_count_;
  ++crashes_;
  eng_.metrics().counter("net.host.crashes").inc();
  // Prune handlers whose owner died, then run the survivors on a copy: a
  // handler must be able to deregister itself (or tear down a component
  // that deregisters others) without invalidating the iteration.  The
  // owners stay pinned for the duration of the pass.
  std::vector<std::pair<std::shared_ptr<const void>, std::function<void()>>>
      handlers;
  handlers.reserve(crash_handlers_.size());
  for (auto it = crash_handlers_.begin(); it != crash_handlers_.end();) {
    if (auto owner = it->second.owner.lock()) {
      handlers.emplace_back(std::move(owner), it->second.fn);
      ++it;
    } else {
      it = crash_handlers_.erase(it);
    }
  }
  for (auto& [owner, fn] : handlers) fn();
  net_.reset_host_streams(name_);
  co_await eng_.sleep(downtime);
  --down_count_;
}

}  // namespace sgfs::net

#include "sgfs/session.hpp"

#include <sstream>

namespace sgfs::core {

sim::Task<void> ProxyCostModel::charge_message(sim::Resource& cpu,
                                               size_t bytes) const {
  co_await cpu.use(msg_cost(bytes), "proxy");
  if (overlapped_bytes_per_sec > 0) {
    cpu.charge(sim::from_seconds(bytes / overlapped_bytes_per_sec), "proxy");
  }
}

void apply_config_text(const Config& cfg, CacheConfig& cache,
                       crypto::SecurityConfig& security) {
  security.cipher = crypto::cipher_from_string(
      cfg.get_or("security", "cipher", crypto::to_string(security.cipher)));
  security.mac = crypto::mac_from_string(
      cfg.get_or("security", "mac", crypto::to_string(security.mac)));
  security.renegotiate_interval =
      cfg.get_int("security", "renegotiate_s",
                  security.renegotiate_interval / sim::kSecond) *
      sim::kSecond;

  cache.enabled = cfg.get_bool("cache", "enabled", cache.enabled);
  cache.block_size = static_cast<size_t>(
      cfg.get_int("cache", "block_kb", cache.block_size / 1024) * 1024);
  cache.capacity_bytes = static_cast<uint64_t>(cfg.get_int(
                             "cache", "size_mb",
                             cache.capacity_bytes / (1024 * 1024))) *
                         1024 * 1024;
  cache.write_back =
      cfg.get_or("cache", "write_policy",
                 cache.write_back ? "writeback" : "writethrough") ==
      "writeback";
  cache.cache_attrs = cfg.get_bool("cache", "attrs", cache.cache_attrs);
  cache.cache_names = cfg.get_bool("cache", "names", cache.cache_names);
  cache.cache_dirs = cfg.get_bool("cache", "dirs", cache.cache_dirs);
  const std::string consistency = cfg.get_or(
      "cache", "consistency",
      cache.consistency == Consistency::kSessionExclusive ? "exclusive"
                                                          : "revalidate");
  cache.consistency = consistency == "exclusive"
                          ? Consistency::kSessionExclusive
                          : Consistency::kRevalidate;
  cache.attr_ttl =
      cfg.get_int("cache", "attr_ttl_s", cache.attr_ttl / sim::kSecond) *
      sim::kSecond;
  cache.encryption = cfg.get_bool("cache", "encryption", cache.encryption);
  cache.poison_burst = static_cast<int>(
      cfg.get_int("cache", "poison_burst", cache.poison_burst));
  cache.poison_window =
      cfg.get_int("cache", "poison_window_ms",
                  cache.poison_window / sim::kMillisecond) *
      sim::kMillisecond;
  cache.bypass_duration =
      cfg.get_int("cache", "bypass_ms",
                  cache.bypass_duration / sim::kMillisecond) *
      sim::kMillisecond;
}

std::string to_config_text(const CacheConfig& cache,
                           const crypto::SecurityConfig& security) {
  std::ostringstream out;
  out << "[security]\n";
  out << "cipher = " << crypto::to_string(security.cipher) << "\n";
  out << "mac = " << crypto::to_string(security.mac) << "\n";
  out << "renegotiate_s = " << security.renegotiate_interval / sim::kSecond
      << "\n";
  out << "\n[cache]\n";
  out << "enabled = " << (cache.enabled ? "true" : "false") << "\n";
  out << "block_kb = " << cache.block_size / 1024 << "\n";
  out << "size_mb = " << cache.capacity_bytes / (1024 * 1024) << "\n";
  out << "write_policy = "
      << (cache.write_back ? "writeback" : "writethrough") << "\n";
  out << "attrs = " << (cache.cache_attrs ? "true" : "false") << "\n";
  out << "names = " << (cache.cache_names ? "true" : "false") << "\n";
  out << "dirs = " << (cache.cache_dirs ? "true" : "false") << "\n";
  out << "consistency = "
      << (cache.consistency == Consistency::kSessionExclusive ? "exclusive"
                                                              : "revalidate")
      << "\n";
  out << "attr_ttl_s = " << cache.attr_ttl / sim::kSecond << "\n";
  out << "encryption = " << (cache.encryption ? "true" : "false") << "\n";
  out << "poison_burst = " << cache.poison_burst << "\n";
  out << "poison_window_ms = " << cache.poison_window / sim::kMillisecond
      << "\n";
  out << "bypass_ms = " << cache.bypass_duration / sim::kMillisecond << "\n";
  return out.str();
}

}  // namespace sgfs::core

#include "fleet/kit.hpp"

#include <algorithm>
#include <stdexcept>

#include "rpc/retry.hpp"
#include "rpc/rpc_client.hpp"

namespace sgfs::fleet {

void RunResult::finish(const sim::Engine& eng,
                       std::chrono::steady_clock::time_point wall_start) {
  sim_seconds = sim::to_seconds(eng.now());
  events = eng.events_processed();
  actors = eng.actors_spawned();
  sim_errors = eng.errors().size();
  metrics = eng.metrics().flat_snapshot();
  wall_seconds = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - wall_start)
                     .count();
}

uint64_t RunResult::digest(
    std::initializer_list<uint64_t> counts,
    std::initializer_list<const std::vector<uint64_t>*> series) const {
  uint64_t h = 14695981039346656037ull;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((v >> (8 * i)) & 0xff)) * 1099511628211ull;
    }
  };
  for (uint64_t v : counts) mix(v);
  for (const std::vector<uint64_t>* s : series) {
    mix(static_cast<uint64_t>(s->size()));
    for (uint64_t v : *s) mix(v);
  }
  mix(static_cast<uint64_t>(sim_seconds * 1e9));
  mix(events);
  mix(actors);
  mix(sim_errors);
  return h;
}

double WindowResult::mean_goodput(size_t from, size_t to) const {
  from = std::min(from, bucket_ok.size());
  to = std::min(to, bucket_ok.size());
  if (to <= from) return 0;
  uint64_t sum = 0;
  for (size_t i = from; i < to; ++i) sum += bucket_ok[i];
  return static_cast<double>(sum) / static_cast<double>(to - from);
}

namespace kit {

vfs::FileId add_owned_file(vfs::FileSystem& fs, const std::string& dir,
                           const std::string& name, ByteView body) {
  const vfs::Cred root(0, 0);
  vfs::SetAttrs chown;
  chown.uid = kUid;
  chown.gid = kUid;
  fs.setattr(root, fs.mkdir_p(root, dir, 0755).value, chown);
  const vfs::FileId file = fs.write_file(root, dir + "/" + name, body).value;
  fs.setattr(root, file, chown);
  return file;
}

Pki::Pki(uint64_t seed, const std::string& ca_name)
    : rng(seed ^ 0x9e3779b97f4a7c15ull),
      ca(rng, crypto::DistinguishedName("Grid", ca_name), 0, 1ll << 40),
      trusted{ca.root()} {}

crypto::Credential Pki::issue(const std::string& cn, crypto::CertType type) {
  return ca.issue(rng, crypto::DistinguishedName("Grid", cn), type, 0,
                  1ll << 40);
}

FileServer::FileServer(net::Host& h, std::shared_ptr<vfs::FileSystem> fs,
                       core::ServerProxyConfig cfg, Rng rng)
    : host(h),
      kernel(std::make_shared<nfs::Nfs3Server>(h, fs, 1,
                                               nfs::ServerCostModel())),
      kernel_rpc(std::make_unique<rpc::RpcServer>(h, kNfsPort)) {
  kernel->add_export(nfs::ExportEntry("/GFS", std::set<std::string>{h.name()}));
  kernel_rpc->register_program(nfs::kNfsProgram, nfs::kNfsVersion3, kernel);
  kernel_rpc->register_program(nfs::kMountProgram, nfs::kMountVersion3,
                               kernel->mount_program());
  kernel_rpc->start();
  cfg.kernel_nfs = net::Address(h.name(), kNfsPort);
  cfg.accounts.add(core::Account("grid", kUid, kUid));
  proxy = std::make_shared<core::ServerProxy>(
      h, cfg, cfg.fine_grained_acls ? fs : nullptr, rng);
  proxy->start(kProxyPort);
}

ProxiedClient::ProxiedClient(net::Host& h, core::ClientProxyConfig cfg,
                             Rng rng)
    : host(h),
      proxy(std::make_shared<core::ClientProxy>(h, std::move(cfg), rng)) {
  proxy->start(kNfsPort);
}

std::shared_ptr<services::FileSystemService> start_fss(
    net::Network& net, const crypto::Credential& cred, const Pki& pki,
    std::vector<std::string> controllers, Rng rng) {
  auto fss = std::make_shared<services::FileSystemService>(
      net.add_host(kFss.host), cred, pki.trusted, std::move(controllers),
      nullptr, net::Address(), std::move(rng));
  fss->start(kFss.port);
  return fss;
}

sim::Task<services::Envelope> fss_call(net::Host& from,
                                       std::vector<FssRequest> requests) {
  auto client = co_await rpc::clnt_create(from, kFss, services::kFssProgram,
                                          services::kFssVersion);
  BufChain reply;
  for (auto& [proc, body] : requests) {
    reply = co_await client->call(static_cast<uint32_t>(proc),
                                  std::move(body));
  }
  client->close();
  Buffer scratch;
  co_return services::Envelope::deserialize(linearize(reply, scratch));
}

sim::Task<void> fss_publish(net::Host& ctrl, const crypto::Credential& cred,
                            services::ServiceProc proc, const char* action,
                            const char* key, std::string value) {
  const auto now_s = static_cast<int64_t>(ctrl.engine().now() / sim::kSecond);
  std::vector<FssRequest> put{
      {proc, services::sign_envelope(action, {{key, value}}, cred, now_s)
                 .serialize()}};
  const services::Envelope back = co_await fss_call(ctrl, std::move(put));
  if (back.action != action + std::string("Response")) {
    throw std::runtime_error(action + (" rejected: " + back.action));
  }
}

void Window::open(double warmup_s, double window_s) {
  t0 = eng_.now();
  const sim::SimDur warmup = sim::from_seconds(warmup_s);
  start = t0 + warmup;
  end = start + sim::from_seconds(window_s);
  res_.win_start_bucket = static_cast<size_t>(warmup / sim::kSecond);
  res_.win_end_bucket = static_cast<size_t>((end - t0) / sim::kSecond);
  res_.bucket_ok.assign(res_.win_end_bucket + 1, 0);
}

sim::Task<std::optional<sim::SimTime>> Window::op(
    nfs::V3WireOps& ops, nfs::Fh fh, Rng& rng, uint64_t getattr_pct,
    uint64_t read_pct, const BufChain& payload) {
  const sim::SimTime arrival = eng_.now();
  const uint64_t pick = rng.next_below(100);
  const uint64_t off =
      pick < getattr_pct ? 0 : kIoBytes * rng.next_below(kFileBlocks);
  nfs::Status status;
  if (pick < getattr_pct) {
    status = (co_await ops.getattr(fh)).status;
  } else if (pick < read_pct) {
    status = (co_await ops.read(fh, off, kIoBytes)).status;
  } else {
    status = (co_await ops.write(fh, off, nfs::StableHow::kFileSync, payload))
                 .status;
  }
  const bool inside = contains(arrival);
  if (status != nfs::Status::kOk) {
    if (inside) ++(status == nfs::Status::kJukebox ? res_.busy : res_.errors);
    co_return std::nullopt;
  }
  const auto b = static_cast<size_t>((arrival - t0) / sim::kSecond);
  if (b < res_.bucket_ok.size()) ++res_.bucket_ok[b];
  if (inside) ++res_.ok;
  co_return arrival;
}

bool Window::count_failure(const std::exception& e) {
  const bool timeout = dynamic_cast<const rpc::RpcTimeout*>(&e) != nullptr;
  if (contains(eng_.now())) ++(timeout ? res_.giveups : res_.errors);
  return timeout;
}

sim::Task<void> Window::drain(size_t n) {
  co_await eng_.sleep_until(end);
  while (done < n) co_await eng_.sleep(50 * sim::kMillisecond);
}

}  // namespace kit
}  // namespace sgfs::fleet

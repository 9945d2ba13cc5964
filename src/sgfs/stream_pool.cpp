#include "sgfs/stream_pool.hpp"

#include "common/log.hpp"
#include "rpc/transport.hpp"

namespace sgfs::core {

using nfs::Proc3;
using nfs::Status;

StreamPool::StreamPool(net::Host& host, const ClientProxyConfig& config,
                       SessionManager& session, Rng& rng)
    : host_(host), config_(config), session_(session), rng_(rng) {
  auto& m = host.engine().metrics();
  m_striped_reads_ = {m, "sgfs.pool.striped_reads"};
  m_striped_bytes_ = {m, "sgfs.pool.striped_bytes"};
  m_chunks_ = {m, "sgfs.pool.chunks"};
  m_failovers_ = {m, "sgfs.pool.failovers"};
  m_aborted_ = {m, "sgfs.pool.aborted"};
  m_resumed_ = {m, "sgfs.pool.resumed_streams"};
  m_fallback_handshakes_ = {m, "sgfs.pool.fallback_handshakes"};
  m_batches_ = {m, "sgfs.pool.batches"};
  m_batch_bytes_ = {m, "sgfs.pool.batch_bytes"};
}

void StreamPool::update_streams_gauge() {
  host_.engine().metrics().gauge("sgfs.pool.streams")
      .set(static_cast<int64_t>(live_streams()));
}

size_t StreamPool::live_streams() const {
  size_t live = 1;  // the primary
  for (size_t i = 1; i < slots_.size(); ++i) {
    if (slots_[i].client) ++live;
  }
  return live;
}

sim::Task<void> StreamPool::ensure_streams(rpc::RpcClient& primary) {
  if (config_.pool.streams <= 1) co_return;
  if (slots_.empty()) {
    slots_.resize(static_cast<size_t>(config_.pool.streams));
    for (size_t i = 0; i < slots_.size(); ++i) {
      slots_[i].bytes = {host_.engine().metrics(),
                         "sgfs.pool.stream" + std::to_string(i) + ".bytes"};
    }
  }
  for (size_t i = 1; i < slots_.size(); ++i) {
    if (slots_[i].client) continue;
    try {
      bool resumed = false;
      std::unique_ptr<rpc::RpcClient> c =
          co_await session_.establish_stream(primary, nfs::kNfsProgram,
                                             nfs::kNfsVersion3,
                                             static_cast<uint32_t>(i),
                                             &resumed);
      if (!config_.plain_transport) {
        if (resumed) {
          m_resumed_.inc();
        } else {
          // The server forgot the session (a restart wiped its ticket
          // cache): the SessionManager paid a full handshake rather than
          // fail the pool open.
          m_fallback_handshakes_.inc();
        }
      }
      c->set_retry(config_.retry);
      slots_[i].client = std::move(c);
    } catch (const std::exception& e) {
      SGFS_WARN("sgfs-pool", "stream ", i, " setup failed: ", e.what());
      break;  // degrade to however many streams came up
    }
  }
  update_streams_gauge();
}

void StreamPool::reset() {
  for (size_t i = 1; i < slots_.size(); ++i) {
    if (slots_[i].client) {
      slots_[i].client->close();
      slots_[i].client.reset();
    }
  }
  if (!slots_.empty()) update_streams_gauge();
}

void StreamPool::kill_stream(size_t index) {
  if (index == 0 || index >= slots_.size() || !slots_[index].client) return;
  // Abrupt close: in-flight calls on this stream throw StreamClosed and
  // fail over; the slot is reaped by note_stream_failure.
  slots_[index].client->close();
}

void StreamPool::corrupt_stream(size_t index) {
  if (index == 0 || index >= slots_.size() || !slots_[index].client) return;
  auto* secure = dynamic_cast<rpc::SecureTransport*>(
      &slots_[index].client->transport());
  if (secure) secure->channel().corrupt_next_record();
}

void StreamPool::set_stream_delay(size_t index, sim::SimDur delay) {
  if (index >= slots_.size()) return;
  slots_[index].delay = delay;
}

rpc::RpcClient* StreamPool::slot_client(rpc::RpcClient& primary,
                                        size_t slot) {
  if (slot == 0) return primary_dead_ ? nullptr : &primary;
  return slots_[slot].client.get();
}

bool StreamPool::note_stream_failure(std::shared_ptr<Job> job, size_t slot) {
  if (slot == 0) {
    // The primary belongs to the proxy; mark it unusable for this transfer
    // and let the proxy's reconnect machinery recover it afterwards.
    primary_dead_ = true;
  } else if (slots_[slot].client) {
    slots_[slot].client->close();
    slots_[slot].client.reset();
  }
  update_streams_gauge();
  if (!config_.pool.failover) {
    job->aborted = true;
    m_aborted_.inc();
    return false;
  }
  bool survivors = !primary_dead_;
  for (size_t i = 1; i < slots_.size(); ++i) {
    if (slots_[i].client) survivors = true;
  }
  if (survivors) m_failovers_.inc();
  return survivors;
}

size_t StreamPool::chunk_len(const ReadJob& job, size_t idx) const {
  const uint64_t begin = static_cast<uint64_t>(idx) * job.chunk;
  return static_cast<size_t>(
      std::min<uint64_t>(job.chunk, job.total - begin));
}

template <typename JobT>
sim::Task<void> StreamPool::run_rounds(
    std::shared_ptr<JobT> job, rpc::RpcClient& primary,
    sim::Task<void> (StreamPool::*worker)(std::shared_ptr<JobT>,
                                          rpc::RpcClient*, size_t)) {
  // Each round spawns one worker per usable stream; workers pull chunk
  // indices from the shared queue until it drains or their stream dies
  // (the dead worker re-queues its chunk first).  A fresh round picks up
  // re-queued work on the survivors.
  for (;;) {
    if (job->queue.empty() || job->aborted || job->error) co_return;
    std::vector<size_t> usable;
    if (!primary_dead_) usable.push_back(0);
    for (size_t i = 1; i < slots_.size(); ++i) {
      if (slots_[i].client) usable.push_back(i);
    }
    if (usable.empty()) co_return;  // caller inspects the leftover queue
    job->done.reset();
    job->workers = static_cast<int>(usable.size());
    for (size_t slot : usable) {
      host_.engine().spawn((this->*worker)(job, &primary, slot));
    }
    co_await job->done.wait();
  }
}

sim::Task<void> StreamPool::read_worker(std::shared_ptr<ReadJob> job,
                                        rpc::RpcClient* primary,
                                        size_t slot) {
  auto& metrics = host_.engine().metrics();
  while (!job->aborted && !job->error && !job->queue.empty()) {
    const size_t idx = job->queue.front();
    job->queue.pop_front();
    rpc::RpcClient* client = slot_client(*primary, slot);
    if (!client) {
      job->queue.push_front(idx);
      break;
    }
    try {
      if (slots_[slot].delay > 0) {
        co_await host_.engine().sleep(slots_[slot].delay);
      }
      if (job->auth) {
        client->set_auth(*job->auth);
      } else {
        client->clear_auth();
      }
      const nfs::ReadArgs args(job->fh, job->offset + idx * job->chunk,
                               static_cast<uint32_t>(chunk_len(*job, idx)));
      BufChain reply = co_await client->call(
          static_cast<uint32_t>(Proc3::kRead), xdr::encode(args));
      // Same per-reply processing charge the single-stream forward path
      // pays; concurrent workers serialize on the host CPU resource.
      co_await host_.cpu().use(config_.cost.msg_cost(reply.size()), "proxy");
      auto res = xdr::decode<nfs::ReadRes>(reply);
      if (res.status != Status::kOk) {
        if (!job->error) {
          job->error = std::make_exception_ptr(std::runtime_error(
              std::string("stream pool: chunk READ status ") +
              vfs::to_string(res.status)));
        }
        break;
      }
      m_chunks_.inc();
      m_striped_bytes_.inc(res.count);
      slots_[slot].bytes.inc(res.count);
      job->results[idx].emplace(std::move(res));
      ++job->completed;
      metrics.gauge("sgfs.pool.reassembly_depth")
          .set(static_cast<int64_t>(job->completed - job->next_append));
      // Advance the strictly-in-order reassembly frontier: every chunk is
      // appended exactly once, in offset order — no duplication and no
      // reordering by construction.
      while (job->next_append < job->results.size() &&
             job->results[job->next_append]) {
        auto& r = *job->results[job->next_append];
        if (!job->eof) {
          if (r.post_attrs) job->attrs = r.post_attrs;
          const size_t want = chunk_len(*job, job->next_append);
          job->assembled.append(std::move(r.data));
          if (r.eof || r.count < want) job->eof = true;
        }
        ++job->next_append;
      }
      metrics.gauge("sgfs.pool.reassembly_depth")
          .set(static_cast<int64_t>(job->completed - job->next_append));
    } catch (const rpc::RpcTimeout&) {
      job->queue.push_front(idx);
      note_stream_failure(job, slot);
      break;
    } catch (const crypto::SecurityError&) {
      job->queue.push_front(idx);
      note_stream_failure(job, slot);
      break;
    } catch (const net::StreamClosed&) {
      job->queue.push_front(idx);
      note_stream_failure(job, slot);
      break;
    }
  }
  if (--job->workers == 0) job->done.set();
}

sim::Task<StreamPool::StripedRead> StreamPool::read_striped(
    rpc::RpcClient& primary, const nfs::Fh& fh, uint64_t offset, size_t count,
    const std::optional<rpc::AuthSys>& auth) {
  const size_t chunk = std::max<size_t>(config_.pool.chunk_bytes, 1);
  const size_t nchunks = (count + chunk - 1) / chunk;
  auto job = std::make_shared<ReadJob>(host_.engine());
  job->fh = fh;
  job->offset = offset;
  job->chunk = chunk;
  job->total = count;
  job->auth = auth;
  job->results.resize(nchunks);
  for (size_t i = 0; i < nchunks; ++i) job->queue.push_back(i);
  m_striped_reads_.inc();
  primary_dead_ = false;
  co_await run_rounds(job, primary, &StreamPool::read_worker);
  if (job->error) std::rethrow_exception(job->error);
  if (job->aborted) {
    throw std::runtime_error("stream pool: striped read aborted");
  }
  if (job->next_append < nchunks) {
    throw std::runtime_error("stream pool: no surviving streams");
  }
  StripedRead out;
  out.data = std::move(job->assembled);
  out.post_attrs = job->attrs;
  out.eof = job->eof;
  co_return out;
}

sim::Task<void> StreamPool::write_worker(std::shared_ptr<WriteJob> job,
                                         rpc::RpcClient* primary,
                                         size_t slot) {
  while (!job->aborted && !job->queue.empty()) {
    const size_t idx = job->queue.front();
    job->queue.pop_front();
    rpc::RpcClient* client = slot_client(*primary, slot);
    if (!client) {
      job->queue.push_front(idx);
      break;
    }
    const WriteBatch& batch = (*job->batches)[idx];
    try {
      if (slots_[slot].delay > 0) {
        co_await host_.engine().sleep(slots_[slot].delay);
      }
      if (job->auth) {
        client->set_auth(*job->auth);
      } else {
        client->clear_auth();
      }
      // The payload is a refcounted alias of the batch, no copy.
      const nfs::WriteArgs wargs(batch.fh, batch.offset,
                                 nfs::StableHow::kUnstable, batch.data);
      BufChain reply = co_await client->call(
          static_cast<uint32_t>(Proc3::kWrite), xdr::encode(wargs));
      co_await host_.cpu().use(config_.cost.msg_cost(reply.size()), "proxy");
      job->results[idx].res.emplace(xdr::decode<nfs::WriteRes>(reply));
      job->results[idx].ok = true;
      m_batch_bytes_.inc(batch.data.size());
      slots_[slot].bytes.inc(batch.data.size());
    } catch (const rpc::RpcTimeout&) {
      job->queue.push_front(idx);
      note_stream_failure(job, slot);
      break;
    } catch (const crypto::SecurityError&) {
      job->queue.push_front(idx);
      note_stream_failure(job, slot);
      break;
    } catch (const net::StreamClosed&) {
      job->queue.push_front(idx);
      note_stream_failure(job, slot);
      break;
    }
  }
  if (--job->workers == 0) job->done.set();
}

sim::Task<std::vector<StreamPool::BatchResult>> StreamPool::write_batches(
    rpc::RpcClient& primary, const std::vector<WriteBatch>& batches,
    const std::optional<rpc::AuthSys>& auth) {
  auto job = std::make_shared<WriteJob>(host_.engine());
  job->batches = &batches;
  job->auth = auth;
  job->results.resize(batches.size());
  for (size_t i = 0; i < batches.size(); ++i) job->queue.push_back(i);
  m_batches_.inc(batches.size());
  primary_dead_ = false;
  co_await run_rounds(job, primary, &StreamPool::write_worker);
  // Undelivered batches (aborted, or the whole pool died) come back with
  // ok == false; the caller re-sends them on its reconnecting primary
  // path, so a flush epoch always completes.
  co_return std::move(job->results);
}

}  // namespace sgfs::core

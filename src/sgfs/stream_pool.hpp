// WAN stream pool (DotDFS-style parallel secure streams, ROADMAP item 4).
//
// The client proxy's bulk transfers are latency-bound on one secure
// channel: a striped pool of K channels of the SAME session turns them
// bandwidth-bound.  Stream 0 is the proxy's primary upstream connection
// (metadata and small ops stay there untouched); streams 1..K-1 are opened
// by an abbreviated resumed handshake — per-stream keys derived from the
// primary's one RSA exchange — against the server proxy's main port, whose
// unified listener dispatches full vs resumed flows by the first message's
// magic.  Establishment itself is delegated to the SessionManager.
//
//   - read_striped() fans fixed-size chunk READs over the pool and
//     reassembles them strictly in offset order (zero-copy BufChain
//     splice of the reply payloads);
//   - write_batches() pipelines coalesced UNSTABLE WRITE batches across
//     the pool; the caller owns the single COMMIT barrier per flush epoch
//     and the verifier bookkeeping;
//   - a dead stream's outstanding chunk fails over to the survivors
//     (READ/UNSTABLE WRITE are idempotent, so a fresh xid resend is
//     safe); with failover disabled the striped transfer aborts and the
//     proxy degrades to the plain single-stream path.
//
// The pool is inert unless config.pool.streams > 1: the proxy then never
// constructs one, so K=1 runs are bit-identical to the pre-pool build.
#pragma once

#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "nfs/nfs3.hpp"
#include "rpc/rpc_client.hpp"
#include "sgfs/session.hpp"
#include "sgfs/session_manager.hpp"
#include "sim/engine.hpp"

namespace sgfs::core {

class StreamPool {
 public:
  StreamPool(net::Host& host, const ClientProxyConfig& config,
             SessionManager& session, Rng& rng);

  /// Opens any missing pool streams (1..K-1) by resuming the primary
  /// channel's session (via the SessionManager); falls back to a full
  /// handshake when the server forgot the ticket (restart), and degrades
  /// to fewer streams when even that fails.  No-op for streams the pool
  /// already holds open.
  sim::Task<void> ensure_streams(rpc::RpcClient& primary);

  /// Drops every pool stream (session re-establishment: the tickets died
  /// with the old primary channel).
  void reset();

  struct StripedRead {
    BufChain data;
    std::optional<vfs::Attributes> post_attrs;
    bool eof = false;

    StripedRead() = default;
  };
  /// Fans chunk READs for [offset, offset + count) across the pool (the
  /// primary serves stripe chunks too) and returns the in-order
  /// reassembled bytes.  Short data = EOF.  Throws when striping cannot
  /// complete (no survivors, failover disabled, or an NFS error status) —
  /// the caller falls back to the single-stream path.
  sim::Task<StripedRead> read_striped(
      rpc::RpcClient& primary, const nfs::Fh& fh, uint64_t offset,
      size_t count, const std::optional<rpc::AuthSys>& auth);

  /// One coalesced run of adjacent dirty blocks, sent as a single
  /// UNSTABLE WRITE.
  struct WriteBatch {
    nfs::Fh fh;
    uint64_t offset = 0;
    BufChain data;

    WriteBatch() = default;
  };
  struct BatchResult {
    std::optional<nfs::WriteRes> res;  // nullopt: send it yourself
    bool ok = false;

    BatchResult() = default;
  };
  /// Pipelines the batches across the pool streams; results are returned
  /// in batch order.  Batches that could not be delivered (stream deaths
  /// exhausted the pool) come back with ok == false and res == nullopt —
  /// the caller re-sends those through its reconnecting primary path.
  /// Never throws for per-stream failures.
  sim::Task<std::vector<BatchResult>> write_batches(
      rpc::RpcClient& primary, const std::vector<WriteBatch>& batches,
      const std::optional<rpc::AuthSys>& auth);

  // --- fault-injection seams (chaos tests) --------------------------------
  /// Closes pool stream `index` (1..K-1) mid-flight: in-flight calls on it
  /// throw and fail over.
  void kill_stream(size_t index);
  /// Flips a bit in the next record of pool stream `index`: the server
  /// MAC-rejects it and fails that channel closed (sibling streams keep
  /// their own keys and stay healthy).
  void corrupt_stream(size_t index);
  /// Adds a fixed delay before every chunk sent on pool stream `index`
  /// (slow-stream gray failure).
  void set_stream_delay(size_t index, sim::SimDur delay);

  /// Usable streams right now: open pool streams + the primary.
  size_t live_streams() const;

 private:
  struct Slot {
    std::unique_ptr<rpc::RpcClient> client;  // null for slot 0 (primary)
    sim::SimDur delay = 0;
    obs::CounterHandle bytes;

    Slot() = default;
  };

  // Shared per-transfer state; lives on the heap because worker coroutines
  // outlive the spawning frame's locals between co_awaits.
  struct Job {
    std::deque<size_t> queue;  // indices still to send
    bool aborted = false;      // failover disabled + stream died
    std::exception_ptr error;  // first NFS/status failure
    int workers = 0;
    sim::SimEvent done;

    explicit Job(sim::Engine& eng) : done(eng) {}
  };

  struct ReadJob : Job {
    nfs::Fh fh;
    uint64_t offset = 0;
    size_t chunk = 0;
    size_t total = 0;  // requested byte count
    std::optional<rpc::AuthSys> auth;
    std::vector<std::optional<nfs::ReadRes>> results;
    size_t completed = 0;
    size_t next_append = 0;  // reassembly frontier (chunk index)
    BufChain assembled;
    std::optional<vfs::Attributes> attrs;
    bool eof = false;

    explicit ReadJob(sim::Engine& eng) : Job(eng) {}
  };

  struct WriteJob : Job {
    const std::vector<WriteBatch>* batches = nullptr;
    std::optional<rpc::AuthSys> auth;
    std::vector<BatchResult> results;

    explicit WriteJob(sim::Engine& eng) : Job(eng) {}
  };

  size_t chunk_len(const ReadJob& job, size_t idx) const;
  /// The client a worker slot uses: primary for slot 0, the owned pool
  /// stream otherwise (null if that stream is closed).
  rpc::RpcClient* slot_client(rpc::RpcClient& primary, size_t slot);
  /// Marks a pool stream dead after an in-flight failure; returns true
  /// when the job should continue on the survivors.
  bool note_stream_failure(std::shared_ptr<Job> job, size_t slot);
  void update_streams_gauge();

  sim::Task<void> read_worker(std::shared_ptr<ReadJob> job,
                              rpc::RpcClient* primary, size_t slot);
  sim::Task<void> write_worker(std::shared_ptr<WriteJob> job,
                               rpc::RpcClient* primary, size_t slot);
  /// Runs worker rounds until the queue drains, the job aborts, or no
  /// stream (pool or primary) survives.  `primary_dead` tracks a primary
  /// failure within this transfer only — the proxy owns its recovery.
  template <typename JobT>
  sim::Task<void> run_rounds(std::shared_ptr<JobT> job,
                             rpc::RpcClient& primary,
                             sim::Task<void> (StreamPool::*worker)(
                                 std::shared_ptr<JobT>, rpc::RpcClient*,
                                 size_t));

  net::Host& host_;
  const ClientProxyConfig& config_;
  SessionManager& session_;
  Rng& rng_;
  std::vector<Slot> slots_;  // index 0 reserved for the primary
  bool primary_dead_ = false;

  obs::CounterHandle m_striped_reads_, m_striped_bytes_, m_chunks_;
  obs::CounterHandle m_failovers_, m_aborted_, m_resumed_;
  obs::CounterHandle m_fallback_handshakes_, m_batches_, m_batch_bytes_;
};

}  // namespace sgfs::core

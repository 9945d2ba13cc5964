// Kernel NFS client emulation + POSIX-style MountPoint API.
//
// Reproduces the caching behaviour the paper's analysis depends on (§6.1):
//   - a page cache of 32KB blocks bounded by the client VM's memory
//     (256 MB in the paper) with LRU replacement — which is exactly why the
//     512 MB IOzone file defeats it;
//   - sequential read-ahead (kernel clients pipeline READs; the user-level
//     proxies in src/sgfs serialize them, which is the measured overhead);
//   - write-behind: dirty blocks absorb writes, go out as UNSTABLE WRITEs,
//     and a COMMIT lands at close/fsync;
//   - attribute caching with [ac_min, ac_max] adaptive TTLs and a name
//     (dnlc) cache, both refreshed by post-op attributes;
//   - close-to-open consistency: revalidation GETATTR at open, flush at
//     close, cached data invalidated when the server mtime moved.
//
// The cache logic is protocol-agnostic: plug a V3WireOps (NFSv3 RPCs) or a
// V4WireOps (NFSv4-lite COMPOUNDs) underneath.  Workloads talk to
// MountPoint (open/read/write/stat/...), never to RPC.
#pragma once

#include <array>
#include <map>
#include <memory>
#include <set>

#include "nfs/block_cache.hpp"
#include "nfs/nfs3.hpp"
#include "nfs/wire_ops.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"

namespace sgfs::nfs {

struct Nfs3ClientConfig {
  size_t block_size = 32 * 1024;          // rsize/wsize (paper: 32KB)
  uint64_t cache_bytes = 256ull << 20;    // client VM page cache (256 MB)
  sim::SimDur ac_min = 3 * sim::kSecond;  // attribute cache TTL bounds
  sim::SimDur ac_max = 60 * sim::kSecond;
  size_t readahead_blocks = 8;            // kernel sequential read-ahead
  bool write_behind = true;               // false: FILE_SYNC every write
  /// 2007-era kernels commonly listed with plain READDIR and stat'ed each
  /// entry separately; modern behaviour uses READDIRPLUS.
  bool use_readdirplus = true;
  sim::SimDur per_call_cpu = 15 * sim::kMicrosecond;  // kernel RPC client
  /// Retransmission policy for direct mounts (MountPoint::mount); backends
  /// passed to mount_with carry their own. Default: wait forever.
  rpc::RetryPolicy retry;
  /// Reaction to NFS3ERR_JUKEBOX from an overloaded server: delayed retry
  /// under a fresh xid. Default: disabled (status surfaces as FsError).
  rpc::JukeboxPolicy jukebox;
  /// RFC 1813 §3.3.21: on a write-verifier change, resend every
  /// acknowledged-UNSTABLE-but-uncommitted block before retrying COMMIT.
  /// Disable ONLY to prove a harness can catch the resulting data loss
  /// (the chaos suite's deliberately-broken negative test).
  bool verifier_replay = true;

  Nfs3ClientConfig() = default;
};

/// open() flags.
enum OpenFlag : uint32_t {
  kRdOnly = 0x0,
  kWrOnly = 0x1,
  kRdWr = 0x2,
  kCreate = 0x40,
  kExcl = 0x80,
  kTrunc = 0x200,
  kAppend = 0x400,
};

class MountPoint {
 public:
  /// Mounts `remote_path` via an NFSv3 connection from `host` to `server`.
  static sim::Task<std::shared_ptr<MountPoint>> mount(
      net::Host& host, const net::Address& server,
      const std::string& remote_path, rpc::AuthSys auth,
      Nfs3ClientConfig config = Nfs3ClientConfig());

  /// Mounts over an already-connected wire backend (v3, v4, test double).
  static sim::Task<std::shared_ptr<MountPoint>> mount_with(
      net::Host& host, std::unique_ptr<WireOps> ops,
      const std::string& remote_path,
      Nfs3ClientConfig config = Nfs3ClientConfig());

  ~MountPoint();

  // --- POSIX-ish API (paths relative to the mount root) --------------------
  sim::Task<int> open(const std::string& path, uint32_t flags,
                      uint32_t mode = 0644);
  sim::Task<void> close(int fd);
  sim::Task<size_t> read(int fd, MutByteView out);
  sim::Task<size_t> write(int fd, ByteView data);
  sim::Task<size_t> pread(int fd, uint64_t offset, MutByteView out);
  sim::Task<size_t> pwrite(int fd, uint64_t offset, ByteView data);
  sim::Task<void> fsync(int fd);
  sim::Task<vfs::Attributes> fstat(int fd);
  sim::Task<vfs::Attributes> stat(const std::string& path);
  sim::Task<uint32_t> access(const std::string& path, uint32_t want);
  sim::Task<void> truncate(const std::string& path, uint64_t size);
  sim::Task<void> chmod(const std::string& path, uint32_t mode);
  sim::Task<void> utimens(const std::string& path, int64_t mtime);
  sim::Task<void> mkdir(const std::string& path, uint32_t mode = 0755);
  sim::Task<void> rmdir(const std::string& path);
  sim::Task<void> unlink(const std::string& path);
  sim::Task<void> rename(const std::string& from, const std::string& to);
  sim::Task<void> symlink(const std::string& target, const std::string& path);
  sim::Task<std::string> readlink(const std::string& path);
  sim::Task<void> link(const std::string& existing, const std::string& path);
  struct Dirent {
    std::string name;
    uint64_t fileid = 0;
    vfs::FileType type = vfs::FileType::kRegular;
    Dirent() = default;
  };
  sim::Task<std::vector<Dirent>> readdir(const std::string& path);

  /// Flushes all dirty data (umount behaviour) and drops caches.
  sim::Task<void> flush_all();
  void drop_caches();

  // --- stats ----------------------------------------------------------------
  uint64_t rpc_calls_for(Proc3 p) const;
  uint64_t cache_hits() const { return cache_hits_; }
  uint64_t bytes_cached() const { return cache_.bytes_used(); }
  const Nfs3ClientConfig& config() const { return config_; }
  /// Shadow copies held for verifier replay (blocks written UNSTABLE and
  /// not yet COMMIT-acknowledged).
  size_t uncommitted_blocks() const { return ledger_.size(); }

 private:
  MountPoint(net::Host& host, Nfs3ClientConfig config);

  using CachedBlock = BlockCache::Block;
  struct AttrEntry {
    vfs::Attributes attrs;
    sim::SimTime fetched = 0;
    sim::SimDur ttl = 0;
  };
  struct OpenFile {
    Fh fh;
    uint64_t pos = 0;
    uint32_t flags = 0;
    uint64_t last_read_block = UINT64_MAX;
  };

  /// Counts the semantic op and charges kernel-client CPU.
  sim::Task<void> charge(Proc3 proc);

  // Attribute & name caches.
  void remember_attrs(const Fh& fh, const vfs::Attributes& attrs);
  void maybe_remember(const Fh& fh,
                      const std::optional<vfs::Attributes>& attrs);
  std::optional<vfs::Attributes> cached_attrs(const Fh& fh);
  sim::Task<vfs::Attributes> getattr(const Fh& fh, bool force);
  void invalidate_file(uint64_t fileid);

  // Path walking.
  sim::Task<Fh> walk(const std::string& path);
  sim::Task<std::pair<Fh, std::string>> walk_parent(const std::string& path);
  sim::Task<Fh> lookup(const Fh& dir, const std::string& name);

  // Page cache.
  sim::Task<CachedBlock*> get_block_for_read(const Fh& fh, uint64_t block,
                                             bool readahead);
  /// Evicts (writing dirty victims back) until `incoming` bytes fit.
  sim::Task<void> ensure_space(size_t incoming);
  sim::Task<void> writeback_block(uint64_t fileid, uint64_t block);
  sim::Task<void> flush_file(const Fh& fh, bool commit);
  sim::Task<void> fetch_block(const Fh& fh, uint64_t block);
  void start_readahead(const Fh& fh, uint64_t from_block);
  /// Stores a READ reply as block `key`, laying any uncommitted shadow of
  /// the block back over the fetched bytes.
  void fill_block(const BlockKey& key, const ReadRes& res);

  // Write-verifier recovery (RFC 1813 §3.3.21).  Returns true if the
  // verifier rolled (server restart) — after replaying the shadows, the
  // caller must retry its COMMIT.
  sim::Task<bool> note_verf(uint64_t verf);

  net::Host& host_;
  Nfs3ClientConfig config_;
  std::unique_ptr<WireOps> ops_;
  Fh root_;

  std::map<uint64_t, AttrEntry> attr_cache_;  // fileid -> attrs
  std::map<std::pair<uint64_t, std::string>, Fh> dnlc_;
  BlockCache cache_;
  // Files owed a COMMIT.  Not the same set as the files with shadows:
  // open(O_TRUNC) drops a file's shadows but it still owes the COMMIT.
  std::set<uint64_t> needs_commit_;
  std::map<BlockKey, std::shared_ptr<sim::SimEvent>> inflight_;

  // Shadow copies of UNSTABLE-acknowledged blocks, kept until the COMMIT
  // that makes them durable.  These are the writeback snapshot chains
  // (refcounted — retaining them costs no copies and, crucially, does not
  // change page-cache eviction behaviour, so fault-free timing stays
  // bit-identical).  On a verifier mismatch they are resent verbatim.
  UnstableLedger ledger_;

  std::map<int, OpenFile> open_files_;
  int next_fd_ = 3;

  std::map<Proc3, uint64_t> rpc_by_proc_;

  // Hot-path metric handles (lazy first-use resolution; see
  // obs::CounterHandle).  The per-procedure counters used to be a string
  // concatenation + map lookup per RPC; the array caches the stable
  // Counter* per Proc3 once resolve happens.
  obs::Counter& proc_counter(Proc3 proc);
  obs::CounterHandle m_rpc_calls_;
  std::array<obs::Counter*, 22> m_rpc_proc_{};
  obs::CounterHandle m_ac_hits_, m_ac_misses_;
  obs::CounterHandle m_pc_hits_, m_pc_misses_, m_readahead_;
  obs::CounterHandle m_cto_revalidations_, m_cto_flushes_;
  obs::GaugeHandle m_dirty_blocks_;
  uint64_t cache_hits_ = 0;

  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace sgfs::nfs

// NFS version 3 wire protocol (RFC 1813) — types, their XDR layouts and the
// procedure table.
//
// The field sets mirror RFC 1813's semantics with the attribute fields our
// VFS models (fattr3 minus rdev/fsid specifics); both peers run this code so
// the trimming is transparent.  Post-operation attributes are carried where
// kernel clients rely on them (READ/WRITE/LOOKUP/CREATE/...) — they are what
// keeps the client attribute cache warm without extra GETATTR round trips.
#pragma once

#include <iterator>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/bufchain.hpp"
#include "common/bytes.hpp"
#include "vfs/vfs.hpp"
#include "xdr/xdr.hpp"

namespace sgfs::vfs {

// The NFSv3 wire layouts of the VFS attribute types (fattr3 and sattr3 as
// this model trims them).  They live with the other NFS layouts, in the
// vfs namespace so the xdr walkers find them by argument-dependent lookup.

template <class Io>
void walk(Io& io, Attributes& a) {
  io(a.type);
  io(a.mode);
  io(a.nlink);
  io(a.uid);
  io(a.gid);
  io(a.size);
  io(a.atime);
  io(a.mtime);
  io(a.ctime);
  io(a.fileid);
}

template <class Io>
void walk(Io& io, SetAttrs& s) {  // each field: bool set + value
  io(s.mode);
  io(s.uid);
  io(s.gid);
  io(s.size);
  io(s.atime);
  io(s.mtime);
}

}  // namespace sgfs::vfs

namespace sgfs::nfs {

inline constexpr uint32_t kNfsProgram = 100003;
inline constexpr uint32_t kNfsVersion3 = 3;
inline constexpr uint32_t kMountProgram = 100005;
inline constexpr uint32_t kMountVersion3 = 3;

/// Per-field decode bounds.  Every variable-length field on the wire is
/// capped by what the protocol can legitimately carry, so a corrupted or
/// hostile length word is rejected before any allocation — not merely by
/// the blanket 64 MiB Decoder ceiling.
inline constexpr size_t kMaxDataBytes = 8u << 20;  // READ/WRITE payload
inline constexpr size_t kMaxPathBytes = 1024;      // symlink targets, paths
inline constexpr size_t kMaxNameBytes = 255;       // one path component
inline constexpr size_t kMaxReaddirEntries = 100000;

enum class Proc3 : uint32_t {
  kNull = 0,
  kGetattr = 1,
  kSetattr = 2,
  kLookup = 3,
  kAccess = 4,
  kReadlink = 5,
  kRead = 6,
  kWrite = 7,
  kCreate = 8,
  kMkdir = 9,
  kSymlink = 10,
  kRemove = 12,
  kRmdir = 13,
  kRename = 14,
  kLink = 15,
  kReaddir = 16,
  kReaddirplus = 17,
  kFsstat = 18,
  kFsinfo = 19,
  kCommit = 21,
};

enum class MountProc : uint32_t {
  kNull = 0,
  kMnt = 1,
  kUmnt = 3,
};

/// Peeks an encoded result's leading status word (every NFSv3 result begins
/// with one) for NFS3ERR_JUKEBOX, without decoding the procedure's shape.
bool reply_is_jukebox(const BufChain& reply);

/// nfsstat3 — shares values with vfs::Status plus protocol-only codes.
using Status = vfs::Status;
inline constexpr Status kNfs3Ok = Status::kOk;

/// Thrown by client-side wrappers when a call returns a non-OK status.
class FsError : public std::runtime_error {
 public:
  explicit FsError(Status status)
      : std::runtime_error(std::string("fs: ") + vfs::to_string(status)),
        status_(status) {}
  Status status() const { return status_; }

 private:
  Status status_;
};

enum class StableHow : uint32_t {
  kUnstable = 0,
  kDataSync = 1,
  kFileSync = 2,
};

/// File handle: fsid + fileid, opaque on the wire.
struct Fh {
  uint64_t fsid = 0;
  uint64_t fileid = 0;

  Fh() = default;
  Fh(uint64_t fs, uint64_t id) : fsid(fs), fileid(id) {}

  bool operator==(const Fh&) const = default;
  auto operator<=>(const Fh&) const = default;

  template <class Io>
  void walk(Io& io) {
    io(fsid);
    io(fileid);
  }
};

// --- per-procedure argument/result structures -------------------------------
// All are non-aggregates (user-declared default ctor) per the GCC 12 rule.
// Each `walk` is the struct's one wire layout (xdr.hpp): fields guarded by
// `status == kOk` are on the wire only in the OK shape.

/// Empty XDR body: NULL's arguments and result.
struct Void {
  Void() = default;
  template <class Io>
  void walk(Io&) {}
};

struct GetattrArgs {  // also READLINK, FSSTAT and FSINFO (one nfs_fh3)
  Fh fh;
  GetattrArgs() = default;
  explicit GetattrArgs(Fh f) : fh(f) {}
  template <class Io>
  void walk(Io& io) {
    io(fh);
  }
};

struct GetattrRes {
  Status status = Status::kOk;
  vfs::Attributes attrs;
  GetattrRes() = default;
  template <class Io>
  void walk(Io& io) {
    io(status);
    if (status == Status::kOk) io(attrs);
  }
};

struct SetattrArgs {
  Fh fh;
  vfs::SetAttrs sattr;
  SetattrArgs() = default;
  SetattrArgs(Fh f, vfs::SetAttrs s) : fh(f), sattr(std::move(s)) {}
  template <class Io>
  void walk(Io& io) {
    io(fh);
    io(sattr);
  }
};

struct WccRes {  // status + post-op attributes (wcc_data simplified)
  Status status = Status::kOk;
  std::optional<vfs::Attributes> post_attrs;
  WccRes() = default;
  template <class Io>
  void walk(Io& io) {
    io(status);
    io(post_attrs);
  }
};

struct DiropArgs {  // diropargs3
  Fh dir;
  std::string name;
  DiropArgs() = default;
  DiropArgs(Fh d, std::string n) : dir(d), name(std::move(n)) {}
  template <class Io>
  void walk(Io& io) {
    io(dir);
    io.string(name, kMaxNameBytes);
  }
};

struct LookupRes {
  Status status = Status::kOk;
  Fh fh;
  std::optional<vfs::Attributes> attrs;
  std::optional<vfs::Attributes> dir_attrs;
  LookupRes() = default;
  template <class Io>
  void walk(Io& io) {
    io(status);
    if (status == Status::kOk) {
      io(fh);
      io(attrs);
    }
    io(dir_attrs);
  }
};

struct AccessArgs {
  Fh fh;
  uint32_t access = 0;
  AccessArgs() = default;
  AccessArgs(Fh f, uint32_t a) : fh(f), access(a) {}
  template <class Io>
  void walk(Io& io) {
    io(fh);
    io(access);
  }
};

struct AccessRes {
  Status status = Status::kOk;
  uint32_t access = 0;
  std::optional<vfs::Attributes> post_attrs;
  AccessRes() = default;
  template <class Io>
  void walk(Io& io) {
    io(status);
    if (status == Status::kOk) io(access);
    io(post_attrs);
  }
};

struct ReadlinkRes {
  Status status = Status::kOk;
  std::string target;
  ReadlinkRes() = default;
  template <class Io>
  void walk(Io& io) {
    io(status);
    if (status == Status::kOk) io.string(target, kMaxPathBytes);
  }
};

struct ReadArgs {
  Fh fh;
  uint64_t offset = 0;
  uint32_t count = 0;
  ReadArgs() = default;
  ReadArgs(Fh f, uint64_t off, uint32_t c) : fh(f), offset(off), count(c) {}
  template <class Io>
  void walk(Io& io) {
    io(fh);
    io(offset);
    io(count);
  }
};

struct ReadRes {
  Status status = Status::kOk;
  uint32_t count = 0;
  bool eof = false;
  /// Shared slice of the decoded message (or of the server's block) — the
  /// payload travels by refcount, never duplicated per hop.
  BufChain data;
  std::optional<vfs::Attributes> post_attrs;
  ReadRes() = default;
  template <class Io>
  void walk(Io& io) {
    io(status);
    if (status == Status::kOk) {
      io(count);
      io(eof);
      io.opaque_ref(data, kMaxDataBytes);
    }
    io(post_attrs);
  }
};

struct WriteArgs {
  Fh fh;
  uint64_t offset = 0;
  StableHow stable = StableHow::kFileSync;
  BufChain data;
  WriteArgs() = default;
  WriteArgs(Fh f, uint64_t off, StableHow s, BufChain d)
      : fh(f), offset(off), stable(s), data(std::move(d)) {}
  template <class Io>
  void walk(Io& io) {
    io(fh);
    io(offset);
    io(stable);
    io.opaque_ref(data, kMaxDataBytes);
  }
};

struct WriteRes {
  Status status = Status::kOk;
  uint32_t count = 0;
  StableHow committed = StableHow::kFileSync;
  uint64_t verf = 0;  // write verifier (server instance cookie)
  std::optional<vfs::Attributes> post_attrs;
  WriteRes() = default;
  template <class Io>
  void walk(Io& io) {
    io(status);
    if (status == Status::kOk) {
      io(count);
      io(committed);
      io(verf);
    }
    io(post_attrs);
  }
};

// CREATE, MKDIR and SYMLINK args lead with diropargs3 `where`, as in
// RFC 1813, so code that only needs the new name reads it the same way
// for all three.
struct CreateArgs {
  DiropArgs where;
  uint32_t mode = 0644;
  bool exclusive = false;
  CreateArgs() = default;
  CreateArgs(DiropArgs w, uint32_t m, bool excl)
      : where(std::move(w)), mode(m), exclusive(excl) {}
  template <class Io>
  void walk(Io& io) {
    io(where);
    io(mode);
    io(exclusive);
  }
};

struct CreateRes {  // CREATE, MKDIR and SYMLINK
  Status status = Status::kOk;
  Fh fh;
  std::optional<vfs::Attributes> attrs;
  std::optional<vfs::Attributes> dir_attrs;
  CreateRes() = default;
  template <class Io>
  void walk(Io& io) {
    io(status);
    if (status == Status::kOk) {
      io(fh);
      io(attrs);
    }
    io(dir_attrs);
  }
};

struct MkdirArgs {
  DiropArgs where;
  uint32_t mode = 0755;
  MkdirArgs() = default;
  MkdirArgs(DiropArgs w, uint32_t m) : where(std::move(w)), mode(m) {}
  template <class Io>
  void walk(Io& io) {
    io(where);
    io(mode);
  }
};

struct SymlinkArgs {
  DiropArgs where;
  std::string target;
  SymlinkArgs() = default;
  SymlinkArgs(DiropArgs w, std::string t)
      : where(std::move(w)), target(std::move(t)) {}
  template <class Io>
  void walk(Io& io) {
    io(where);
    io.string(target, kMaxPathBytes);
  }
};

struct RenameArgs {
  Fh from_dir;
  std::string from_name;
  Fh to_dir;
  std::string to_name;
  RenameArgs() = default;
  RenameArgs(Fh fd, std::string fn, Fh td, std::string tn)
      : from_dir(fd), from_name(std::move(fn)), to_dir(td),
        to_name(std::move(tn)) {}
  template <class Io>
  void walk(Io& io) {
    io(from_dir);
    io.string(from_name, kMaxNameBytes);
    io(to_dir);
    io.string(to_name, kMaxNameBytes);
  }
};

struct LinkArgs {
  Fh file;
  Fh dir;
  std::string name;
  LinkArgs() = default;
  LinkArgs(Fh f, Fh d, std::string n) : file(f), dir(d), name(std::move(n)) {}
  template <class Io>
  void walk(Io& io) {
    io(file);
    io(dir);
    io.string(name, kMaxNameBytes);
  }
};

struct ReaddirArgs {
  Fh dir;
  uint64_t cookie = 0;
  uint32_t count = 0;  // max entries
  bool plus = false;   // READDIRPLUS: include attrs + fh per entry
  ReaddirArgs() = default;
  ReaddirArgs(Fh d, uint64_t c, uint32_t n, bool p)
      : dir(d), cookie(c), count(n), plus(p) {}
  template <class Io>
  void walk(Io& io) {
    io(dir);
    io(cookie);
    io(count);
    io(plus);
  }
};

struct DirEntry3 {
  uint64_t fileid = 0;
  std::string name;
  uint64_t cookie = 0;
  std::optional<vfs::Attributes> attrs;  // READDIRPLUS only
  std::optional<Fh> fh;                  // READDIRPLUS only
  DirEntry3() = default;
  template <class Io>
  void walk(Io& io) {
    io(fileid);
    io.string(name, kMaxNameBytes);
    io(cookie);
    io(attrs);
    io(fh);
  }
};

struct ReaddirRes {  // READDIR and READDIRPLUS
  Status status = Status::kOk;
  std::vector<DirEntry3> entries;
  bool eof = false;
  ReaddirRes() = default;
  template <class Io>
  void walk(Io& io) {
    io(status);
    if (status != Status::kOk) return;
    io.array(entries, kMaxReaddirEntries);
    io(eof);
  }
};

struct FsstatRes {
  Status status = Status::kOk;
  uint64_t total_bytes = 0;
  uint64_t free_bytes = 0;
  uint64_t total_files = 0;
  FsstatRes() = default;
  template <class Io>
  void walk(Io& io) {
    io(status);
    if (status != Status::kOk) return;
    io(total_bytes);
    io(free_bytes);
    io(total_files);
  }
};

struct FsinfoRes {
  Status status = Status::kOk;
  uint32_t rtmax = 32768;
  uint32_t wtmax = 32768;
  uint32_t dtpref = 4096;
  FsinfoRes() = default;
  template <class Io>
  void walk(Io& io) {
    io(status);
    if (status != Status::kOk) return;
    io(rtmax);
    io(wtmax);
    io(dtpref);
  }
};

struct CommitArgs {
  Fh fh;
  uint64_t offset = 0;
  uint32_t count = 0;  // 0 = whole file
  CommitArgs() = default;
  CommitArgs(Fh f, uint64_t off, uint32_t c) : fh(f), offset(off), count(c) {}
  template <class Io>
  void walk(Io& io) {
    io(fh);
    io(offset);
    io(count);
  }
};

struct CommitRes {
  Status status = Status::kOk;
  uint64_t verf = 0;
  CommitRes() = default;
  template <class Io>
  void walk(Io& io) {
    io(status);
    if (status == Status::kOk) io(verf);
  }
};

// --- the procedure table ---------------------------------------------------
//
// One entry per procedure; the per-procedure facts the rest of the code
// needs are read from it: wire names, the DRC classification, jukebox
// replies, the client stubs (V3WireOps::call<P>) and the client proxy's
// attribute overlay.  Columns:
//   Args / Res  the argument and result structs;
//   kName       the protocol name, used for per-procedure metric names;
//   kIdempotent re-executing is harmless; the server's duplicate-request
//               cache keeps the replies of the others (CREATE, REMOVE, ...);
//   kAttrs      the Res member with the attributes of the file the call
//               names, on which a client proxy holding newer dirty bytes
//               overlays its size and mtime; nullptr when the reply carries
//               none, or only those of a directory or a new inode.
template <Proc3 P>
struct ProcTraits;

#define SGFS_NFS3_PROC(P, NAME, ARGS, RES, IDEMPOTENT, ATTRS) \
  template <>                                                 \
  struct ProcTraits<Proc3::P> {                               \
    using Args = ARGS;                                        \
    using Res = RES;                                          \
    static constexpr const char* kName = NAME;                \
    static constexpr bool kIdempotent = IDEMPOTENT;           \
    static constexpr auto kAttrs = ATTRS;                     \
  };

SGFS_NFS3_PROC(kNull, "NULL", Void, Void, true, nullptr)
SGFS_NFS3_PROC(kGetattr, "GETATTR", GetattrArgs, GetattrRes, true,
               &GetattrRes::attrs)
SGFS_NFS3_PROC(kSetattr, "SETATTR", SetattrArgs, WccRes, false,
               &WccRes::post_attrs)
SGFS_NFS3_PROC(kLookup, "LOOKUP", DiropArgs, LookupRes, true,
               &LookupRes::attrs)
SGFS_NFS3_PROC(kAccess, "ACCESS", AccessArgs, AccessRes, true,
               &AccessRes::post_attrs)
SGFS_NFS3_PROC(kReadlink, "READLINK", GetattrArgs, ReadlinkRes, true, nullptr)
SGFS_NFS3_PROC(kRead, "READ", ReadArgs, ReadRes, true, &ReadRes::post_attrs)
SGFS_NFS3_PROC(kWrite, "WRITE", WriteArgs, WriteRes, true,
               &WriteRes::post_attrs)
SGFS_NFS3_PROC(kCreate, "CREATE", CreateArgs, CreateRes, false,
               &CreateRes::attrs)
SGFS_NFS3_PROC(kMkdir, "MKDIR", MkdirArgs, CreateRes, false, nullptr)
SGFS_NFS3_PROC(kSymlink, "SYMLINK", SymlinkArgs, CreateRes, false, nullptr)
SGFS_NFS3_PROC(kRemove, "REMOVE", DiropArgs, WccRes, false, nullptr)
SGFS_NFS3_PROC(kRmdir, "RMDIR", DiropArgs, WccRes, false, nullptr)
SGFS_NFS3_PROC(kRename, "RENAME", RenameArgs, WccRes, false, nullptr)
SGFS_NFS3_PROC(kLink, "LINK", LinkArgs, WccRes, false, nullptr)
SGFS_NFS3_PROC(kReaddir, "READDIR", ReaddirArgs, ReaddirRes, true, nullptr)
SGFS_NFS3_PROC(kReaddirplus, "READDIRPLUS", ReaddirArgs, ReaddirRes, true,
               &ReaddirRes::entries)
SGFS_NFS3_PROC(kFsstat, "FSSTAT", GetattrArgs, FsstatRes, true, nullptr)
SGFS_NFS3_PROC(kFsinfo, "FSINFO", GetattrArgs, FsinfoRes, true, nullptr)
SGFS_NFS3_PROC(kCommit, "COMMIT", CommitArgs, CommitRes, true, nullptr)

#undef SGFS_NFS3_PROC

/// Every procedure in the table, in wire-number order.
inline constexpr Proc3 kProcs3[] = {
    Proc3::kNull,   Proc3::kGetattr, Proc3::kSetattr,     Proc3::kLookup,
    Proc3::kAccess, Proc3::kReadlink, Proc3::kRead,       Proc3::kWrite,
    Proc3::kCreate, Proc3::kMkdir,   Proc3::kSymlink,     Proc3::kRemove,
    Proc3::kRmdir,  Proc3::kRename,  Proc3::kLink,        Proc3::kReaddir,
    Proc3::kReaddirplus, Proc3::kFsstat, Proc3::kFsinfo, Proc3::kCommit,
};

/// Calls f(ProcTraits<P>{}) for the table entry of `p`.  Returns false,
/// without calling f, for a procedure number the table does not know.
template <typename F>
bool visit_proc3(Proc3 p, F&& f) {
  return [&]<size_t... I>(std::index_sequence<I...>) {
    return ((p == kProcs3[I] && (f(ProcTraits<kProcs3[I]>{}), true)) || ...);
  }(std::make_index_sequence<std::size(kProcs3)>{});
}

/// The protocol name ("GETATTR", ...; "PROC?" for unknown values).
const char* proc3_name(Proc3 p);

/// True when re-executing the procedure is harmless (unknown values too).
bool proc3_is_idempotent(Proc3 p);

/// An encoded result of shape `Res` carrying only the failure `status`.
template <typename Res>
BufChain status_reply(Status status) {
  Res res;
  res.status = status;
  return xdr::encode(res);
}

/// Serialized result body meaning "server overloaded, try again later":
/// the procedure's result shape with status NFS3ERR_JUKEBOX and no payload
/// (RFC 1813 §2.6 — the jukebox error was designed for exactly this "come
/// back later" signal).  Empty for procedures that carry no status (NULL),
/// in which case the shedding server should drop instead of replying.
BufChain busy_status_reply(Proc3 proc);

// --- MOUNT protocol ----------------------------------------------------------

struct MntArgs {
  std::string dirpath;
  MntArgs() = default;
  explicit MntArgs(std::string p) : dirpath(std::move(p)) {}
  template <class Io>
  void walk(Io& io) {
    io.string(dirpath, kMaxPathBytes);
  }
};

struct MntRes {
  Status status = Status::kOk;
  Fh root_fh;
  MntRes() = default;
  template <class Io>
  void walk(Io& io) {
    io(status);
    if (status == Status::kOk) io(root_fh);
  }
};

}  // namespace sgfs::nfs

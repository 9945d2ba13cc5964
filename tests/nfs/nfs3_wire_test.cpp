// Golden NFSv3 wire layouts.
//
// Every Args/Res struct is pinned to the exact bytes it puts on the wire,
// in the OK and the error status shapes and with optional attributes
// present and absent, so a change to how the codecs are written cannot
// move a single wire byte unnoticed.  Seeded round trips cover every
// procedure's Args and Res, the jukebox replies decode as each
// procedure's own result, and the per-field decode caps hold exactly at
// their bounds.
#include <gtest/gtest.h>

#include <functional>
#include <set>

#include "common/rng.hpp"
#include "nfs/nfs3.hpp"

namespace sgfs::nfs {
namespace {

// --- codec adaptors ----------------------------------------------------------

template <typename T>
BufChain wire(const T& x) {
  return xdr::encode(x);
}

/// Decodes a whole message: trailing bytes are an error here.
template <typename T>
T unwire(const BufChain& bytes) {
  xdr::Decoder dec(bytes);
  T out;
  dec(out);
  dec.expect_done();
  return out;
}

CreateArgs create_args(Fh dir, std::string name, uint32_t mode,
                       bool exclusive) {
  return CreateArgs({dir, std::move(name)}, mode, exclusive);
}

MkdirArgs mkdir_args(Fh dir, std::string name, uint32_t mode) {
  return MkdirArgs({dir, std::move(name)}, mode);
}

SymlinkArgs symlink_args(Fh dir, std::string name, std::string target) {
  return SymlinkArgs({dir, std::move(name)}, std::move(target));
}

/// Lower-case hex, one space between 4-byte XDR words.
std::string hex_words(const BufChain& bytes) {
  const std::string flat = to_hex(ByteView(bytes.flatten()));
  std::string out;
  for (size_t i = 0; i < flat.size(); i += 8) {
    if (i) out += ' ';
    out += flat.substr(i, 8);
  }
  return out;
}

// --- fixed field values ----------------------------------------------------

const Fh kFh(1, 42);
const Fh kDir(1, 7);

vfs::Attributes attrs() {
  vfs::Attributes a;
  a.type = vfs::FileType::kRegular;
  a.mode = 0640;
  a.nlink = 2;
  a.uid = 1000;
  a.gid = 100;
  a.size = 12345;
  a.atime = 1000000;
  a.mtime = 1000001;
  a.ctime = -2;
  a.fileid = 42;
  return a;
}

vfs::Attributes dir_attrs() {
  vfs::Attributes a;
  a.type = vfs::FileType::kDirectory;
  a.mode = 0755;
  a.size = 4096;
  a.fileid = 7;
  return a;
}

BufChain payload(const char* s) { return BufChain(to_bytes(s)); }

struct Golden {
  const char* name;
  std::function<BufChain()> encode;
  const char* hex;
};

template <typename T>
Golden golden(const char* name, T x, const char* hex) {
  return Golden{name, [x] { return wire(x); }, hex};
}

template <typename T>
T with_status(T x, Status s) {
  x.status = s;
  return x;
}

const std::vector<Golden>& goldens() {
  static const std::vector<Golden> cases = [] {
    std::vector<Golden> v;
    v.push_back(golden("GetattrArgs", [] {
      GetattrArgs a;
      a.fh = kFh;
      return a;
    }(),
        "00000000 00000001 00000000 0000002a"));
    v.push_back(golden("GetattrRes/ok", [] {
      GetattrRes r;
      r.attrs = attrs();
      return r;
    }(),
        "00000000 00000001 000001a0 00000002 000003e8 00000064 00000000 "
        "00003039 00000000 000f4240 00000000 000f4241 ffffffff fffffffe "
        "00000000 0000002a"));
    v.push_back(golden("GetattrRes/err", with_status(GetattrRes(),
                                                     Status::kStale),
        "00000046"));
    v.push_back(golden("SetattrArgs/some", [] {
      SetattrArgs a;
      a.fh = kFh;
      a.sattr.mode = 0600;
      a.sattr.size = 4096;
      a.sattr.mtime = -7;
      return a;
    }(),
        "00000000 00000001 00000000 0000002a 00000001 00000180 00000000 "
        "00000000 00000001 00000000 00001000 00000000 00000001 ffffffff "
        "fffffff9"));
    v.push_back(golden("SetattrArgs/all", [] {
      SetattrArgs a;
      a.fh = kFh;
      a.sattr.mode = 0600;
      a.sattr.uid = 1000;
      a.sattr.gid = 100;
      a.sattr.size = 1;
      a.sattr.atime = 5;
      a.sattr.mtime = 6;
      return a;
    }(),
        "00000000 00000001 00000000 0000002a 00000001 00000180 00000001 "
        "000003e8 00000001 00000064 00000001 00000000 00000001 00000001 "
        "00000000 00000005 00000001 00000000 00000006"));
    v.push_back(golden("SetattrArgs/none", [] {
      SetattrArgs a;
      a.fh = kFh;
      return a;
    }(),
        "00000000 00000001 00000000 0000002a 00000000 00000000 00000000 "
        "00000000 00000000 00000000"));
    v.push_back(golden("WccRes/ok+attrs", [] {
      WccRes r;
      r.post_attrs = attrs();
      return r;
    }(),
        "00000000 00000001 00000001 000001a0 00000002 000003e8 00000064 "
        "00000000 00003039 00000000 000f4240 00000000 000f4241 ffffffff "
        "fffffffe 00000000 0000002a"));
    v.push_back(golden("WccRes/ok", WccRes(),
        "00000000 00000000"));
    v.push_back(golden("WccRes/err+attrs", [] {
      WccRes r;
      r.status = Status::kAcces;
      r.post_attrs = dir_attrs();
      return r;
    }(),
        "0000000d 00000001 00000002 000001ed 00000001 00000000 00000000 "
        "00000000 00001000 00000000 00000000 00000000 00000000 00000000 "
        "00000000 00000000 00000007"));
    v.push_back(golden("DiropArgs", DiropArgs(kDir, "hello.txt"),
        "00000000 00000001 00000000 00000007 00000009 68656c6c 6f2e7478 "
        "74000000"));
    v.push_back(golden("LookupRes/ok+attrs", [] {
      LookupRes r;
      r.fh = kFh;
      r.attrs = attrs();
      r.dir_attrs = dir_attrs();
      return r;
    }(),
        "00000000 00000000 00000001 00000000 0000002a 00000001 00000001 "
        "000001a0 00000002 000003e8 00000064 00000000 00003039 00000000 "
        "000f4240 00000000 000f4241 ffffffff fffffffe 00000000 0000002a "
        "00000001 00000002 000001ed 00000001 00000000 00000000 00000000 "
        "00001000 00000000 00000000 00000000 00000000 00000000 00000000 "
        "00000000 00000007"));
    v.push_back(golden("LookupRes/ok", [] {
      LookupRes r;
      r.fh = kFh;
      return r;
    }(),
        "00000000 00000000 00000001 00000000 0000002a 00000000 00000000"));
    v.push_back(golden("LookupRes/err+attrs", [] {
      LookupRes r;
      r.status = Status::kNoEnt;
      r.fh = kFh;  // not on the wire for a failed lookup
      r.attrs = attrs();
      r.dir_attrs = dir_attrs();
      return r;
    }(),
        "00000002 00000001 00000002 000001ed 00000001 00000000 00000000 "
        "00000000 00001000 00000000 00000000 00000000 00000000 00000000 "
        "00000000 00000000 00000007"));
    v.push_back(golden("AccessArgs", AccessArgs(kFh, 0x1f),
        "00000000 00000001 00000000 0000002a 0000001f"));
    v.push_back(golden("AccessRes/ok+attrs", [] {
      AccessRes r;
      r.access = 0x0d;
      r.post_attrs = attrs();
      return r;
    }(),
        "00000000 0000000d 00000001 00000001 000001a0 00000002 000003e8 "
        "00000064 00000000 00003039 00000000 000f4240 00000000 000f4241 "
        "ffffffff fffffffe 00000000 0000002a"));
    v.push_back(golden("AccessRes/err", [] {
      AccessRes r;
      r.status = Status::kStale;
      r.access = 0x0d;
      return r;
    }(),
        "00000046 00000000"));
    v.push_back(golden("ReadlinkRes/ok", [] {
      ReadlinkRes r;
      r.target = "../target/path";
      return r;
    }(),
        "00000000 0000000e 2e2e2f74 61726765 742f7061 74680000"));
    v.push_back(golden("ReadlinkRes/err", with_status(ReadlinkRes(),
                                                      Status::kInval),
        "00000016"));
    v.push_back(golden("ReadArgs", ReadArgs(kFh, 65536, 32768),
        "00000000 00000001 00000000 0000002a 00000000 00010000 00008000"));
    v.push_back(golden("ReadRes/ok+attrs", [] {
      ReadRes r;
      r.count = 5;
      r.eof = true;
      r.data = payload("hello");
      r.post_attrs = attrs();
      return r;
    }(),
        "00000000 00000005 00000001 00000005 68656c6c 6f000000 00000001 "
        "00000001 000001a0 00000002 000003e8 00000064 00000000 00003039 "
        "00000000 000f4240 00000000 000f4241 ffffffff fffffffe 00000000 "
        "0000002a"));
    v.push_back(golden("ReadRes/ok", [] {
      ReadRes r;
      r.count = 4;
      r.data = payload("grid");
      return r;
    }(),
        "00000000 00000004 00000000 00000004 67726964 00000000"));
    v.push_back(golden("ReadRes/err", with_status(ReadRes(),
                                                  Status::kJukebox),
        "00002718 00000000"));
    v.push_back(golden("WriteArgs", [] {
      WriteArgs a;
      a.fh = kFh;
      a.offset = 8192;
      a.stable = StableHow::kUnstable;
      a.data = payload("grid!");
      return a;
    }(),
        "00000000 00000001 00000000 0000002a 00000000 00002000 00000000 "
        "00000005 67726964 21000000"));
    v.push_back(golden("WriteRes/ok+attrs", [] {
      WriteRes r;
      r.count = 5;
      r.committed = StableHow::kUnstable;
      r.verf = 0x5347465356455246ull;
      r.post_attrs = attrs();
      return r;
    }(),
        "00000000 00000005 00000000 53474653 56455246 00000001 00000001 "
        "000001a0 00000002 000003e8 00000064 00000000 00003039 00000000 "
        "000f4240 00000000 000f4241 ffffffff fffffffe 00000000 0000002a"));
    v.push_back(golden("WriteRes/err", [] {
      WriteRes r;
      r.status = Status::kNoSpc;
      r.count = 5;
      return r;
    }(),
        "0000001c 00000000"));
    v.push_back(golden("CreateArgs", create_args(kDir, "new.txt", 0640, true),

        "00000000 00000001 00000000 00000007 00000007 6e65772e 74787400 "
        "000001a0 00000001"));
    v.push_back(golden("CreateRes/ok+attrs", [] {
      CreateRes r;
      r.fh = kFh;
      r.attrs = attrs();
      r.dir_attrs = dir_attrs();
      return r;
    }(),
        "00000000 00000000 00000001 00000000 0000002a 00000001 00000001 "
        "000001a0 00000002 000003e8 00000064 00000000 00003039 00000000 "
        "000f4240 00000000 000f4241 ffffffff fffffffe 00000000 0000002a "
        "00000001 00000002 000001ed 00000001 00000000 00000000 00000000 "
        "00001000 00000000 00000000 00000000 00000000 00000000 00000000 "
        "00000000 00000007"));
    v.push_back(golden("CreateRes/ok", [] {
      CreateRes r;
      r.fh = kFh;
      return r;
    }(),
        "00000000 00000000 00000001 00000000 0000002a 00000000 00000000"));
    v.push_back(golden("CreateRes/err+attrs", [] {
      CreateRes r;
      r.status = Status::kExist;
      r.dir_attrs = dir_attrs();
      return r;
    }(),
        "00000011 00000001 00000002 000001ed 00000001 00000000 00000000 "
        "00000000 00001000 00000000 00000000 00000000 00000000 00000000 "
        "00000000 00000000 00000007"));
    v.push_back(golden("MkdirArgs", mkdir_args(kDir, "sub", 0755),
        "00000000 00000001 00000000 00000007 00000003 73756200 000001ed"));
    v.push_back(golden("SymlinkArgs", symlink_args(kDir, "ln", "a/b/c"),
        "00000000 00000001 00000000 00000007 00000002 6c6e0000 00000005 "
        "612f622f 63000000"));
    v.push_back(golden("RenameArgs", [] {
      RenameArgs a;
      a.from_dir = kDir;
      a.from_name = "old";
      a.to_dir = Fh(1, 8);
      a.to_name = "newer";
      return a;
    }(),
        "00000000 00000001 00000000 00000007 00000003 6f6c6400 00000000 "
        "00000001 00000000 00000008 00000005 6e657765 72000000"));
    v.push_back(golden("LinkArgs", [] {
      LinkArgs a;
      a.file = kFh;
      a.dir = kDir;
      a.name = "hard";
      return a;
    }(),
        "00000000 00000001 00000000 0000002a 00000000 00000001 00000000 "
        "00000007 00000004 68617264"));
    v.push_back(golden("ReaddirArgs", [] {
      ReaddirArgs a;
      a.dir = kDir;
      a.cookie = 3;
      a.count = 100;
      a.plus = true;
      return a;
    }(),
        "00000000 00000001 00000000 00000007 00000000 00000003 00000064 "
        "00000001"));
    v.push_back(golden("ReaddirRes/ok", [] {
      ReaddirRes r;
      DirEntry3 plain;
      plain.fileid = 7;
      plain.name = ".";
      plain.cookie = 1;
      DirEntry3 plus;
      plus.fileid = 42;
      plus.name = "hello.txt";
      plus.cookie = 2;
      plus.attrs = attrs();
      plus.fh = kFh;
      r.entries = {plain, plus};
      r.eof = true;
      return r;
    }(),
        "00000000 00000002 00000000 00000007 00000001 2e000000 00000000 "
        "00000001 00000000 00000000 00000000 0000002a 00000009 68656c6c "
        "6f2e7478 74000000 00000000 00000002 00000001 00000001 000001a0 "
        "00000002 000003e8 00000064 00000000 00003039 00000000 000f4240 "
        "00000000 000f4241 ffffffff fffffffe 00000000 0000002a 00000001 "
        "00000000 00000001 00000000 0000002a 00000001"));
    v.push_back(golden("ReaddirRes/ok-empty", ReaddirRes(),
        "00000000 00000000 00000000"));
    v.push_back(golden("ReaddirRes/err", with_status(ReaddirRes(),
                                                     Status::kNotDir),
        "00000014"));
    v.push_back(golden("FsstatRes/ok", [] {
      FsstatRes r;
      r.total_bytes = 1ull << 40;
      r.free_bytes = (1ull << 40) - 12345;
      r.total_files = 99;
      return r;
    }(),
        "00000000 00000100 00000000 000000ff ffffcfc7 00000000 00000063"));
    v.push_back(golden("FsstatRes/err", with_status(FsstatRes(),
                                                    Status::kStale),
        "00000046"));
    v.push_back(golden("FsinfoRes/ok", FsinfoRes(),
        "00000000 00008000 00008000 00001000"));
    v.push_back(golden("FsinfoRes/err", with_status(FsinfoRes(),
                                                    Status::kStale),
        "00000046"));
    v.push_back(golden("CommitArgs", CommitArgs(kFh, 4096, 8192),
        "00000000 00000001 00000000 0000002a 00000000 00001000 00002000"));
    v.push_back(golden("CommitRes/ok", [] {
      CommitRes r;
      r.verf = 0x0102030405060708ull;
      return r;
    }(),
        "00000000 01020304 05060708"));
    v.push_back(golden("CommitRes/err", with_status(CommitRes(),
                                                    Status::kJukebox),
        "00002718"));
    v.push_back(golden("MntArgs", MntArgs("/GFS"),
        "00000004 2f474653"));
    v.push_back(golden("MntRes/ok", [] {
      MntRes r;
      r.root_fh = Fh(1, 1);
      return r;
    }(),
        "00000000 00000000 00000001 00000000 00000001"));
    v.push_back(golden("MntRes/err", with_status(MntRes(), Status::kAcces),

        "0000000d"));
    return v;
  }();
  return cases;
}

TEST(Nfs3Wire, GoldenBytes) {
  for (const Golden& g : goldens()) {
    EXPECT_EQ(hex_words(g.encode()), g.hex) << g.name;
  }
}

// --- seeded round trips ------------------------------------------------------
//
// decode(encode(x)) must carry every field the wire carries: re-encoding
// the decoded value gives back the same bytes (fields a status shape leaves
// off the wire are the only ones allowed to differ from x).

uint32_t u32(Rng& r) { return static_cast<uint32_t>(r.next_u64()); }
bool flip(Rng& r) { return r.next_below(2) == 1; }
Fh rfh(Rng& r) { return Fh(r.next_u64(), r.next_u64()); }

Status rstatus(Rng& r) {
  static const Status kErrors[] = {Status::kPerm,  Status::kNoEnt,
                                   Status::kAcces, Status::kExist,
                                   Status::kStale, Status::kJukebox};
  return flip(r) ? Status::kOk : kErrors[r.next_below(std::size(kErrors))];
}

std::string rname(Rng& r, size_t max_len) {
  std::string s(r.next_below(max_len + 1), ' ');
  for (char& c : s) c = static_cast<char>('a' + r.next_below(26));
  return s;
}

BufChain rdata(Rng& r) { return BufChain(r.bytes(r.next_below(70))); }

vfs::Attributes rattrs(Rng& r) {
  static const vfs::FileType kTypes[] = {vfs::FileType::kRegular,
                                         vfs::FileType::kDirectory,
                                         vfs::FileType::kSymlink};
  vfs::Attributes a;
  a.type = kTypes[r.next_below(3)];
  a.mode = u32(r);
  a.nlink = u32(r);
  a.uid = u32(r);
  a.gid = u32(r);
  a.size = r.next_u64();
  a.atime = static_cast<int64_t>(r.next_u64());
  a.mtime = static_cast<int64_t>(r.next_u64());
  a.ctime = static_cast<int64_t>(r.next_u64());
  a.fileid = r.next_u64();
  return a;
}

std::optional<vfs::Attributes> ropt_attrs(Rng& r) {
  if (!flip(r)) return std::nullopt;
  return rattrs(r);
}

StableHow rstable(Rng& r) { return static_cast<StableHow>(r.next_below(3)); }

void fill(Rng&, Void&) {}
void fill(Rng& r, GetattrArgs& a) { a.fh = rfh(r); }
void fill(Rng& r, GetattrRes& x) {
  x.status = rstatus(r);
  x.attrs = rattrs(r);
}
void fill(Rng& r, SetattrArgs& a) {
  a.fh = rfh(r);
  if (flip(r)) a.sattr.mode = u32(r);
  if (flip(r)) a.sattr.uid = u32(r);
  if (flip(r)) a.sattr.gid = u32(r);
  if (flip(r)) a.sattr.size = r.next_u64();
  if (flip(r)) a.sattr.atime = static_cast<int64_t>(r.next_u64());
  if (flip(r)) a.sattr.mtime = static_cast<int64_t>(r.next_u64());
}
void fill(Rng& r, WccRes& x) {
  x.status = rstatus(r);
  x.post_attrs = ropt_attrs(r);
}
void fill(Rng& r, DiropArgs& a) {
  a.dir = rfh(r);
  a.name = rname(r, 255);
}
void fill(Rng& r, LookupRes& x) {
  x.status = rstatus(r);
  x.fh = rfh(r);
  x.attrs = ropt_attrs(r);
  x.dir_attrs = ropt_attrs(r);
}
void fill(Rng& r, AccessArgs& a) {
  a.fh = rfh(r);
  a.access = u32(r);
}
void fill(Rng& r, AccessRes& x) {
  x.status = rstatus(r);
  x.access = u32(r);
  x.post_attrs = ropt_attrs(r);
}
void fill(Rng& r, ReadlinkRes& x) {
  x.status = rstatus(r);
  x.target = rname(r, kMaxPathBytes);
}
void fill(Rng& r, ReadArgs& a) {
  a.fh = rfh(r);
  a.offset = r.next_u64();
  a.count = u32(r);
}
void fill(Rng& r, ReadRes& x) {
  x.status = rstatus(r);
  x.count = u32(r);
  x.eof = flip(r);
  x.data = rdata(r);
  x.post_attrs = ropt_attrs(r);
}
void fill(Rng& r, WriteArgs& a) {
  a.fh = rfh(r);
  a.offset = r.next_u64();
  a.stable = rstable(r);
  a.data = rdata(r);
}
void fill(Rng& r, WriteRes& x) {
  x.status = rstatus(r);
  x.count = u32(r);
  x.committed = rstable(r);
  x.verf = r.next_u64();
  x.post_attrs = ropt_attrs(r);
}
void fill(Rng& r, CreateArgs& a) {
  a = create_args(rfh(r), rname(r, 255), u32(r), flip(r));
}
void fill(Rng& r, CreateRes& x) {
  x.status = rstatus(r);
  x.fh = rfh(r);
  x.attrs = ropt_attrs(r);
  x.dir_attrs = ropt_attrs(r);
}
void fill(Rng& r, MkdirArgs& a) {
  a = mkdir_args(rfh(r), rname(r, 255), u32(r));
}
void fill(Rng& r, SymlinkArgs& a) {
  a = symlink_args(rfh(r), rname(r, 255), rname(r, kMaxPathBytes));
}
void fill(Rng& r, RenameArgs& a) {
  a.from_dir = rfh(r);
  a.from_name = rname(r, 255);
  a.to_dir = rfh(r);
  a.to_name = rname(r, 255);
}
void fill(Rng& r, LinkArgs& a) {
  a.file = rfh(r);
  a.dir = rfh(r);
  a.name = rname(r, 255);
}
void fill(Rng& r, ReaddirArgs& a) {
  a.dir = rfh(r);
  a.cookie = r.next_u64();
  a.count = u32(r);
  a.plus = flip(r);
}
void fill(Rng& r, ReaddirRes& x) {
  x.status = rstatus(r);
  x.entries.resize(r.next_below(5));
  for (DirEntry3& e : x.entries) {
    e.fileid = r.next_u64();
    e.name = rname(r, 255);
    e.cookie = r.next_u64();
    e.attrs = ropt_attrs(r);
    if (flip(r)) e.fh = rfh(r);
  }
  x.eof = flip(r);
}
void fill(Rng& r, FsstatRes& x) {
  x.status = rstatus(r);
  x.total_bytes = r.next_u64();
  x.free_bytes = r.next_u64();
  x.total_files = r.next_u64();
}
void fill(Rng& r, FsinfoRes& x) {
  x.status = rstatus(r);
  x.rtmax = u32(r);
  x.wtmax = u32(r);
  x.dtpref = u32(r);
}
void fill(Rng& r, CommitArgs& a) {
  a.fh = rfh(r);
  a.offset = r.next_u64();
  a.count = u32(r);
}
void fill(Rng& r, CommitRes& x) {
  x.status = rstatus(r);
  x.verf = r.next_u64();
}
void fill(Rng& r, MntArgs& a) { a.dirpath = rname(r, 1024); }
void fill(Rng& r, MntRes& x) {
  x.status = rstatus(r);
  x.root_fh = rfh(r);
}

template <typename T>
void round_trips(const std::string& what) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed * 7919 + what.size());
    T x;
    fill(rng, x);
    const BufChain bytes = wire(x);
    ASSERT_EQ(bytes.size() % 4, 0u) << what;
    EXPECT_EQ(hex_words(wire(unwire<T>(bytes))), hex_words(bytes))
        << what << " seed " << seed;
  }
}

TEST(Nfs3Wire, SeededRoundTripsForEveryTableEntry) {
  for (Proc3 p : kProcs3) {
    visit_proc3(p, [](auto proc) {
      round_trips<typename decltype(proc)::Args>(std::string(proc.kName) +
                                                 " args");
      round_trips<typename decltype(proc)::Res>(std::string(proc.kName) +
                                                " res");
    });
  }
  round_trips<MntArgs>("MNT args");
  round_trips<MntRes>("MNT res");
}

// --- the table against RFC 1813 --------------------------------------------

TEST(Nfs3Wire, TableNamesAndDrcClassesMatchRfc1813) {
  const std::vector<std::pair<Proc3, const char*>> kNames = {
      {Proc3::kNull, "NULL"},         {Proc3::kGetattr, "GETATTR"},
      {Proc3::kSetattr, "SETATTR"},   {Proc3::kLookup, "LOOKUP"},
      {Proc3::kAccess, "ACCESS"},     {Proc3::kReadlink, "READLINK"},
      {Proc3::kRead, "READ"},         {Proc3::kWrite, "WRITE"},
      {Proc3::kCreate, "CREATE"},     {Proc3::kMkdir, "MKDIR"},
      {Proc3::kSymlink, "SYMLINK"},   {Proc3::kRemove, "REMOVE"},
      {Proc3::kRmdir, "RMDIR"},       {Proc3::kRename, "RENAME"},
      {Proc3::kLink, "LINK"},         {Proc3::kReaddir, "READDIR"},
      {Proc3::kReaddirplus, "READDIRPLUS"},
      {Proc3::kFsstat, "FSSTAT"},     {Proc3::kFsinfo, "FSINFO"},
      {Proc3::kCommit, "COMMIT"}};
  ASSERT_EQ(kNames.size(), std::size(kProcs3));
  for (size_t i = 0; i < kNames.size(); ++i) {
    EXPECT_EQ(kProcs3[i], kNames[i].first);
    EXPECT_STREQ(proc3_name(kNames[i].first), kNames[i].second);
  }
  EXPECT_STREQ(proc3_name(static_cast<Proc3>(11)), "PROC?");  // MKNOD

  // The classic DRC classification: the procedures whose re-execution is
  // visible.  Unknown numbers count as idempotent (nothing to protect).
  const std::set<Proc3> kNonIdempotent = {
      Proc3::kSetattr, Proc3::kCreate, Proc3::kMkdir,  Proc3::kSymlink,
      Proc3::kRemove,  Proc3::kRmdir,  Proc3::kRename, Proc3::kLink};
  for (Proc3 p : kProcs3) {
    EXPECT_EQ(proc3_is_idempotent(p), kNonIdempotent.count(p) == 0)
        << proc3_name(p);
  }
  EXPECT_TRUE(proc3_is_idempotent(static_cast<Proc3>(11)));
}

// --- jukebox replies -------------------------------------------------------

template <typename Res>
void expect_jukebox_as(Proc3 p, const char* what) {
  const BufChain body = busy_status_reply(p);
  EXPECT_TRUE(reply_is_jukebox(body)) << what;
  Res res = unwire<Res>(body);
  EXPECT_EQ(res.status, Status::kJukebox) << what;
  EXPECT_EQ(hex_words(body), hex_words(wire(with_status(Res(),
                                                        Status::kJukebox))))
      << what;
}

TEST(Nfs3Wire, BusyReplyDecodesAsTheProceduresOwnResult) {
  EXPECT_TRUE(busy_status_reply(Proc3::kNull).empty());
  expect_jukebox_as<GetattrRes>(Proc3::kGetattr, "GETATTR");
  expect_jukebox_as<WccRes>(Proc3::kSetattr, "SETATTR");
  expect_jukebox_as<LookupRes>(Proc3::kLookup, "LOOKUP");
  expect_jukebox_as<AccessRes>(Proc3::kAccess, "ACCESS");
  expect_jukebox_as<ReadlinkRes>(Proc3::kReadlink, "READLINK");
  expect_jukebox_as<ReadRes>(Proc3::kRead, "READ");
  expect_jukebox_as<WriteRes>(Proc3::kWrite, "WRITE");
  expect_jukebox_as<CreateRes>(Proc3::kCreate, "CREATE");
  expect_jukebox_as<CreateRes>(Proc3::kMkdir, "MKDIR");
  expect_jukebox_as<CreateRes>(Proc3::kSymlink, "SYMLINK");
  expect_jukebox_as<WccRes>(Proc3::kRemove, "REMOVE");
  expect_jukebox_as<WccRes>(Proc3::kRmdir, "RMDIR");
  expect_jukebox_as<WccRes>(Proc3::kRename, "RENAME");
  expect_jukebox_as<WccRes>(Proc3::kLink, "LINK");
  expect_jukebox_as<ReaddirRes>(Proc3::kReaddir, "READDIR");
  expect_jukebox_as<ReaddirRes>(Proc3::kReaddirplus, "READDIRPLUS");
  expect_jukebox_as<FsstatRes>(Proc3::kFsstat, "FSSTAT");
  expect_jukebox_as<FsinfoRes>(Proc3::kFsinfo, "FSINFO");
  expect_jukebox_as<CommitRes>(Proc3::kCommit, "COMMIT");
}

// --- per-field decode caps -------------------------------------------------
//
// Each cap is checked on both sides of its bound with the bytes really
// present, so the rejection comes from the cap and not from an underrun.

TEST(Nfs3Wire, NameCapIs255Bytes) {
  EXPECT_NO_THROW(
      unwire<DiropArgs>(wire(DiropArgs(kDir, std::string(255, 'n')))));
  EXPECT_THROW(
      unwire<DiropArgs>(wire(DiropArgs(kDir, std::string(256, 'n')))),
      xdr::XdrError);
  EXPECT_THROW(unwire<CreateArgs>(wire(create_args(kDir, std::string(256, 'n'),
                                                   0644, false))),
               xdr::XdrError);
}

TEST(Nfs3Wire, PathCapIsMaxPathBytes) {
  const std::string ok(kMaxPathBytes, 't');
  const std::string big(kMaxPathBytes + 1, 't');
  EXPECT_NO_THROW(unwire<SymlinkArgs>(wire(symlink_args(kDir, "ln", ok))));
  EXPECT_THROW(unwire<SymlinkArgs>(wire(symlink_args(kDir, "ln", big))),
               xdr::XdrError);
  ReadlinkRes r;
  r.target = ok;
  EXPECT_NO_THROW(unwire<ReadlinkRes>(wire(r)));
  r.target = big;
  EXPECT_THROW(unwire<ReadlinkRes>(wire(r)), xdr::XdrError);
}

TEST(Nfs3Wire, DataCapIsMaxDataBytes) {
  WriteArgs w;
  w.fh = kFh;
  w.data = BufChain(Buffer(kMaxDataBytes, 0x5a));
  EXPECT_EQ(unwire<WriteArgs>(wire(w)).data.size(), kMaxDataBytes);
  w.data = BufChain(Buffer(kMaxDataBytes + 1, 0x5a));
  EXPECT_THROW(unwire<WriteArgs>(wire(w)), xdr::XdrError);
  ReadRes r;
  r.data = BufChain(Buffer(kMaxDataBytes + 1, 0x5a));
  EXPECT_THROW(unwire<ReadRes>(wire(r)), xdr::XdrError);
}

TEST(Nfs3Wire, ReaddirCapIs100000Entries) {
  ReaddirRes r;
  r.entries.resize(100000);
  EXPECT_EQ(unwire<ReaddirRes>(wire(r)).entries.size(), 100000u);
  r.entries.resize(100001);
  EXPECT_THROW(unwire<ReaddirRes>(wire(r)), xdr::XdrError);
}

}  // namespace
}  // namespace sgfs::nfs

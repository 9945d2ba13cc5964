// ONC RPC message format (RFC 5531) and authentication flavors.
//
// NFS and MOUNT run over this layer.  SGFS proxies interpose at exactly this
// level: they parse call messages, rewrite AUTH_SYS credentials (identity
// mapping, paper §4.3) and forward them.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <optional>
#include <string>
#include <vector>

#include "common/bufchain.hpp"
#include "common/bytes.hpp"
#include "xdr/xdr.hpp"

namespace sgfs::rpc {

enum class MsgType : int32_t { kCall = 0, kReply = 1 };

enum class ReplyStat : int32_t { kAccepted = 0, kDenied = 1 };

enum class AcceptStat : int32_t {
  kSuccess = 0,
  kProgUnavail = 1,
  kProgMismatch = 2,
  kProcUnavail = 3,
  kGarbageArgs = 4,
  kSystemErr = 5,
};

enum class RejectStat : int32_t { kRpcMismatch = 0, kAuthError = 1 };

enum class AuthStat : int32_t {
  kOk = 0,
  kBadCred = 1,
  kRejectedCred = 2,
  kBadVerf = 3,
  kRejectedVerf = 4,
  kTooWeak = 5,
  kInvalidResp = 6,
  kFailed = 7,
};

enum class AuthFlavor : int32_t {
  kNone = 0,
  kSys = 1,  // AUTH_SYS / AUTH_UNIX
};

class RpcError : public std::runtime_error {
 public:
  RpcError(AcceptStat stat, const std::string& what)
      : std::runtime_error("rpc: " + what), stat_(stat) {}
  AcceptStat stat() const { return stat_; }

 private:
  AcceptStat stat_;
};

class RpcAuthError : public std::runtime_error {
 public:
  explicit RpcAuthError(AuthStat stat)
      : std::runtime_error("rpc: authentication rejected (" +
                           std::to_string(static_cast<int>(stat)) + ")"),
        stat_(stat) {}
  AuthStat stat() const { return stat_; }

 private:
  AuthStat stat_;
};

/// AUTH_SYS credentials (RFC 5531 Appendix A).
struct AuthSys {
  uint32_t stamp = 0;
  std::string machine_name;
  uint32_t uid = 0;
  uint32_t gid = 0;
  std::vector<uint32_t> gids;

  AuthSys() = default;
  AuthSys(uint32_t u, uint32_t g, std::string machine = "localhost")
      : machine_name(std::move(machine)), uid(u), gid(g) {}

  Buffer serialize() const;
  static AuthSys deserialize(ByteView data);
  bool operator==(const AuthSys&) const = default;
};

struct OpaqueAuth {
  AuthFlavor flavor = AuthFlavor::kNone;
  Buffer body;

  OpaqueAuth() = default;
  OpaqueAuth(AuthFlavor f, Buffer b) : flavor(f), body(std::move(b)) {}

  static OpaqueAuth none() { return OpaqueAuth(); }
  static OpaqueAuth sys(const AuthSys& cred) {
    return OpaqueAuth(AuthFlavor::kSys, cred.serialize());
  }

  void encode(xdr::Encoder& enc) const;
  static OpaqueAuth decode(xdr::Decoder& dec);
  bool operator==(const OpaqueAuth&) const = default;
};

/// A CALL message (header + opaque procedure arguments).
/// `args` is a segment chain: serialize() encodes only the header and
/// grafts the args without copying; deserialize() hands back the message
/// tail as a shared slice of the incoming buffer.
struct CallMsg {
  uint32_t xid = 0;
  uint32_t prog = 0;
  uint32_t vers = 0;
  uint32_t proc = 0;
  OpaqueAuth cred;
  OpaqueAuth verf;
  BufChain args;

  CallMsg() = default;

  BufChain serialize() const;
  /// Encodes a CALL from its parts, so a client sends its credential
  /// without copying it into a CallMsg per call.
  static BufChain serialize(uint32_t xid, uint32_t prog, uint32_t vers,
                            uint32_t proc, const OpaqueAuth& cred,
                            const OpaqueAuth& verf, BufChain args);
  /// Throws xdr::XdrError / std::runtime_error on malformed input.
  static CallMsg deserialize(const BufChain& data);
};

/// A REPLY message.
struct ReplyMsg {
  uint32_t xid = 0;
  ReplyStat stat = ReplyStat::kAccepted;
  // Accepted:
  AcceptStat accept_stat = AcceptStat::kSuccess;
  OpaqueAuth verf;
  BufChain results;               // when accept_stat == kSuccess
  uint32_t mismatch_low = 0;      // when kProgMismatch
  uint32_t mismatch_high = 0;
  // Denied:
  RejectStat reject_stat = RejectStat::kAuthError;
  AuthStat auth_stat = AuthStat::kOk;

  ReplyMsg() = default;

  static ReplyMsg success(uint32_t xid, BufChain results);
  static ReplyMsg error(uint32_t xid, AcceptStat stat);
  static ReplyMsg auth_error(uint32_t xid, AuthStat stat);

  BufChain serialize() const;
  static ReplyMsg deserialize(const BufChain& data);
};

/// Peeks the message type without a full decode.
MsgType peek_type(const BufChain& message);

}  // namespace sgfs::rpc

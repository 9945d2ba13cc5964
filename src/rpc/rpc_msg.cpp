#include "rpc/rpc_msg.hpp"

#include <stdexcept>

namespace sgfs::rpc {

namespace {
constexpr uint32_t kRpcVersion = 2;
constexpr size_t kMaxAuthBody = 400;  // RFC 5531 limit
}  // namespace

Buffer AuthSys::serialize() const {
  xdr::Encoder enc;
  enc.put_u32(stamp);
  enc.put_string(machine_name);
  enc.put_u32(uid);
  enc.put_u32(gid);
  enc.put_u32(static_cast<uint32_t>(gids.size()));
  for (uint32_t g : gids) enc.put_u32(g);
  return enc.take_flat();
}

AuthSys AuthSys::deserialize(ByteView data) {
  xdr::Decoder dec(data);
  AuthSys a;
  a.stamp = dec.get_u32();
  a.machine_name = dec.get_string(255);
  a.uid = dec.get_u32();
  a.gid = dec.get_u32();
  uint32_t n = dec.get_u32();
  if (n > 16) throw std::runtime_error("AUTH_SYS: too many groups");
  a.gids.reserve(n);
  for (uint32_t i = 0; i < n; ++i) a.gids.push_back(dec.get_u32());
  dec.expect_done();
  return a;
}

void OpaqueAuth::encode(xdr::Encoder& enc) const {
  enc.put_enum(flavor);
  enc.put_opaque(body);
}

OpaqueAuth OpaqueAuth::decode(xdr::Decoder& dec) {
  OpaqueAuth a;
  a.flavor = dec.get_enum<AuthFlavor>();
  a.body = dec.get_opaque(kMaxAuthBody);
  return a;
}

BufChain CallMsg::serialize() const {
  return serialize(xid, prog, vers, proc, cred, verf, args);
}

BufChain CallMsg::serialize(uint32_t xid, uint32_t prog, uint32_t vers,
                            uint32_t proc, const OpaqueAuth& cred,
                            const OpaqueAuth& verf, BufChain args) {
  xdr::Encoder enc;
  enc.put_u32(xid);
  enc.put_enum(MsgType::kCall);
  enc.put_u32(kRpcVersion);
  enc.put_u32(prog);
  enc.put_u32(vers);
  enc.put_u32(proc);
  cred.encode(enc);
  verf.encode(enc);
  BufChain out = enc.take();
  out.append(std::move(args));
  return out;
}

CallMsg CallMsg::deserialize(const BufChain& data) {
  xdr::Decoder dec(data);
  CallMsg c;
  c.xid = dec.get_u32();
  if (dec.get_enum<MsgType>() != MsgType::kCall) {
    throw std::runtime_error("not a CALL message");
  }
  if (dec.get_u32() != kRpcVersion) {
    throw std::runtime_error("unsupported RPC version");
  }
  c.prog = dec.get_u32();
  c.vers = dec.get_u32();
  c.proc = dec.get_u32();
  c.cred = OpaqueAuth::decode(dec);
  c.verf = OpaqueAuth::decode(dec);
  c.args = dec.remainder_ref();
  return c;
}

ReplyMsg ReplyMsg::success(uint32_t xid, BufChain results) {
  ReplyMsg r;
  r.xid = xid;
  r.stat = ReplyStat::kAccepted;
  r.accept_stat = AcceptStat::kSuccess;
  r.results = std::move(results);
  return r;
}

ReplyMsg ReplyMsg::error(uint32_t xid, AcceptStat stat) {
  ReplyMsg r;
  r.xid = xid;
  r.stat = ReplyStat::kAccepted;
  r.accept_stat = stat;
  return r;
}

ReplyMsg ReplyMsg::auth_error(uint32_t xid, AuthStat stat) {
  ReplyMsg r;
  r.xid = xid;
  r.stat = ReplyStat::kDenied;
  r.reject_stat = RejectStat::kAuthError;
  r.auth_stat = stat;
  return r;
}

BufChain ReplyMsg::serialize() const {
  xdr::Encoder enc;
  enc.put_u32(xid);
  enc.put_enum(MsgType::kReply);
  enc.put_enum(stat);
  if (stat == ReplyStat::kAccepted) {
    verf.encode(enc);
    enc.put_enum(accept_stat);
    switch (accept_stat) {
      case AcceptStat::kSuccess: {
        BufChain out = enc.take();
        out.append(results);
        return out;
      }
      case AcceptStat::kProgMismatch:
        enc.put_u32(mismatch_low);
        enc.put_u32(mismatch_high);
        break;
      default:
        break;
    }
  } else {
    enc.put_enum(reject_stat);
    if (reject_stat == RejectStat::kRpcMismatch) {
      enc.put_u32(2);
      enc.put_u32(2);
    } else {
      enc.put_enum(auth_stat);
    }
  }
  return enc.take();
}

ReplyMsg ReplyMsg::deserialize(const BufChain& data) {
  xdr::Decoder dec(data);
  ReplyMsg r;
  r.xid = dec.get_u32();
  if (dec.get_enum<MsgType>() != MsgType::kReply) {
    throw std::runtime_error("not a REPLY message");
  }
  r.stat = dec.get_enum<ReplyStat>();
  if (r.stat == ReplyStat::kAccepted) {
    r.verf = OpaqueAuth::decode(dec);
    r.accept_stat = dec.get_enum<AcceptStat>();
    switch (r.accept_stat) {
      case AcceptStat::kSuccess: {
        r.results = dec.remainder_ref();
        break;
      }
      case AcceptStat::kProgMismatch:
        r.mismatch_low = dec.get_u32();
        r.mismatch_high = dec.get_u32();
        break;
      default:
        break;
    }
  } else {
    r.reject_stat = dec.get_enum<RejectStat>();
    if (r.reject_stat == RejectStat::kRpcMismatch) {
      r.mismatch_low = dec.get_u32();
      r.mismatch_high = dec.get_u32();
    } else {
      r.auth_stat = dec.get_enum<AuthStat>();
    }
  }
  return r;
}

MsgType peek_type(const BufChain& message) {
  // Reads only the second word: cheap even on a segmented chain, without
  // the flatten a full Decoder construction could trigger.
  if (message.size() < 8) throw xdr::XdrError("decode underrun");
  int32_t v = 0;
  for (size_t i = 4; i < 8; ++i) {
    v = (v << 8) | static_cast<int32_t>(message.at(i));
  }
  return static_cast<MsgType>(v);
}

}  // namespace sgfs::rpc

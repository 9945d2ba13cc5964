#include "nfs/nfs3.hpp"

namespace sgfs::nfs {

const char* proc3_name(Proc3 p) {
  const char* name = "PROC?";
  visit_proc3(p, [&](auto proc) { name = proc.kName; });
  return name;
}

bool proc3_is_idempotent(Proc3 p) {
  bool idempotent = true;
  visit_proc3(p, [&](auto proc) { idempotent = proc.kIdempotent; });
  return idempotent;
}

BufChain busy_status_reply(Proc3 p) {
  // The procedure's own result shape (status NFS3ERR_JUKEBOX, no payload),
  // so every decoder along the path — interposing proxies included —
  // parses it like any other failed result.  NULL has no status word to
  // carry: an empty body tells the shedding server to drop instead.
  BufChain body;
  visit_proc3(p, [&](auto proc) {
    using Res = typename decltype(proc)::Res;
    if constexpr (requires(Res r) { r.status; }) {
      body = status_reply<Res>(Status::kJukebox);
    }
  });
  return body;
}

bool reply_is_jukebox(const BufChain& reply) {
  if (reply.size() < 4) return false;
  xdr::Decoder dec(reply);
  return static_cast<Status>(dec.get_u32()) == Status::kJukebox;
}

}  // namespace sgfs::nfs

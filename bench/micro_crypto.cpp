// Microbenchmarks (wall clock, google-benchmark): throughput of the
// from-scratch crypto used on every SGFS byte, on the hardware path the CPU
// supports and on the scalar reference.  These validate that the
// *real* transformations behind the simulation are genuine work.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/bufchain.hpp"
#include "common/rng.hpp"
#include "crypto/accel.hpp"
#include "crypto/aes.hpp"
#include "crypto/hmac.hpp"
#include "crypto/rc4.hpp"
#include "crypto/rsa.hpp"
#include "crypto/sha.hpp"

using namespace sgfs;
using namespace sgfs::crypto;

namespace {

Buffer payload(size_t n) {
  Rng rng(1);
  return rng.bytes(n);
}

// Each hash/HMAC/AES row has a *Scalar twin at the same sizes: the same
// code pinned to the scalar reference kernels (crypto/accel.hpp), so one
// run shows what the hardware path buys on this CPU.

template <typename Hash>
void hash_row(benchmark::State& state) {
  Buffer data = payload(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Hash::hash(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}

void BM_Sha1(benchmark::State& state) { hash_row<Sha1>(state); }
void BM_Sha1Scalar(benchmark::State& state) {
  hash_row<accel::ScalarSha1>(state);
}
BENCHMARK(BM_Sha1)->Arg(1024)->Arg(32 * 1024)->Arg(1024 * 1024);
BENCHMARK(BM_Sha1Scalar)->Arg(1024)->Arg(32 * 1024)->Arg(1024 * 1024);

void BM_Sha256(benchmark::State& state) { hash_row<Sha256>(state); }
void BM_Sha256Scalar(benchmark::State& state) {
  hash_row<accel::ScalarSha256>(state);
}
BENCHMARK(BM_Sha256)->Arg(32 * 1024);
BENCHMARK(BM_Sha256Scalar)->Arg(32 * 1024);

template <typename Hash>
void hmac_row(benchmark::State& state) {
  Buffer key = payload(20);
  Buffer data = payload(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Hmac<Hash>::mac(key, data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}

void BM_HmacSha1(benchmark::State& state) { hmac_row<Sha1>(state); }
void BM_HmacSha1Scalar(benchmark::State& state) {
  hmac_row<accel::ScalarSha1>(state);
}
BENCHMARK(BM_HmacSha1)->Arg(32 * 1024);
BENCHMARK(BM_HmacSha1Scalar)->Arg(32 * 1024);

template <typename Cipher>
void aes_encrypt_row(benchmark::State& state) {
  Cipher aes(payload(32));
  Buffer iv = payload(16);
  Buffer data = payload(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(aes_cbc_encrypt(aes, iv, data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}

template <typename Cipher>
void aes_decrypt_row(benchmark::State& state) {
  Cipher aes(payload(32));
  Buffer iv = payload(16);
  Buffer ct = aes_cbc_encrypt(aes, iv, payload(static_cast<size_t>(
                                           state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(aes_cbc_decrypt(aes, iv, ct));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}

void BM_Aes256CbcEncrypt(benchmark::State& state) {
  aes_encrypt_row<Aes>(state);
}
void BM_Aes256CbcEncryptScalar(benchmark::State& state) {
  aes_encrypt_row<accel::ScalarAes>(state);
}
BENCHMARK(BM_Aes256CbcEncrypt)->Arg(32 * 1024);
BENCHMARK(BM_Aes256CbcEncryptScalar)->Arg(32 * 1024);

void BM_Aes256CbcDecrypt(benchmark::State& state) {
  aes_decrypt_row<Aes>(state);
}
void BM_Aes256CbcDecryptScalar(benchmark::State& state) {
  aes_decrypt_row<accel::ScalarAes>(state);
}
BENCHMARK(BM_Aes256CbcDecrypt)->Arg(32 * 1024);
BENCHMARK(BM_Aes256CbcDecryptScalar)->Arg(32 * 1024);

// The AES-256 + HMAC-SHA1 record seal of an n-byte plaintext, written into
// one buffer behind an 8-byte MAC prefix (the record sequence number).
// BM_RecordSeal is cbc_encrypt_then_mac: one stitched pass where the CPU has
// AES-NI and SHA-NI.  BM_RecordSealTwoPass produces the same bytes with the
// CBC run and then the MAC over the finished ciphertext.
struct RecordSealRow {
  Aes aes{payload(32)};
  HmacSha1 mac{payload(20)};
  Buffer iv = payload(16);
  Buffer data;
  BufChain body;
  Buffer out;
  size_t ct_len;

  explicit RecordSealRow(size_t n)
      : data(payload(n)),
        body(data),
        out(8 + cbc_ciphertext_size(n) + Sha1::kDigestSize, 0x5a),
        ct_len(cbc_ciphertext_size(n)) {}

  void one_pass() {
    cbc_encrypt_then_mac(aes, iv, {}, body, mac, out.data() + 8, 8);
  }

  void two_pass() {
    uint8_t chain[16];
    std::memcpy(chain, iv.data(), 16);
    const size_t whole = data.size() / 16;
    uint8_t* ct = out.data() + 8;
    aes.cbc_encrypt_run(chain, data.data(), ct, whole);
    uint8_t last[16];
    const size_t tail = data.size() % 16;
    std::memcpy(last, data.data() + 16 * whole, tail);
    std::memset(last + tail, static_cast<int>(16 - tail), 16 - tail);
    aes.cbc_encrypt_run(chain, last, ct + 16 * whole, 1);
    mac.update(ByteView(out.data(), 8 + ct_len));
    const auto tag = mac.finish();
    std::memcpy(ct + ct_len, tag.data(), tag.size());
  }
};

void BM_RecordSeal(benchmark::State& state) {
  RecordSealRow row(static_cast<size_t>(state.range(0)));
  row.two_pass();
  const Buffer want = row.out;
  row.one_pass();
  if (row.out != want) {
    state.SkipWithError("one-pass seal differs from the two-pass one");
    return;
  }
  for (auto _ : state) {
    row.one_pass();
    benchmark::DoNotOptimize(row.out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
void BM_RecordSealTwoPass(benchmark::State& state) {
  RecordSealRow row(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    row.two_pass();
    benchmark::DoNotOptimize(row.out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RecordSeal)->Arg(1024)->Arg(16 * 1024)->Arg(32 * 1024);
BENCHMARK(BM_RecordSealTwoPass)->Arg(1024)->Arg(16 * 1024)->Arg(32 * 1024);

void BM_Rc4(benchmark::State& state) {
  Buffer key = payload(16);
  Buffer data = payload(static_cast<size_t>(state.range(0)));
  Rc4 rc4(key);
  for (auto _ : state) {
    rc4.process(data);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Rc4)->Arg(32 * 1024);

// RSA rows use a 512-bit key, the size every simulated credential has.
// BM_RsaSignSha1Reference is the same private operation on the
// square-and-multiply reference (crypto/accel.hpp) over n, without CRT.

void BM_RsaSignSha1(benchmark::State& state) {
  Rng rng(7);
  RsaKeyPair kp = rsa_generate(rng, 512);
  Buffer msg = payload(1024);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rsa_sign_sha1(kp.priv, msg));
  }
}
BENCHMARK(BM_RsaSignSha1);

void BM_RsaSignSha1Reference(benchmark::State& state) {
  Rng rng(7);
  RsaKeyPair kp = rsa_generate(rng, 512);
  Buffer msg = payload(1024);
  // The padded digest the signature encodes; the loop times its private
  // exponentiation and export, as rsa_sign_sha1 does after padding.
  const Buffer sig = rsa_sign_sha1(kp.priv, msg);
  const BigInt em = BigInt::mod_exp(BigInt::from_bytes(sig), kp.pub.e,
                                    kp.pub.n);
  const size_t width = kp.pub.modulus_bytes();
  if (accel::mod_exp_reference(em, kp.priv.d, kp.priv.n)
          .to_bytes_padded(width) != sig) {
    state.SkipWithError("reference signature differs from rsa_sign_sha1");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        accel::mod_exp_reference(em, kp.priv.d, kp.priv.n)
            .to_bytes_padded(width));
  }
}
BENCHMARK(BM_RsaSignSha1Reference);

void BM_RsaDecrypt(benchmark::State& state) {
  Rng rng(7);
  RsaKeyPair kp = rsa_generate(rng, 512);
  Buffer ct = rsa_encrypt(kp.pub, rng, payload(48));
  for (auto _ : state) {
    benchmark::DoNotOptimize(rsa_decrypt(kp.priv, ct));
  }
}
BENCHMARK(BM_RsaDecrypt);

void BM_RsaGenerate512(benchmark::State& state) {
  // A fresh stream per key: each iteration generates a different key, so
  // the row averages over candidate counts.
  Rng rng(8);
  for (auto _ : state) {
    Rng key_rng = rng.fork();
    benchmark::DoNotOptimize(rsa_generate(key_rng, 512));
  }
}
BENCHMARK(BM_RsaGenerate512)->Unit(benchmark::kMillisecond);

void BM_RsaVerifySha1(benchmark::State& state) {
  Rng rng(7);
  RsaKeyPair kp = rsa_generate(rng, 512);
  Buffer msg = payload(1024);
  Buffer sig = rsa_sign_sha1(kp.priv, msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rsa_verify_sha1(kp.pub, msg, sig));
  }
}
BENCHMARK(BM_RsaVerifySha1);

// The two halves of the arithmetic above, on the 256-bit factor p of the
// same key: one CRT half of a private operation (exponent dp) and the
// Miller-Rabin test keygen runs on each candidate that passes trial
// division (all 24 rounds, since p is prime).

void BM_RsaModExpCrtHalf(benchmark::State& state) {
  Rng rng(7);
  RsaKeyPair kp = rsa_generate(rng, 512);
  const BigInt x = BigInt::random_below(rng, kp.priv.p);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BigInt::mod_exp(x, kp.priv.dp, kp.priv.p));
  }
}
BENCHMARK(BM_RsaModExpCrtHalf);

void BM_RsaIsProbablePrime256(benchmark::State& state) {
  Rng rng(7);
  RsaKeyPair kp = rsa_generate(rng, 512);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kp.priv.p.is_probable_prime(rng));
  }
}
BENCHMARK(BM_RsaIsProbablePrime256)->Unit(benchmark::kMicrosecond);

// --- WAN stream pool: abbreviated-handshake key schedule ---------------------
//
// A resumed sibling stream never touches RSA: both ends expand the ticket's
// resumption secret through the HMAC-SHA256 PRF (premaster, then master,
// then the 144-byte key block).  This mirrors SecureChannel's schedule so
// the wall-clock gap to BM_RsaSignSha1/BM_RsaEncryptPremaster is the real
// cost difference between a full handshake and opening one more stream.

Buffer expand(ByteView secret, const std::string& label, ByteView seed,
              size_t out_len) {
  Buffer out;
  uint32_t counter = 0;
  while (out.size() < out_len) {
    HmacSha256 h(secret);
    h.update(to_bytes(label));
    h.update(seed);
    Buffer c = {static_cast<uint8_t>(counter >> 24),
                static_cast<uint8_t>(counter >> 16),
                static_cast<uint8_t>(counter >> 8),
                static_cast<uint8_t>(counter)};
    h.update(c);
    auto d = h.finish();
    for (auto b : d) out.push_back(b);
    ++counter;
  }
  out.resize(out_len);
  return out;
}

Buffer stream_key_block(ByteView resumption_secret, ByteView session_id,
                        uint32_t stream_index, ByteView randoms) {
  Buffer seed(session_id.begin(), session_id.end());
  for (int i = 7; i >= 0; --i) {
    seed.push_back(static_cast<uint8_t>(
        (static_cast<uint64_t>(stream_index) >> (8 * i)) & 0xff));
  }
  Buffer premaster = expand(resumption_secret, "sgfs stream", seed, 48);
  Buffer master = expand(premaster, "sgfs master", randoms, 48);
  return expand(master, "sgfs keys", randoms, 144);
}

void BM_StreamKeyExpansion(benchmark::State& state) {
  Rng rng(11);
  Buffer secret = rng.bytes(48);
  Buffer session_id = rng.bytes(16);
  Buffer randoms = rng.bytes(64);
  uint32_t index = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        stream_key_block(secret, session_id, index, randoms));
    ++index;
  }
}
BENCHMARK(BM_StreamKeyExpansion);

void BM_RsaEncryptPremaster(benchmark::State& state) {
  Rng rng(7);
  RsaKeyPair kp = rsa_generate(rng, 512);
  Buffer premaster = payload(48);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rsa_encrypt(kp.pub, rng, premaster));
  }
}
BENCHMARK(BM_RsaEncryptPremaster);

// --- session establishment: full handshake vs ticket vs SSO credential ------
//
// The three ways a session (re)gains service in the unified lifecycle, as
// real crypto work.  The full handshake is the asymmetric exchange the
// connection-storm herd pays per reconnect; ticket resumption is the pure
// PRF schedule a retained ticket buys; the SSO-credential row is the FSS's
// per-authorization cost once the per-user pass is cached (verify the
// caller's envelope, serve the already-signed reply).

struct EstablishRig {
  RsaKeyPair server;
  RsaKeyPair client;
  Buffer randoms;
  Buffer session_id;

  explicit EstablishRig(uint64_t seed) {
    Rng rng(seed);
    server = rsa_generate(rng, 512);
    client = rsa_generate(rng, 512);
    randoms = rng.bytes(64);
    session_id = rng.bytes(16);
  }
};

// Client + server asymmetric work of one full exchange: verify the server
// cert signature, encrypt/decrypt the premaster, sign/verify the client's
// CertificateVerify, then run the symmetric key schedule.
Buffer full_handshake_keys(const EstablishRig& rig, Rng& rng) {
  Buffer cert_tbs = rig.randoms;  // stands in for the serialized cert body
  Buffer cert_sig = rsa_sign_sha1(rig.server.priv, cert_tbs);
  if (!rsa_verify_sha1(rig.server.pub, cert_tbs, cert_sig)) std::abort();
  Buffer premaster = rng.bytes(48);
  Buffer wire = rsa_encrypt(rig.server.pub, rng, premaster);
  Buffer back = rsa_decrypt(rig.server.priv, wire);
  Buffer cv = rsa_sign_sha1(rig.client.priv, rig.randoms);
  if (!rsa_verify_sha1(rig.client.pub, rig.randoms, cv)) std::abort();
  Buffer master = expand(back, "sgfs master", rig.randoms, 48);
  return expand(master, "sgfs keys", rig.randoms, 144);
}

void BM_EstablishFullHandshake(benchmark::State& state) {
  EstablishRig rig(31);
  Rng rng(32);
  for (auto _ : state) {
    benchmark::DoNotOptimize(full_handshake_keys(rig, rng));
  }
}
BENCHMARK(BM_EstablishFullHandshake);

void BM_EstablishTicketResumption(benchmark::State& state) {
  EstablishRig rig(31);
  Rng rng(33);
  Buffer ticket_secret = rng.bytes(48);
  uint32_t resume_index = 0x80000000u;
  for (auto _ : state) {
    benchmark::DoNotOptimize(stream_key_block(ticket_secret, rig.session_id,
                                              resume_index, rig.randoms));
    ++resume_index;
  }
}
BENCHMARK(BM_EstablishTicketResumption);

void BM_EstablishSsoCredential(benchmark::State& state) {
  EstablishRig rig(31);
  Buffer request = payload(256);  // signed SsoAuthorize envelope body
  Buffer sig = rsa_sign_sha1(rig.client.priv, request);
  Buffer cached_reply = payload(512);  // pass-desk reply, signed once ever
  for (auto _ : state) {
    // FSS per-call work with the pass cached: verify the caller, hash the
    // served reply for the transcript — zero private-key operations.
    if (!rsa_verify_sha1(rig.client.pub, request, sig)) std::abort();
    benchmark::DoNotOptimize(Sha256::hash(cached_reply));
  }
}
BENCHMARK(BM_EstablishSsoCredential);

// The establishment rows above are only comparable if the schedules really
// are what they claim: the resumption path must agree between both ends,
// produce distinct keys per resume index, and involve ZERO RSA operations;
// the full-handshake path must round-trip its premaster exactly.  Abort on
// any violation — a cost table for a broken schedule is worthless.
void check_establishment_schedule() {
  EstablishRig rig(41);
  Rng rng(42);
  Buffer full_a = full_handshake_keys(rig, rng);

  Buffer ticket = rng.bytes(48);
  Buffer client_end =
      stream_key_block(ticket, rig.session_id, 0x80000000u, rig.randoms);
  Buffer server_end =
      stream_key_block(ticket, rig.session_id, 0x80000000u, rig.randoms);
  if (client_end != server_end) {
    std::fprintf(stderr,
                 "FATAL: resumption key disagreement between ends\n");
    std::abort();
  }
  Buffer next =
      stream_key_block(ticket, rig.session_id, 0x80000001u, rig.randoms);
  if (next == client_end) {
    std::fprintf(stderr,
                 "FATAL: resume indices share a key block — reconnect key "
                 "separation is broken\n");
    std::abort();
  }
  if (client_end == full_a) {
    std::fprintf(stderr, "FATAL: resumed keys equal full-handshake keys\n");
    std::abort();
  }
  Buffer premaster = rng.bytes(48);
  Buffer wire = rsa_encrypt(rig.server.pub, rng, premaster);
  if (rsa_decrypt(rig.server.priv, wire) != premaster) {
    std::fprintf(stderr, "FATAL: premaster does not round-trip\n");
    std::abort();
  }
  std::printf("establishment schedule self-check: full/resume/SSO rows "
              "consistent, resume path uses 0 RSA operations\n");
}

// K streams of one session must cost ONE RSA exchange: every sibling key
// comes out of the symmetric PRF above (zero RSA calls by construction),
// each stream index yields a distinct key block, and both ends derive the
// same block from the shared ticket.  Abort the benchmark binary if any of
// that breaks — a perf number for a broken schedule is worthless.
void check_stream_key_schedule() {
  Rng rng(21);
  Buffer secret = rng.bytes(48);
  Buffer session_id = rng.bytes(16);
  Buffer randoms = rng.bytes(64);
  std::vector<Buffer> blocks;
  for (uint32_t i = 0; i < 8; ++i) {
    Buffer client = stream_key_block(secret, session_id, i, randoms);
    Buffer server = stream_key_block(secret, session_id, i, randoms);
    if (client != server) {
      std::fprintf(stderr,
                   "FATAL: stream %u key disagreement between ends\n", i);
      std::abort();
    }
    for (const Buffer& prev : blocks) {
      if (prev == client) {
        std::fprintf(stderr,
                     "FATAL: duplicate key block at stream %u — per-stream "
                     "key separation is broken\n", i);
        std::abort();
      }
    }
    blocks.push_back(std::move(client));
  }
  std::printf("stream-key schedule self-check: 8 streams, 8 distinct key "
              "blocks, both ends agree, 0 RSA operations\n");
}

}  // namespace

int main(int argc, char** argv) {
  check_stream_key_schedule();
  check_establishment_schedule();
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}

// Flash-crowd harness tests: determinism and the Byzantine-replica gates the
// bench enforces, on a crowd small enough for the tier-1 suite.
#include <gtest/gtest.h>

#include "fleet/flashcrowd.hpp"

namespace sgfs::fleet {
namespace {

FlashcrowdOptions byzantine_opts(uint64_t seed) {
  FlashcrowdOptions opt;
  opt.clients = 24;
  opt.replicas = 3;
  opt.file_blocks = 8;
  opt.ramp_s = 0.5;
  opt.seed = seed;
  // A quarter of the fleet serves corrupt blocks under honest proofs.
  opt.faults.fraction = 0.25;
  opt.faults.corrupt = true;
  return opt;
}

TEST(Flashcrowd, ByzantineCrowdReplaysBitIdentically) {
  const FlashcrowdOptions opt = byzantine_opts(42);
  const FlashcrowdResult a = run_flashcrowd(opt);
  const FlashcrowdResult b = run_flashcrowd(opt);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_EQ(a.sim_errors, 0u);
  EXPECT_EQ(a.clients_done, static_cast<uint64_t>(opt.clients));
  // Verified clients never serve a corrupt byte, and the check is not
  // vacuous: the Byzantine replica was caught lying.
  EXPECT_EQ(a.corrupt_bytes, 0u);
  EXPECT_GT(a.verify_failures, 0u);
}

TEST(Flashcrowd, SeedChangesTheRun) {
  const FlashcrowdResult a = run_flashcrowd(byzantine_opts(42));
  const FlashcrowdResult b = run_flashcrowd(byzantine_opts(43));
  EXPECT_NE(a.fingerprint(), b.fingerprint());
}

}  // namespace
}  // namespace sgfs::fleet

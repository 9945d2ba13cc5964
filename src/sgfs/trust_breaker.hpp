// Shared Active -> Open -> Probe breaker state machine.
//
// Two independent trust loops share this shape: the client proxy's
// poisoned-cache bypass (DESIGN.md §15) and the replica blacklist
// (DESIGN.md §16).  This is the one implementation both configure:
//
//   kActive: failures accumulate as strikes.  window > 0 decays a strike
//            streak whose last failure is older than the window (the cache
//            "poison burst" semantics); window == 0 counts consecutive
//            failures, reset only by success.  `burst` strikes trip the
//            breaker; burst <= 0 disables tripping entirely.
//   kOpen:   admitting() is false until open_duration elapses.  What
//            "not admitting" means is the caller's business (cache
//            bypass, replica skipped).
//   kProbe:  reached when the open window expires: the next success
//            closes the breaker (note_success), the next failure re-trips
//            it immediately — no fresh burst needed.
//
// note_failure() returns true exactly when that failure trips the breaker,
// so callers hang their side effects (metrics, purges, connection drops)
// off the edge rather than polling state.
#pragma once

#include "sim/time.hpp"

namespace sgfs::core {

class TrustBreaker {
 public:
  enum class State { kActive, kOpen, kProbe };

  struct Policy {
    int burst = 0;                // failures to trip; <= 0 disables
    sim::SimDur window = 0;       // strike decay; 0 = consecutive-only
    sim::SimDur open_duration = 0;
    Policy() = default;
  };

  TrustBreaker() = default;
  explicit TrustBreaker(Policy policy) : policy_(policy) {}

  /// Records one failure; returns true when this failure trips the breaker
  /// (kActive with a full burst, or any failure while probing).
  bool note_failure(sim::SimTime now) {
    if (policy_.window > 0 && now - last_failure_ > policy_.window) {
      strikes_ = 0;
    }
    last_failure_ = now;
    ++strikes_;
    if (state_ == State::kProbe) {
      // The trial failed: straight back to open.  The strike streak is
      // preserved (it is already at/above the burst).
      state_ = State::kOpen;
      open_until_ = now + policy_.open_duration;
      return true;
    }
    if (state_ == State::kActive && policy_.burst > 0 &&
        strikes_ >= policy_.burst) {
      state_ = State::kOpen;
      open_until_ = now + policy_.open_duration;
      strikes_ = 0;
      return true;
    }
    return false;
  }

  /// Records a success: closes a probing breaker and clears the streak.
  void note_success() {
    strikes_ = 0;
    if (state_ == State::kProbe) state_ = State::kActive;
  }

  /// Whether traffic should flow right now.  Takes the kOpen -> kProbe
  /// expiry edge; compare state() around the call to observe it (probe
  /// metrics).
  bool admitting(sim::SimTime now) {
    if (state_ == State::kOpen && now >= open_until_) state_ = State::kProbe;
    return state_ != State::kOpen;
  }

  State state() const { return state_; }

 private:
  Policy policy_;
  State state_ = State::kActive;
  int strikes_ = 0;
  sim::SimTime last_failure_ = 0;
  sim::SimTime open_until_ = 0;
};

}  // namespace sgfs::core

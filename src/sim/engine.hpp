// Discrete-event simulation engine.
//
// The Engine owns a virtual clock and one event order, (time, insertion
// sequence) — the sequence number makes runs bit-deterministic.  An event
// is either a coroutine resumption or a Callback node (a frame-less timer:
// network deliveries and RPC retransmission timers).  Detached actors are
// started with spawn(); they run until completion and report escaped
// exceptions to the engine's error list.
//
// Events at the current instant wait in a FIFO in front of a 4-ary heap.
// Every one of them was queued after the clock reached now, so it carries a
// larger sequence number than any heap event at now: merging the two needs
// only the heap top (DESIGN.md §18).
//
// A queued Callback node can be cancelled (Engine::cancel): an answered
// RPC removes its retransmission timer instead of letting it fire stale.
// Tasks are cancelled cooperatively: they exit when their channels close or
// their shutdown events fire.  The engine never destroys a live task
// mid-run; any coroutines still suspended at engine destruction are
// destroyed then, and pending Callback nodes are freed.
#pragma once

#include <coroutine>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace sgfs::sim {

class Engine {
 public:
  Engine() = default;
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  SimTime now() const { return now_; }

  /// Per-simulation metrics namespace: one registry per engine, shared by
  /// every instrumented layer running on this engine.
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  /// Per-simulation RPC span tracer (recording off by default).
  obs::Tracer& tracer() { return tracer_; }
  const obs::Tracer& tracer() const { return tracer_; }

  /// A self-owned event node.  run() executes at the posted time and must
  /// either delete the node or post it again; a node still pending when the
  /// engine is destroyed, or cancelled, is deleted by the engine.  Nodes
  /// come from SmallObjectPool.
  class Callback {
   public:
    Callback() = default;
    Callback(const Callback&) = delete;
    Callback& operator=(const Callback&) = delete;
    virtual ~Callback() = default;
    virtual void run() = 0;

    static void* operator new(std::size_t n) {
      return SmallObjectPool::allocate(n);
    }
    static void operator delete(void* p, std::size_t n) noexcept {
      SmallObjectPool::release(p, n);
    }

   private:
    friend class Engine;
    // Where the node waits: its heap index, kInFifo, or kIdle while it is
    // not queued (running, or not yet posted).
    size_t slot_ = kIdle;
    bool cancelled_ = false;  // cancelled while in the same-instant FIFO
  };

  /// Enqueues a coroutine resumption at absolute time t (earlier t runs
  /// now).
  void schedule_at(SimTime t, std::coroutine_handle<> h) {
    push(t, reinterpret_cast<uintptr_t>(h.address()));
  }

  /// Enqueues a resumption at the current time (after already-queued
  /// same-time events — FIFO fairness).
  void schedule_now(std::coroutine_handle<> h) { schedule_at(now_, h); }

  /// Enqueues a Callback node at absolute time t; the engine owns it until
  /// it runs.
  void post_at(SimTime t, Callback* cb) {
    push(t, reinterpret_cast<uintptr_t>(cb) | kCallbackTag);
  }

  /// Runs `fn` at absolute time t through two events: an arm event now,
  /// which posts the call for t.  The arm hop gives the call the same
  /// (t, seq) as the wakeup of an actor spawned now that sleeps until t,
  /// so either form leaves every other event where it was.  Returns the
  /// node, which cancel() accepts until `fn` starts.
  template <typename F>
  Callback* call_at(SimTime t, F fn) {
    Callback* node = new TimedCall<F>(*this, t, std::move(fn));
    post_at(now_, node);
    return node;
  }

  /// Withdraws a queued Callback node and frees it: a node in the heap is
  /// removed at once (by the index it keeps), a node in the same-instant
  /// FIFO is flagged and freed when it comes up, without running or
  /// counting as an event.  No other event's (t, seq) changes.  The node
  /// must not have started running.  A no-op while the engine is being
  /// destroyed, which frees every pending node itself.
  void cancel(Callback* node);

  /// Starts a detached actor.  The engine owns its lifetime.
  void spawn(Task<void> task);

  /// Takes one event off the queue and runs it (a node cancelled in the
  /// FIFO is freed instead).  Returns false when the queue is empty.
  bool step();

  /// Runs until the event queue drains.
  void run();

  /// Runs events with timestamp <= t, then advances the clock to t.
  void run_until(SimTime t);

  /// Drives the engine until `task` completes (spawns it internally).
  /// Throws std::runtime_error if the queue drains first (deadlock).
  void run_task(Task<void> task);

  size_t pending_events() const {
    return heap_.size() + (fifo_.size() - fifo_head_);
  }
  size_t live_actors() const { return live_count_; }

  /// Total events executed by step() since construction.  Dividing by
  /// wall-clock elapsed time gives the simulator's events/sec figure, which
  /// the fleet bench tracks as a benchmark of the engine itself.
  uint64_t events_processed() const { return events_processed_; }
  /// Total detached actors ever started with spawn().
  uint64_t actors_spawned() const { return actors_spawned_; }

  /// Messages from actors that terminated with an exception.
  const std::vector<std::string>& errors() const { return errors_; }

  // --- awaitables ---------------------------------------------------------

  struct SleepAwaiter {
    Engine& eng;
    SimTime wake;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) { eng.schedule_at(wake, h); }
    void await_resume() const noexcept {}
  };

  /// co_await eng.sleep(d): resume d simulated ns later.
  SleepAwaiter sleep(SimDur d) { return {*this, now_ + (d > 0 ? d : 0)}; }

  /// co_await eng.sleep_until(t): resume at absolute time t.
  SleepAwaiter sleep_until(SimTime t) {
    return {*this, t > now_ ? t : now_};
  }

  /// co_await eng.yield(): requeue behind same-time events.
  SleepAwaiter yield() { return {*this, now_}; }

 private:
  friend void detail::finish_detached(detail::PromiseBase&,
                                      std::coroutine_handle<>) noexcept;

  template <typename F>
  class TimedCall final : public Callback {
   public:
    TimedCall(Engine& eng, SimTime at, F fn)
        : eng_(eng), at_(at), fn_(std::move(fn)) {}
    void run() override {
      if (!armed_) {
        armed_ = true;
        eng_.post_at(at_, this);
        return;
      }
      std::unique_ptr<TimedCall> self(this);
      fn_();
    }

   private:
    Engine& eng_;
    SimTime at_;
    F fn_;
    bool armed_ = false;
  };

  // Low bit of Event::what: set for a Callback*, clear for a coroutine
  // frame address (both are at least 8-byte aligned).
  static constexpr uintptr_t kCallbackTag = 1;
  static constexpr size_t kIdle = ~size_t{0};
  static constexpr size_t kInFifo = kIdle - 1;

  struct Event {
    SimTime t;
    uint64_t seq;
    uintptr_t what;
    bool operator<(const Event& o) const {
      return t != o.t ? t < o.t : seq < o.seq;
    }
  };

  static Callback* node_of(const Event& ev) {
    return reinterpret_cast<Callback*>(ev.what & ~kCallbackTag);
  }

  void push(SimTime t, uintptr_t what);
  Event pop();
  void heap_place(size_t i, const Event& ev);
  void sift_up(size_t i, const Event& ev);
  void heap_push(const Event& ev);
  void heap_remove(size_t i);
  void drop_pending();
  void unlink_actor(detail::PromiseBase& p);

  SimTime now_ = 0;
  obs::MetricsRegistry metrics_;
  obs::Tracer tracer_;
  uint64_t next_seq_ = 0;
  uint64_t events_processed_ = 0;
  uint64_t actors_spawned_ = 0;
  std::vector<Event> heap_;  // 4-ary min-heap, events after now_
  std::vector<Event> fifo_;  // events at now_, in seq order from fifo_head_
  size_t fifo_head_ = 0;
  // Detached actors not yet finished, oldest spawn first, linked through
  // their promises.
  detail::PromiseBase* live_head_ = nullptr;
  detail::PromiseBase* live_tail_ = nullptr;
  size_t live_count_ = 0;
  bool tearing_down_ = false;
  std::vector<std::string> errors_;
};

/// Manual-reset event: waiters block until set() is called.
class SimEvent {
 public:
  explicit SimEvent(Engine& eng) : eng_(eng) {}

  bool is_set() const { return set_; }

  void set() {
    set_ = true;
    // Swap the waiters out before scheduling: a woken coroutine runs only
    // after set() returns, but re-entrancy can still happen through
    // non-coroutine paths (a schedule hook, or set() called again from a
    // destructor on the way out).  Waking moved-out locals pins the
    // semantics: exactly the waiters parked before this set() are woken,
    // in park order, and a wait() issued after it (even mid-wake) sees
    // set_ == true and never parks in a list being iterated.
    const std::coroutine_handle<> first = std::exchange(first_, {});
    std::vector<std::coroutine_handle<>> rest;
    rest.swap(rest_);
    if (first) eng_.schedule_now(first);
    for (auto h : rest) eng_.schedule_now(h);
  }

  void reset() { set_ = false; }

  struct Awaiter {
    SimEvent& ev;
    bool await_ready() const noexcept { return ev.set_; }
    void await_suspend(std::coroutine_handle<> h) {
      if (!ev.first_) {
        ev.first_ = h;
      } else {
        ev.rest_.push_back(h);
      }
    }
    void await_resume() const noexcept {}
  };

  Awaiter wait() { return {*this}; }

 private:
  Engine& eng_;
  bool set_ = false;
  // The first waiter is kept inline (most events have one); later ones
  // queue behind it.
  std::coroutine_handle<> first_;
  std::vector<std::coroutine_handle<>> rest_;
};

}  // namespace sgfs::sim

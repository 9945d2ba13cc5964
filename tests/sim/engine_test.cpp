#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace sgfs::sim {
namespace {

using namespace sgfs::sim::literals;

TEST(Engine, ClockStartsAtZero) {
  Engine eng;
  EXPECT_EQ(eng.now(), 0);
}

TEST(Engine, SleepAdvancesVirtualTime) {
  Engine eng;
  SimTime observed = -1;
  eng.spawn([](Engine& e, SimTime* out) -> Task<void> {
    co_await e.sleep(5_ms);
    *out = e.now();
  }(eng, &observed));
  eng.run();
  EXPECT_EQ(observed, 5_ms);
}

TEST(Engine, NestedTasksPropagateResults) {
  Engine eng;
  int result = 0;
  auto inner = [](Engine& e) -> Task<int> {
    co_await e.sleep(1_us);
    co_return 21;
  };
  eng.spawn([](Engine& e, auto mk, int* out) -> Task<void> {
    int a = co_await mk(e);
    int b = co_await mk(e);
    *out = a + b;
  }(eng, inner, &result));
  eng.run();
  EXPECT_EQ(result, 42);
  EXPECT_EQ(eng.now(), 2_us);
}

TEST(Engine, ExceptionsPropagateAcrossCoAwait) {
  Engine eng;
  bool caught = false;
  auto thrower = [](Engine& e) -> Task<void> {
    co_await e.sleep(1_us);
    throw std::runtime_error("boom");
  };
  eng.spawn([](Engine& e, auto mk, bool* flag) -> Task<void> {
    try {
      co_await mk(e);
    } catch (const std::runtime_error& ex) {
      *flag = std::string(ex.what()) == "boom";
    }
  }(eng, thrower, &caught));
  eng.run();
  EXPECT_TRUE(caught);
  EXPECT_TRUE(eng.errors().empty());
}

TEST(Engine, UncaughtActorExceptionRecorded) {
  Engine eng;
  eng.spawn([](Engine& e) -> Task<void> {
    co_await e.sleep(1_us);
    throw std::runtime_error("escaped");
  }(eng));
  eng.run();
  ASSERT_EQ(eng.errors().size(), 1u);
  EXPECT_EQ(eng.errors()[0], "escaped");
}

TEST(Engine, SameTimeEventsRunFifo) {
  Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    eng.spawn([](Engine& e, std::vector<int>* out, int id) -> Task<void> {
      co_await e.sleep(1_ms);
      out->push_back(id);
    }(eng, &order, i));
  }
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, EventsOrderedByTime) {
  Engine eng;
  std::vector<int> order;
  auto sleeper = [](Engine& e, std::vector<int>* out, SimDur d,
                    int id) -> Task<void> {
    co_await e.sleep(d);
    out->push_back(id);
  };
  eng.spawn(sleeper(eng, &order, 30_us, 3));
  eng.spawn(sleeper(eng, &order, 10_us, 1));
  eng.spawn(sleeper(eng, &order, 20_us, 2));
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, RunUntilStopsAtBoundary) {
  Engine eng;
  int fired = 0;
  auto sleeper = [](Engine& e, int* n, SimDur d) -> Task<void> {
    co_await e.sleep(d);
    ++*n;
  };
  eng.spawn(sleeper(eng, &fired, 10_us));
  eng.spawn(sleeper(eng, &fired, 20_us));
  eng.run_until(15_us);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(eng.now(), 15_us);
  eng.run();
  EXPECT_EQ(fired, 2);
}

TEST(Engine, RunTaskReturnsWhenDone) {
  Engine eng;
  eng.run_task([](Engine& e) -> Task<void> {
    co_await e.sleep(3_s);
  }(eng));
  EXPECT_EQ(eng.now(), 3_s);
}

TEST(Engine, RunTaskRethrowsTaskError) {
  Engine eng;
  EXPECT_THROW(eng.run_task([](Engine& e) -> Task<void> {
    co_await e.sleep(1_us);
    throw std::logic_error("task failed");
  }(eng)),
               std::logic_error);
}

TEST(Engine, YieldPreservesFifoFairness) {
  Engine eng;
  std::vector<int> order;
  auto yielder = [](Engine& e, std::vector<int>* out, int id) -> Task<void> {
    for (int round = 0; round < 3; ++round) {
      out->push_back(id);
      co_await e.yield();
    }
  };
  eng.spawn(yielder(eng, &order, 0));
  eng.spawn(yielder(eng, &order, 1));
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 0, 1, 0, 1}));
}

TEST(Engine, DestructionWithSuspendedActorsIsClean) {
  // Actors still sleeping when the engine dies must be destroyed without
  // leaks or crashes (ASAN-checked in CI builds).
  Engine eng;
  eng.spawn([](Engine& e) -> Task<void> {
    co_await e.sleep(1000_s);
  }(eng));
  eng.run_until(1_s);
  EXPECT_EQ(eng.live_actors(), 1u);
  // ~Engine cleans up.
}

TEST(Engine, DeterministicAcrossRuns) {
  auto trace = []() {
    Engine eng;
    std::vector<SimTime> times;
    for (int i = 0; i < 10; ++i) {
      eng.spawn([](Engine& e, std::vector<SimTime>* out,
                   int id) -> Task<void> {
        co_await e.sleep((id * 7 % 5) * 1_ms);
        out->push_back(e.now());
        co_await e.sleep(1_ms);
        out->push_back(e.now());
      }(eng, &times, i));
    }
    eng.run();
    return times;
  };
  EXPECT_EQ(trace(), trace());
}

// --- one (t, seq) order across both event kinds ---------------------------

// Reference model of the event order: every schedule is mirrored as
// (effective time, sequence number, id), and each event checks on entry that
// it is the smallest pending entry.  Effective time clamps a past t to now,
// exactly as the engine does.
struct OrderModel {
  Engine& eng;
  Rng rng;
  std::set<std::tuple<SimTime, uint64_t, int>> pending;
  uint64_t seq = 0;
  int next_id = 0;
  int ran = 0;
  int out_of_order = 0;
  int cancelled = 0;
  // Callback nodes queued and not yet run, by id.
  std::map<int, Engine::Callback*> queued;

  OrderModel(Engine& e, uint64_t seed) : eng(e), rng(seed) {}

  // Cancels a random queued node, in the heap or in the same-instant FIFO;
  // its entry leaves the model, and nothing else may move.
  void cancel_one() {
    if (queued.empty()) return;
    auto it = queued.begin();
    std::advance(it,
                 static_cast<std::ptrdiff_t>(rng.next_below(queued.size())));
    const int id = it->first;
    Engine::Callback* node = it->second;
    queued.erase(it);
    std::erase_if(pending,
                  [id](const auto& e) { return std::get<2>(e) == id; });
    eng.cancel(node);
    ++cancelled;
  }

  // A time with many same-instant ties, some in the past.
  SimTime pick() {
    switch (rng.next_below(4)) {
      case 0:
        return eng.now();
      case 1:
        return eng.now() - static_cast<SimDur>(1 + rng.next_below(5));
      case 2:
        return eng.now() + static_cast<SimDur>(rng.next_below(3));
      default:
        return eng.now() + static_cast<SimDur>(rng.next_below(100));
    }
  }

  int expect(SimTime t) {
    const int id = next_id++;
    pending.emplace(std::max(t, eng.now()), seq++, id);
    return id;
  }

  void ran_event(int id) {
    ++ran;
    if (pending.empty() || std::get<2>(*pending.begin()) != id ||
        std::get<0>(*pending.begin()) != eng.now()) {
      ++out_of_order;
      std::erase_if(pending, [id](const auto& e) {
        return std::get<2>(e) == id;
      });
      return;
    }
    pending.erase(pending.begin());
  }
};

struct ResumeAt {
  OrderModel& m;
  SimTime t;
  int* id;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    *id = m.expect(t);
    m.eng.schedule_at(t, h);
  }
  void await_resume() const noexcept {}
};

Task<void> ordered_actor(OrderModel& m, int first_id, int hops) {
  m.ran_event(first_id);
  for (int i = 0; i < hops; ++i) {
    int id = -1;
    co_await ResumeAt{m, m.pick(), &id};
    m.ran_event(id);
  }
}

class OrderedNode final : public Engine::Callback {
 public:
  OrderedNode(OrderModel& m, int hops) : m_(m), hops_(hops) {}

  void post() {
    const SimTime t = m_.pick();
    id_ = m_.expect(t);
    m_.queued[id_] = this;
    m_.eng.post_at(t, this);
  }

  void run() override {
    m_.queued.erase(id_);
    m_.ran_event(id_);
    if (m_.rng.next_below(3) == 0) m_.cancel_one();
    if (m_.rng.next_below(4) == 0) {
      // Fan out: a fresh node and a fresh actor from inside a callback.
      (new OrderedNode(m_, 2))->post();
      const int id = m_.expect(m_.eng.now());
      m_.eng.spawn(ordered_actor(m_, id, 2));
    }
    if (hops_-- > 0) {
      post();
    } else {
      delete this;
    }
  }

 private:
  OrderModel& m_;
  int hops_;
  int id_ = -1;
};

TEST(Engine, MixedEventKindsPopInTimeSeqOrder) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Engine eng;
    OrderModel m(eng, seed);
    for (int i = 0; i < 50; ++i) {
      if (m.rng.next_below(2) == 0) {
        (new OrderedNode(m, 1 + static_cast<int>(m.rng.next_below(20))))
            ->post();
      } else {
        const int id = m.expect(eng.now());
        eng.spawn(ordered_actor(
            m, id, 1 + static_cast<int>(m.rng.next_below(20))));
      }
    }
    // Advance in uneven windows so run_until's clock jumps mix in too, and
    // cancel between windows as well as from inside callbacks.
    while (eng.pending_events() > 0) {
      eng.run_until(eng.now() + static_cast<SimDur>(m.rng.next_below(40)));
      if (m.rng.next_below(2) == 0) m.cancel_one();
    }
    EXPECT_EQ(m.out_of_order, 0) << "seed " << seed;
    EXPECT_GT(m.ran, 300) << "seed " << seed;
    EXPECT_GT(m.cancelled, 10) << "seed " << seed;
    EXPECT_TRUE(m.pending.empty()) << "seed " << seed;
    EXPECT_TRUE(m.queued.empty()) << "seed " << seed;
    EXPECT_EQ(eng.live_actors(), 0u);
    EXPECT_EQ(eng.events_processed(), static_cast<uint64_t>(m.ran));
  }
}

TEST(Engine, LongInstantKeepsFifoOrder) {
  // Thousands of events at one instant: the same-instant queue drops its
  // consumed prefix as it goes and must neither lose nor reorder events.
  Engine eng;
  std::vector<int> order;
  auto yielder = [](Engine& e, std::vector<int>* out, int id) -> Task<void> {
    for (int round = 0; round < 2000; ++round) {
      out->push_back(id);
      co_await e.yield();
    }
  };
  for (int id = 0; id < 3; ++id) eng.spawn(yielder(eng, &order, id));
  bool timed_ran = false;
  eng.call_at(1_us, [&] { timed_ran = true; });
  eng.run_until(0);
  ASSERT_EQ(order.size(), 6000u);
  for (size_t i = 0; i < order.size(); ++i) {
    ASSERT_EQ(order[i], static_cast<int>(i % 3)) << i;
  }
  EXPECT_FALSE(timed_ran);
  eng.run();
  EXPECT_TRUE(timed_ran);
  EXPECT_EQ(eng.now(), 1_us);
}

TEST(Engine, CallAtFiresAfterAnArmHop) {
  // call_at takes two events: the arm at now, then the call at t — the same
  // two the sleeping actor it replaces took.
  Engine eng;
  std::vector<int> order;
  eng.call_at(5_us, [&] { order.push_back(1); });
  eng.spawn([](Engine& e, std::vector<int>* out) -> Task<void> {
    out->push_back(0);
    co_await e.sleep(5_us);
    out->push_back(2);
  }(eng, &order));
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(eng.events_processed(), 4u);
  EXPECT_EQ(eng.now(), 5_us);
}

TEST(Engine, CancelBeforeTheArmEventRuns) {
  // Cancelled in its arm hop (the same-instant FIFO): the node is flagged,
  // freed when it comes up, and neither runs nor counts as an event; the
  // events around it keep their order.
  Engine eng;
  std::vector<int> order;
  eng.call_at(0, [&] { order.push_back(0); });
  Engine::Callback* doomed = eng.call_at(5_us, [&] { order.push_back(9); });
  eng.call_at(0, [&] { order.push_back(1); });
  EXPECT_EQ(eng.pending_events(), 3u);
  eng.cancel(doomed);
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_EQ(eng.events_processed(), 4u);  // two arm hops, two calls
  EXPECT_EQ(eng.pending_events(), 0u);
  EXPECT_EQ(eng.now(), 0);
}

TEST(Engine, CancelWhileInTheHeap) {
  // Armed nodes wait in the heap; cancelling one removes it at once, from
  // the top, the middle or the last slot, and the rest run in (t, seq)
  // order.
  Engine eng;
  std::vector<int> order;
  std::vector<Engine::Callback*> nodes;
  for (int i = 0; i < 12; ++i) {
    const SimTime t = (1 + i % 4) * 1_us;
    nodes.push_back(eng.call_at(t, [&order, i] { order.push_back(i); }));
  }
  eng.run_until(0);  // every arm hop has run
  ASSERT_EQ(eng.pending_events(), 12u);
  for (int i : {0, 5, 11, 6}) eng.cancel(nodes[static_cast<size_t>(i)]);
  EXPECT_EQ(eng.pending_events(), 8u);
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{4, 8, 1, 9, 2, 10, 3, 7}));
  EXPECT_EQ(eng.events_processed(), 12u + 8u);
  EXPECT_EQ(eng.now(), 4_us);
}

TEST(Engine, CancelFromAFrameDestroyedAtTeardownIsIgnored) {
  // ~Engine frees pending nodes before it destroys suspended frames; a
  // frame whose destructor cancels its timer (as an RPC call does) must
  // not touch the freed node.
  struct CancelOnExit {
    Engine& eng;
    Engine::Callback* node;
    CancelOnExit(Engine& e, Engine::Callback* n) : eng(e), node(n) {}
    ~CancelOnExit() { eng.cancel(node); }
  };
  auto token = std::make_shared<int>(0);
  {
    Engine eng;
    eng.spawn([](Engine& e, std::shared_ptr<int> hold) -> Task<void> {
      CancelOnExit guard(e, e.call_at(10_s, [hold] {}));
      co_await e.sleep(100_s);
    }(eng, token));
    eng.run_until(1_s);
    EXPECT_EQ(eng.pending_events(), 2u);  // the timer and the wakeup
    EXPECT_EQ(eng.live_actors(), 1u);
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(Engine, ThrowingActorIsRecordedAndFreed) {
  Engine eng;
  auto token = std::make_shared<int>(0);
  auto thrower = [](Engine& e, std::shared_ptr<int> /*hold*/,
                    bool wait) -> Task<void> {
    if (wait) co_await e.sleep(1_us);
    throw std::runtime_error(wait ? "late" : "early");
  };
  eng.spawn(thrower(eng, token, false));
  eng.spawn(thrower(eng, token, true));
  EXPECT_EQ(eng.live_actors(), 2u);
  eng.run();
  ASSERT_EQ(eng.errors().size(), 2u);
  EXPECT_EQ(eng.errors()[0], "early");
  EXPECT_EQ(eng.errors()[1], "late");
  EXPECT_EQ(eng.live_actors(), 0u);
  EXPECT_EQ(token.use_count(), 1);  // both frames (and their params) freed
}

TEST(Engine, DestructionFreesPendingCallbacksAndActors) {
  auto token = std::make_shared<int>(0);
  struct Holder final : Engine::Callback {
    std::shared_ptr<int> hold;
    explicit Holder(std::shared_ptr<int> h) : hold(std::move(h)) {}
    void run() override { delete this; }
  };
  {
    Engine eng;
    SimEvent never(eng);
    eng.post_at(10_s, new Holder(token));  // far in the future
    eng.post_at(0, new Holder(token));     // runs and frees itself
    eng.call_at(1_us, [token] {});         // armed below, waits for 1 us
    eng.spawn([](Engine& e, std::shared_ptr<int> /*hold*/) -> Task<void> {
      co_await e.sleep(100_s);
    }(eng, token));
    eng.spawn([](SimEvent& ev, std::shared_ptr<int> /*hold*/) -> Task<void> {
      co_await ev.wait();
    }(never, token));
    for (int i = 0; i < 4; ++i) eng.step();  // all at t = 0
    EXPECT_EQ(eng.live_actors(), 2u);
    eng.spawn([](std::shared_ptr<int> /*hold*/) -> Task<void> {
      co_return;
    }(token));                              // spawned, never started
    eng.call_at(5_s, [token] {});           // still in its arm hop
    eng.post_at(0, new Holder(token));      // same instant, never run
    EXPECT_EQ(eng.now(), 0);
    EXPECT_GT(token.use_count(), 1);
    EXPECT_GT(eng.pending_events(), 0u);
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(Engine, DestructionDestroysSurvivorsInSpawnOrder) {
  // Each actor's guard logs its index when its frame is destroyed.
  struct Guard {
    std::vector<int>* log;
    int id;
    ~Guard() { log->push_back(id); }
  };
  auto actor = [](Engine& e, std::vector<int>* log, int id,
                  SimDur life) -> Task<void> {
    Guard g{log, id};
    co_await e.sleep(life);
  };
  std::vector<int> destroyed;
  {
    Engine eng;
    // 0, 2 and 5 finish: the head, a middle actor and the tail leave the
    // list before teardown.
    const SimDur lives[] = {1_us, 100_s, 1_us, 100_s, 100_s, 2_us};
    for (int i = 0; i < 6; ++i) eng.spawn(actor(eng, &destroyed, i, lives[i]));
    EXPECT_EQ(eng.live_actors(), 6u);
    eng.run_until(1_us);
    EXPECT_EQ(eng.live_actors(), 4u);
    eng.run_until(2_us);
    EXPECT_EQ(eng.live_actors(), 3u);
    EXPECT_EQ(destroyed, (std::vector<int>{0, 2, 5}));
    eng.spawn(actor(eng, &destroyed, 6, 100_s));
    eng.run_until(3_us);  // 6 starts and constructs its guard
    EXPECT_EQ(eng.live_actors(), 4u);
    destroyed.clear();
  }
  EXPECT_EQ(destroyed, (std::vector<int>{1, 3, 4, 6}));
}

TEST(SimEventTest, WaitersReleasedOnSet) {
  Engine eng;
  SimEvent ev(eng);
  int released = 0;
  for (int i = 0; i < 3; ++i) {
    eng.spawn([](SimEvent& e, int* n) -> Task<void> {
      co_await e.wait();
      ++*n;
    }(ev, &released));
  }
  eng.spawn([](Engine& e, SimEvent& ev) -> Task<void> {
    co_await e.sleep(10_ms);
    ev.set();
  }(eng, ev));
  eng.run();
  EXPECT_EQ(released, 3);
}

TEST(SimEventTest, WaitOnSetEventIsImmediate) {
  Engine eng;
  SimEvent ev(eng);
  ev.set();
  SimTime when = -1;
  eng.spawn([](Engine& e, SimEvent& ev, SimTime* out) -> Task<void> {
    co_await ev.wait();
    *out = e.now();
  }(eng, ev, &when));
  eng.run();
  EXPECT_EQ(when, 0);
}

TEST(TimeUtil, Conversions) {
  EXPECT_DOUBLE_EQ(to_seconds(1500_ms), 1.5);
  EXPECT_EQ(from_seconds(2.5), 2500_ms);
  EXPECT_EQ(1_s, 1000_ms);
  EXPECT_EQ(1_ms, 1000_us);
  EXPECT_EQ(1_us, 1000_ns);
}

}  // namespace
}  // namespace sgfs::sim

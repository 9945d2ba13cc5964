#include "sim/engine.hpp"

#include <exception>
#include <stdexcept>

#include "common/log.hpp"

namespace sgfs::sim {

void detail::finish_detached(PromiseBase& p,
                             std::coroutine_handle<> h) noexcept {
  Engine& eng = *p.owner;
  if (p.exception) {
    try {
      std::rethrow_exception(p.exception);
    } catch (const std::exception& e) {
      eng.errors_.emplace_back(e.what());
      SGFS_ERROR("sim", "actor terminated with exception: ", e.what());
    } catch (...) {
      eng.errors_.emplace_back("unknown exception");
      SGFS_ERROR("sim", "actor terminated with unknown exception");
    }
  }
  eng.unlink_actor(p);
  h.destroy();
}

Engine::~Engine() {
  // Drop pending events first so nothing runs during teardown, then destroy
  // surviving actor frames (their locals own nested task frames) in spawn
  // order, oldest first.  A frame destructor may still queue work (a
  // stream close posts its EOF) or spawn, so repeat until both are empty.
  using Promise = Task<void>::promise_type;  // every detached actor's
  tearing_down_ = true;
  drop_pending();
  while (live_head_ != nullptr) {
    while (detail::PromiseBase* p = live_head_) {
      unlink_actor(*p);
      std::coroutine_handle<Promise>::from_promise(static_cast<Promise&>(*p))
          .destroy();
    }
    drop_pending();
  }
}

void Engine::unlink_actor(detail::PromiseBase& p) {
  (p.live_prev ? p.live_prev->live_next : live_head_) = p.live_next;
  (p.live_next ? p.live_next->live_prev : live_tail_) = p.live_prev;
  --live_count_;
}

void Engine::drop_pending() {
  auto drop = [](const Event& ev) {
    if (ev.what & kCallbackTag) delete node_of(ev);
  };
  // Swap out first: a node's destructor must not see a half-freed queue.
  std::vector<Event> heap = std::move(heap_);
  std::vector<Event> fifo = std::move(fifo_);
  const size_t head = fifo_head_;
  heap_.clear();
  fifo_.clear();
  fifo_head_ = 0;
  for (const Event& ev : heap) drop(ev);
  for (size_t i = head; i < fifo.size(); ++i) drop(fifo[i]);
}

void Engine::push(SimTime t, uintptr_t what) {
  if (t <= now_) {
    fifo_.push_back(Event{now_, next_seq_++, what});
    if (what & kCallbackTag) node_of(fifo_.back())->slot_ = kInFifo;
  } else {
    heap_push(Event{t, next_seq_++, what});
  }
}

void Engine::heap_place(size_t i, const Event& ev) {
  heap_[i] = ev;
  if (ev.what & kCallbackTag) node_of(ev)->slot_ = i;
}

void Engine::sift_up(size_t i, const Event& ev) {
  while (i > 0) {
    const size_t parent = (i - 1) / 4;
    if (!(ev < heap_[parent])) break;
    heap_place(i, heap_[parent]);
    i = parent;
  }
  heap_place(i, ev);
}

void Engine::heap_push(const Event& ev) {
  heap_.push_back(ev);
  sift_up(heap_.size() - 1, ev);
}

void Engine::heap_remove(size_t i) {
  // Refill slot i with the last event, then sift it up or down.
  const Event last = heap_.back();
  heap_.pop_back();
  const size_t n = heap_.size();
  if (i == n) return;
  if (i > 0 && last < heap_[(i - 1) / 4]) {
    sift_up(i, last);
    return;
  }
  for (;;) {
    const size_t first = 4 * i + 1;
    if (first >= n) break;
    const size_t end = first + 4 < n ? first + 4 : n;
    size_t best = first;
    for (size_t c = first + 1; c < end; ++c) {
      if (heap_[c] < heap_[best]) best = c;
    }
    if (!(heap_[best] < last)) break;
    heap_place(i, heap_[best]);
    i = best;
  }
  heap_place(i, last);
}

void Engine::cancel(Callback* node) {
  if (tearing_down_) return;
  if (node->slot_ == kInFifo) {
    node->cancelled_ = true;
    return;
  }
  heap_remove(node->slot_);
  delete node;
}

Engine::Event Engine::pop() {
  // Heap events at now_ were queued before the clock got here, so they
  // precede every FIFO event; later heap events follow all of them.
  if (fifo_head_ < fifo_.size() && (heap_.empty() || heap_[0].t != now_)) {
    const Event ev = fifo_[fifo_head_++];
    if (fifo_head_ == fifo_.size()) {
      fifo_.clear();
      fifo_head_ = 0;
    } else if (fifo_head_ >= 1024 && 2 * fifo_head_ >= fifo_.size()) {
      // A long instant (a same-time ping-pong) keeps appending: drop the
      // consumed prefix so the buffer stays bounded by the live backlog.
      fifo_.erase(fifo_.begin(),
                  fifo_.begin() + static_cast<std::ptrdiff_t>(fifo_head_));
      fifo_head_ = 0;
    }
    return ev;
  }
  const Event ev = heap_[0];
  heap_remove(0);
  return ev;
}

void Engine::spawn(Task<void> task) {
  auto h = task.release();
  auto& p = h.promise();
  p.owner = this;
  p.live_prev = live_tail_;
  (live_tail_ ? live_tail_->live_next : live_head_) = &p;
  live_tail_ = &p;
  ++live_count_;
  ++actors_spawned_;
  schedule_now(h);
}

bool Engine::step() {
  if (pending_events() == 0) return false;
  const Event ev = pop();
  now_ = ev.t;
  if (ev.what & kCallbackTag) {
    Callback* node = node_of(ev);
    node->slot_ = kIdle;
    if (node->cancelled_) {
      delete node;
      return true;
    }
    ++events_processed_;
    node->run();
  } else {
    ++events_processed_;
    std::coroutine_handle<>::from_address(reinterpret_cast<void*>(ev.what))
        .resume();
  }
  return true;
}

void Engine::run() {
  while (step()) {
  }
}

void Engine::run_until(SimTime t) {
  while (pending_events() > 0 &&
         (fifo_head_ < fifo_.size() ? now_ : heap_[0].t) <= t) {
    step();
  }
  if (t > now_) now_ = t;
}

void Engine::run_task(Task<void> task) {
  bool done = false;
  std::exception_ptr error;
  auto wrapper = [](Task<void> inner, bool* flag,
                    std::exception_ptr* err) -> Task<void> {
    try {
      co_await std::move(inner);
    } catch (...) {
      *err = std::current_exception();
    }
    *flag = true;
  };
  spawn(wrapper(std::move(task), &done, &error));
  while (!done) {
    if (!step()) {
      throw std::runtime_error(
          "Engine::run_task: event queue drained before task completion "
          "(deadlock?)");
    }
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace sgfs::sim

// Lazy coroutine task for the simulation.
//
// Task<T> is the unit of concurrency in SGFS: every protocol actor (NFS
// client, proxy, server, service) is a tree of Task coroutines driven by the
// sim::Engine event loop.  Tasks are lazy (start on first co_await), use
// symmetric transfer to resume their awaiter on completion, and propagate
// exceptions across co_await boundaries.
//
// A Task handed to Engine::spawn is detached: the engine schedules the
// task's own frame, and at final suspend the frame reports to its owning
// engine (escaped exception, live-actor list) and frees itself.
//
// Frames come from SmallObjectPool, which recycles them per size class
// (DESIGN.md §18).
#pragma once

#include <coroutine>
#include <cstddef>
#include <exception>
#include <utility>

#include "common/small_object_pool.hpp"

namespace sgfs::sim {

template <typename T>
class Task;

class Engine;

namespace detail {

struct PromiseBase;

/// Done-hook of a detached actor (defined in engine.cpp): records the
/// promise's escaped exception into its engine's errors(), unlinks it from
/// the live-actor list and destroys the frame `h`.
void finish_detached(PromiseBase& p, std::coroutine_handle<> h) noexcept;

struct FinalAwaiter {
  bool await_ready() const noexcept { return false; }
  template <typename Promise>
  std::coroutine_handle<> await_suspend(
      std::coroutine_handle<Promise> h) noexcept {
    auto& p = h.promise();
    if (p.continuation) return p.continuation;
    // Nothing touches the frame after this: the returned no-op handle is
    // all the caller resumes.
    if (p.owner) finish_detached(p, h);
    return std::noop_coroutine();
  }
  void await_resume() const noexcept {}
};

struct PromiseBase {
  std::coroutine_handle<> continuation;
  std::exception_ptr exception;
  Engine* owner = nullptr;  // set by Engine::spawn for a detached actor
  // The owner's live-actor list, in spawn order (Engine::spawn).
  PromiseBase* live_prev = nullptr;
  PromiseBase* live_next = nullptr;

  static void* operator new(std::size_t n) {
    return SmallObjectPool::allocate(n);
  }
  static void operator delete(void* p, std::size_t n) noexcept {
    SmallObjectPool::release(p, n);
  }

  std::suspend_always initial_suspend() noexcept { return {}; }
  FinalAwaiter final_suspend() noexcept { return {}; }
  void unhandled_exception() noexcept { exception = std::current_exception(); }
};

}  // namespace detail

/// An owning handle to a lazily-started coroutine producing a T.
template <typename T>
class [[nodiscard]] Task {
 public:
  struct promise_type : detail::PromiseBase {
    alignas(T) unsigned char storage[sizeof(T)];
    bool has_value = false;

    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    template <typename U>
    void return_value(U&& value) {
      ::new (static_cast<void*>(storage)) T(std::forward<U>(value));
      has_value = true;
    }
    ~promise_type() {
      if (has_value) value_ref().~T();
    }
    T& value_ref() { return *reinterpret_cast<T*>(storage); }
  };

  using Handle = std::coroutine_handle<promise_type>;

  Task() = default;
  explicit Task(Handle h) : h_(h) {}
  Task(Task&& other) noexcept : h_(std::exchange(other.h_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      h_ = std::exchange(other.h_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  bool valid() const { return static_cast<bool>(h_); }

  // Awaiting a Task starts it; the awaiter resumes when it finishes.
  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> awaiter) {
    h_.promise().continuation = awaiter;
    return h_;
  }
  T await_resume() {
    auto& p = h_.promise();
    if (p.exception) std::rethrow_exception(p.exception);
    return std::move(p.value_ref());
  }

 private:
  void destroy() {
    if (h_) {
      h_.destroy();
      h_ = {};
    }
  }
  Handle h_;
};

template <>
class [[nodiscard]] Task<void> {
 public:
  struct promise_type : detail::PromiseBase {
    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_void() noexcept {}
  };

  using Handle = std::coroutine_handle<promise_type>;

  Task() = default;
  explicit Task(Handle h) : h_(h) {}
  Task(Task&& other) noexcept : h_(std::exchange(other.h_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      h_ = std::exchange(other.h_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  bool valid() const { return static_cast<bool>(h_); }

  /// Gives up ownership of the frame (Engine::spawn takes it over).
  Handle release() noexcept { return std::exchange(h_, {}); }

  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> awaiter) {
    h_.promise().continuation = awaiter;
    return h_;
  }
  void await_resume() {
    auto& p = h_.promise();
    if (p.exception) std::rethrow_exception(p.exception);
  }

 private:
  void destroy() {
    if (h_) {
      h_.destroy();
      h_ = {};
    }
  }
  Handle h_;
};

}  // namespace sgfs::sim

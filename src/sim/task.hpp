// C++20 coroutine support for simulated processes.
//
// A `Task` is an eagerly-started, detached coroutine: protocol users
// (benchmark drivers, example applications, simulated processes) are written
// as ordinary sequential code that `co_await`s simulated delays and events.
//
//   sim::Task sender(sim::Simulator& sim, clic::Endpoint& ep) {
//     co_await sim::Delay{sim, sim::microseconds(10)};
//     co_await ep.send(peer, port, msg);
//   }
//
// Synchronization primitives:
//   Trigger  — multi-waiter pulse; fire() wakes every current waiter.
//   Mailbox  — typed FIFO queue with awaitable pop().
//   Future   — single-value handoff from model callbacks to a coroutine.
//
// Waiter resumption always goes through the event queue (at now()+0), never
// inline, so firing a trigger from arbitrary model code cannot reenter the
// waiter's stack.
#pragma once

#include <coroutine>
#include <cstdio>
#include <deque>
#include <exception>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace clicsim::sim {

// Detached coroutine task. The frame frees itself when the coroutine runs to
// completion; an unhandled exception terminates the simulation (model code
// reports errors through results, not exceptions).
class Task {
 public:
  struct promise_type {
    Task get_return_object() noexcept { return Task{}; }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() noexcept {
      std::fputs("clicsim: unhandled exception escaped a sim::Task\n", stderr);
      std::terminate();
    }
  };
};

// Awaitable pause of `delay` ns of simulated time.
struct Delay {
  Simulator& sim;
  SimTime delay;

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) const {
    sim.after(delay, [h] { h.resume(); });
  }
  void await_resume() const noexcept {}
};

// Multi-waiter pulse event. fire() wakes every coroutine currently waiting;
// coroutines that start waiting after the fire wait for the next one.
class Trigger {
 public:
  explicit Trigger(Simulator& sim) : sim_(&sim) {}
  Trigger(const Trigger&) = delete;
  Trigger& operator=(const Trigger&) = delete;

  struct Awaiter {
    Trigger& t;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) { t.waiters_.push_back(h); }
    void await_resume() const noexcept {}
  };

  [[nodiscard]] Awaiter wait() noexcept { return Awaiter{*this}; }

  void fire() {
    std::vector<std::coroutine_handle<>> woken;
    woken.swap(waiters_);
    for (auto h : woken) sim_->after(0, [h] { h.resume(); });
  }

  [[nodiscard]] std::size_t waiter_count() const { return waiters_.size(); }

 private:
  Simulator* sim_;
  std::vector<std::coroutine_handle<>> waiters_;
};

// Typed FIFO with awaitable pop(). A push() hands its value directly to the
// oldest waiter (if any); otherwise the value queues. Direct handoff avoids
// the wake/steal race between a woken waiter and a concurrent ready pop.
template <typename T>
class Mailbox {
 public:
  explicit Mailbox(Simulator& sim) : sim_(&sim) {}
  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  void push(T value) {
    if (!waiters_.empty()) {
      PopAwaiter* w = waiters_.front();
      waiters_.pop_front();
      w->slot.emplace(std::move(value));
      auto h = w->handle;
      sim_->after(0, [h] { h.resume(); });
    } else {
      queue_.push_back(std::move(value));
    }
  }

  struct PopAwaiter {
    Mailbox& m;
    std::optional<T> slot;
    std::coroutine_handle<> handle;

    bool await_ready() const noexcept { return !m.queue_.empty(); }
    void await_suspend(std::coroutine_handle<> h) {
      handle = h;
      m.waiters_.push_back(this);
    }
    T await_resume() {
      if (slot.has_value()) return std::move(*slot);
      T v = std::move(m.queue_.front());
      m.queue_.pop_front();
      return v;
    }
  };

  [[nodiscard]] PopAwaiter pop() noexcept { return PopAwaiter{*this, {}, {}}; }

  [[nodiscard]] std::size_t size() const { return queue_.size(); }
  [[nodiscard]] bool empty() const { return queue_.empty(); }

 private:
  friend struct PopAwaiter;

  Simulator* sim_;
  std::deque<T> queue_;
  std::deque<PopAwaiter*> waiters_;
};

// Single-value handoff between callback-driven model internals and a
// coroutine consumer: the model calls set(), the consumer co_awaits the
// Future. Copyable handle; at most one awaiter.
template <typename T>
class Future {
  struct State {
    Simulator* sim;
    std::optional<T> value;
    std::coroutine_handle<> waiter;
  };

 public:
  explicit Future(Simulator& sim)
      : state_(std::make_shared<State>(State{&sim, {}, {}})) {}

  void set(T value) {
    state_->value.emplace(std::move(value));
    if (state_->waiter) {
      auto h = state_->waiter;
      state_->waiter = {};
      state_->sim->after(0, [h] { h.resume(); });
    }
  }

  [[nodiscard]] bool ready() const { return state_->value.has_value(); }

  struct Awaiter {
    std::shared_ptr<State> state;
    bool await_ready() const noexcept { return state->value.has_value(); }
    void await_suspend(std::coroutine_handle<> h) { state->waiter = h; }
    T await_resume() { return std::move(*state->value); }
  };

  [[nodiscard]] Awaiter operator co_await() const { return Awaiter{state_}; }

 private:
  std::shared_ptr<State> state_;
};

}  // namespace clicsim::sim

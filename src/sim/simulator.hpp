// The discrete-event simulator: owns the clock and the event queue.
//
// A Simulator instance is single-threaded and deterministic. Independent
// simulations (e.g. the points of a parameter sweep) may run concurrently on
// different threads as long as each owns its Simulator.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <utility>

#include "sim/event_queue.hpp"
#include "sim/inline_function.hpp"
#include "sim/time.hpp"

namespace clicsim::sim {

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] SimTime now() const { return now_; }

  // Schedules `action` at absolute simulated time `t` (>= now()) and
  // returns its id for cancel(). Templated so a lambda argument is
  // constructed directly in the event slab rather than moved through an
  // intermediate Action.
  template <typename F>
  EventId at(SimTime t, F&& action) {
    if (t < now_) {
      throw std::logic_error("Simulator::at: scheduling into the past");
    }
    return queue_.push(t, std::forward<F>(action));
  }

  // Schedules `action` `delay` ns from now (delay >= 0).
  template <typename F>
  EventId after(SimTime delay, F&& action) {
    return at(now_ + delay, std::forward<F>(action));
  }

  // Destroys a pending event's closure; it never runs, never advances the
  // clock and never counts in events_executed(). Timers (retransmission,
  // delayed ack, interrupt coalescing) are plain events cancelled this way.
  // Returns false when the event already ran or was already cancelled.
  bool cancel(EventId id) { return queue_.cancel(id); }

  // Runs until the event queue drains or stop() is called.
  // Returns the number of events executed.
  std::uint64_t run();

  // Runs events with time <= `t`; afterwards now() == t unless stopped
  // earlier or the queue drained past t.
  std::uint64_t run_until(SimTime t);

  std::uint64_t run_for(SimTime d) { return run_until(now_ + d); }

  // Window execution for the sharded engine (sim/shard.hpp): runs events
  // with time strictly < `bound` and does NOT advance the clock to the
  // bound afterwards — between barrier windows a shard's clock must stay
  // on its last executed event so cross-shard injections at earlier times
  // inside the window remain schedulable. Unlike run_until() this does not
  // clear a pending stop(): a stop raised inside one window has to stay
  // visible to the coordinator at the next barrier.
  std::uint64_t run_before(SimTime bound);

  // Makes run()/run_until() return after the current event completes.
  void stop() { stopped_ = true; }

  // Shard-engine hooks: the coordinator clears stops once per group run,
  // reads stop/next-event state at each barrier, and advances idle shards'
  // clocks when a bounded group run ends quiet.
  void clear_stop() { stopped_ = false; }
  [[nodiscard]] bool stop_requested() const { return stopped_; }
  [[nodiscard]] SimTime next_event_time() const { return queue_.next_time(); }
  void advance_now(SimTime t) {
    if (t != kNever && t > now_) now_ = t;
  }

  [[nodiscard]] bool pending() const { return !queue_.empty(); }
  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }

 private:
  EventQueue queue_;
  SimTime now_ = 0;
  bool stopped_ = false;
  std::uint64_t executed_ = 0;
};

}  // namespace clicsim::sim

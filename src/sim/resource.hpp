// Timed exclusive resources.
//
// FifoResource models a serial device with known occupancy per use (a link
// direction, a PCI bus, a memory bus approximated as a serial bandwidth
// pool). PriorityResource adds priority classes and models a CPU: interrupt
// work runs before softirq work runs before kernel work runs before user
// work, each item non-preemptively for its stated duration.
//
// Both track cumulative busy time so benchmarks can report utilization.
#pragma once

#include <cstdint>
#include <string>

#include "sim/inline_function.hpp"
#include "sim/ring_queue.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace clicsim::sim {

// Serializes usages in submission order. O(1) per use: because service is
// FIFO and durations are known at submission, only the time the device next
// becomes free must be tracked.
class FifoResource {
 public:
  FifoResource(Simulator& sim, std::string name)
      : sim_(&sim), name_(std::move(name)) {}

  // Occupies the resource for `duration` starting when it becomes free;
  // `done` (optional) runs at completion.
  // Returns the completion time.
  SimTime submit(SimTime duration, Action done = {});

  [[nodiscard]] SimTime free_at() const { return free_at_; }
  [[nodiscard]] bool idle() const { return free_at_ <= sim_->now(); }
  [[nodiscard]] SimTime busy_time() const { return busy_ns_; }
  [[nodiscard]] std::uint64_t uses() const { return uses_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  // Fraction of [0, now] the resource spent busy.
  [[nodiscard]] double utilization() const;

 private:
  Simulator* sim_;
  std::string name_;
  SimTime free_at_ = 0;
  SimTime busy_ns_ = 0;
  std::uint64_t uses_ = 0;
};

// Priority classes for PriorityResource (lower value = runs first).
enum class CpuPriority : int {
  kInterrupt = 0,
  kSoftirq = 1,
  kKernel = 2,
  kUser = 3,
};
inline constexpr int kCpuPriorityCount = 4;

// Non-preemptive priority-ordered serial resource (the per-node CPU).
// When the resource is free the highest-priority pending item starts and
// runs to completion; same-priority items run in submission order.
//
// One FIFO ring per priority class: dispatch picks the highest non-empty
// class in O(1), and the queued completion closures are never sifted, only
// moved once in and once out. The rings allocate nothing until first used
// and then only grow to the deepest backlog the class has seen, so an idle
// CPU costs no heap. The running item's closure parks in a member slot so
// the simulator event that completes it captures nothing but `this`.
class PriorityResource {
 public:
  PriorityResource(Simulator& sim, std::string name)
      : sim_(&sim), name_(std::move(name)) {}

  // Queues `duration` of work at `prio`; `done` runs when the work item
  // finishes executing.
  void submit(CpuPriority prio, SimTime duration, Action done = {});

  // Queues work that runs BEFORE anything already queued at the same
  // priority — a continuation of the currently-executing work item (e.g.
  // the ack a protocol sends inline while processing a segment, which must
  // not queue behind the rest of the softirq backlog).
  void submit_front(CpuPriority prio, SimTime duration, Action done = {});

  [[nodiscard]] bool busy() const { return busy_; }
  [[nodiscard]] std::size_t queued() const {
    std::size_t n = 0;
    for (const auto& q : queues_) n += q.size();
    return n;
  }
  [[nodiscard]] SimTime busy_time() const { return total_busy_ns_; }
  [[nodiscard]] SimTime busy_time(CpuPriority prio) const {
    return busy_ns_[static_cast<int>(prio)];
  }
  [[nodiscard]] double utilization() const;
  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  struct Item {
    SimTime duration = 0;
    Action done;
  };

  void start_next();
  void finish_current();

  Simulator* sim_;
  std::string name_;
  RingQueue<Item> queues_[kCpuPriorityCount];
  bool busy_ = false;
  Action running_done_;
  SimTime total_busy_ns_ = 0;
  SimTime busy_ns_[kCpuPriorityCount] = {0, 0, 0, 0};
};

}  // namespace clicsim::sim

// Unit tests for timers as cancellable engine events (Simulator::at/after
// return an id, Simulator::cancel destroys the closure): exact deadlines,
// cancel semantics, same-instant tie-breaks among timers and plain events,
// a cancelled event never moving the clock, bounded queue storage under
// arm/cancel churn, and a randomized differential check against a naive
// reference.
//
// The `TimerWheel` suite keeps the name of the hierarchical timer wheel
// whose contract these cases first pinned; the engine's cancellable events
// carry that contract now that the wheel is gone. `TimerEvents` holds the
// cases that only the single scheduler can pass.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace clicsim::sim {
namespace {

TEST(TimerWheel, FiresAtExactDeadline) {
  Simulator sim;
  SimTime fired_at = -1;
  sim.after(1234, [&] { fired_at = sim.now(); });
  sim.run();
  EXPECT_EQ(fired_at, 1234);
  EXPECT_EQ(sim.events_executed(), 1u);
  EXPECT_FALSE(sim.pending());
}

TEST(TimerWheel, FiresAcrossEveryLevelBoundary) {
  // Delays straddling the old wheel's 64^k level windows, up to 2^36 ns: a
  // spread of magnitudes that must all fire at their exact nanosecond.
  Simulator sim;
  std::vector<std::pair<SimTime, SimTime>> observed;  // {want, got}
  observed.reserve(16);  // callbacks keep pointers into the vector
  for (const SimTime delay :
       {SimTime{1}, SimTime{63}, SimTime{64}, SimTime{65}, SimTime{4095},
        SimTime{4096}, SimTime{262144}, SimTime{16777216},
        SimTime{1073741824}, SimTime{68719476736}}) {
    observed.emplace_back(delay, -1);
    auto* slot = &observed.back();
    sim.after(delay, [&sim, slot] { slot->second = sim.now(); });
  }
  sim.run();
  for (const auto& [want, got] : observed) EXPECT_EQ(got, want);
  EXPECT_EQ(sim.events_executed(), observed.size());
  EXPECT_EQ(sim.now(), SimTime{68719476736});
}

TEST(TimerWheel, CancelPreventsFiringAndDestroysClosure) {
  Simulator sim;
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> watch = token;
  bool fired = false;
  const EventId id = sim.after(1000, [&fired, token = std::move(token)] {
    fired = true;
  });
  EXPECT_NE(id, kNoEvent);
  EXPECT_TRUE(sim.pending());
  EXPECT_TRUE(sim.cancel(id));
  // The closure (and its captures) die at cancel time, not at the deadline.
  EXPECT_TRUE(watch.expired());
  EXPECT_FALSE(sim.pending());
  EXPECT_EQ(sim.next_event_time(), kNever);
  EXPECT_FALSE(sim.cancel(id));  // double-cancel reports failure
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.events_executed(), 0u);
  EXPECT_EQ(sim.now(), 0);
}

TEST(TimerWheel, CancelAfterFireReturnsFalse) {
  Simulator sim;
  const EventId id = sim.after(10, [] {});
  sim.run();
  EXPECT_FALSE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(kNoEvent));
  // A later event reusing the fired event's slab slot keeps its own id.
  const EventId next = sim.after(10, [] {});
  EXPECT_NE(next, id);
  EXPECT_FALSE(sim.cancel(id));
  EXPECT_TRUE(sim.cancel(next));
}

TEST(TimerEvents, CancellingItselfFromItsOwnCallbackReturnsFalse) {
  Simulator sim;
  EventId self = kNoEvent;
  bool cancelled = true;
  self = sim.after(10, [&] { cancelled = sim.cancel(self); });
  sim.run();
  EXPECT_FALSE(cancelled);
}

TEST(TimerWheel, RescheduleAfterCancelUsesNewDeadline) {
  Simulator sim;
  SimTime fired_at = -1;
  const EventId id = sim.after(500, [&] { fired_at = sim.now(); });
  EXPECT_TRUE(sim.cancel(id));
  sim.after(900, [&] { fired_at = sim.now(); });
  sim.run();
  EXPECT_EQ(fired_at, 900);
  EXPECT_EQ(sim.events_executed(), 1u);
}

TEST(TimerWheel, SameTickTimersFireInArmOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    sim.after(777, [&order, i] { order.push_back(i); });
  }
  sim.run();
  ASSERT_EQ(order.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[i], i);
}

TEST(TimerWheel, SameTickInterleavesWithPlainEventsByArmOrder) {
  // The determinism contract: a timer ranks among same-instant plain
  // events by the sequence number it took when armed.
  Simulator sim;
  std::vector<int> order;
  const EventId doomed = sim.after(100, [&] { order.push_back(-1); });
  sim.after(100, [&] { order.push_back(0); });
  sim.at(100, [&] { order.push_back(1); });
  sim.after(100, [&] { order.push_back(2); });
  sim.at(100, [&] { order.push_back(3); });
  EXPECT_TRUE(sim.cancel(doomed));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(TimerWheel, CancelledHeadStillRunsFollowersInOrder) {
  Simulator sim;
  std::vector<int> order;
  const EventId head = sim.after(50, [&] { order.push_back(0); });
  sim.after(50, [&] { order.push_back(1); });
  sim.at(50, [&] { order.push_back(2); });
  sim.after(50, [&] { order.push_back(3); });
  EXPECT_TRUE(sim.cancel(head));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(TimerWheel, CallbackMayArmAndCancelTimers) {
  Simulator sim;
  std::vector<SimTime> fires;
  EventId victim = kNoEvent;
  sim.after(10, [&] {
    fires.push_back(sim.now());
    victim = sim.after(100, [&] { fires.push_back(sim.now()); });
    sim.after(20, [&] {
      fires.push_back(sim.now());
      EXPECT_TRUE(sim.cancel(victim));
    });
  });
  sim.run();
  EXPECT_EQ(fires, (std::vector<SimTime>{10, 30}));
  EXPECT_FALSE(sim.pending());
  EXPECT_EQ(sim.now(), 30);
}

// A cancelled event is gone: it does not run, does not count and does not
// drag the clock to its deadline when the queue drains.
TEST(TimerEvents, CancelledTimerLeavesNoPhantomTail) {
  Simulator sim;
  const EventId rto = sim.after(milliseconds(3), [] { ADD_FAILURE(); });
  sim.at(10, [&] { EXPECT_TRUE(sim.cancel(rto)); });
  sim.run();
  EXPECT_EQ(sim.now(), 10);
  EXPECT_EQ(sim.events_executed(), 1u);
}

// The RTO-restart pattern (cancel + re-arm on every ack) must not let
// cancelled handles pile up: queue storage stays within a constant of the
// live event count however long the churn runs.
TEST(TimerEvents, ArmCancelChurnKeepsQueueStorageBounded) {
  EventQueue q;
  constexpr int kLive = 10;
  for (int i = 0; i < kLive; ++i) q.push(1'000'000 + i, [] {});
  EventId rto = q.push(3'000'000, [] {});
  for (int i = 0; i < 100'000; ++i) {
    ASSERT_TRUE(q.cancel(rto));
    rto = q.push(3'000'000 + i, [] {});
    ASSERT_LE(q.slots(), 2 * q.size() + EventQueue::kDeadSlack + 1);
  }
  EXPECT_EQ(q.size(), static_cast<std::size_t>(kLive + 1));
  EXPECT_EQ(q.next_time(), 1'000'000);
  int ran = 0;
  while (!q.empty()) {
    q.run_earliest();
    ++ran;
  }
  EXPECT_EQ(ran, kLive + 1);
}

// Differential check: random arms/cancels from inside the simulation must
// fire in exactly the order a naive reference produces — sorted by
// (deadline, arm sequence), cancelled ones gone.
TEST(TimerWheel, RandomizedDifferentialAgainstReference) {
  Simulator sim;
  std::mt19937_64 rng(0xC11Cu);

  struct Ref {
    std::uint64_t arm_order;
    SimTime deadline;
    int tag;
  };
  std::vector<Ref> reference;
  std::vector<int> fired_tags;
  std::vector<std::pair<EventId, int>> live;
  std::uint64_t arm_counter = 0;
  int next_tag = 0;

  // Driver events at randomized times arm and cancel timers while the
  // simulation is running, mixing short and long delays.
  for (int burst = 0; burst < 40; ++burst) {
    const SimTime when = burst * 137;
    sim.at(when, [&, when] {
      for (int i = 0; i < 6; ++i) {
        static constexpr SimTime kSpans[] = {3, 64, 1000, 5000, 70000};
        const SimTime delay =
            static_cast<SimTime>(rng() % kSpans[rng() % 5]) + 1;
        const int tag = next_tag++;
        reference.push_back(Ref{arm_counter++, when + delay, tag});
        live.emplace_back(
            sim.after(delay, [&fired_tags, tag] { fired_tags.push_back(tag); }),
            tag);
      }
      // Cancel a random surviving timer about half the time.
      if (!live.empty() && rng() % 2 == 0) {
        const std::size_t pick = rng() % live.size();
        if (sim.cancel(live[pick].first)) {
          const int tag = live[pick].second;
          std::erase_if(reference, [tag](const Ref& r) { return r.tag == tag; });
        }
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      }
    });
  }
  sim.run();

  std::sort(reference.begin(), reference.end(), [](const Ref& a, const Ref& b) {
    return a.deadline != b.deadline ? a.deadline < b.deadline
                                    : a.arm_order < b.arm_order;
  });
  std::vector<int> want;
  want.reserve(reference.size());
  for (const Ref& r : reference) want.push_back(r.tag);
  EXPECT_EQ(fired_tags, want);
  EXPECT_FALSE(sim.pending());
  EXPECT_EQ(sim.events_executed(), 40u + want.size());
  EXPECT_EQ(sim.now(), reference.back().deadline);
}

}  // namespace
}  // namespace clicsim::sim

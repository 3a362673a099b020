// Unit tests for the discrete-event engine: queue determinism, simulator
// control, coroutine primitives, timed resources, RNG and statistics.
#include <gtest/gtest.h>

#include <vector>

#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "sim/task.hpp"

namespace clicsim::sim {
namespace {

// --- EventQueue ------------------------------------------------------------------

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  std::vector<int> order;
  q.push(30, [&] { order.push_back(3); });
  q.push(10, [&] { order.push_back(1); });
  q.push(20, [&] { order.push_back(2); });
  while (!q.empty()) q.run_earliest();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    q.push(42, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.run_earliest();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, NextTimeReportsEarliest) {
  EventQueue q;
  EXPECT_EQ(q.next_time(), kNever);
  q.push(50, [] {});
  q.push(7, [] {});
  EXPECT_EQ(q.next_time(), 7);
}

// --- Simulator --------------------------------------------------------------------

TEST(Simulator, AdvancesTimeMonotonically) {
  Simulator sim;
  SimTime seen = -1;
  for (int i = 0; i < 10; ++i) {
    sim.after(i * 5, [&sim, &seen] {
      EXPECT_GE(sim.now(), seen);
      seen = sim.now();
    });
  }
  sim.run();
  EXPECT_EQ(seen, 45);
}

TEST(Simulator, RejectsSchedulingIntoThePast) {
  Simulator sim;
  sim.after(100, [] {});
  sim.run();
  EXPECT_THROW(sim.at(50, [] {}), std::logic_error);
}

TEST(Simulator, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.after(10, [&] { ++fired; });
  sim.after(20, [&] { ++fired; });
  sim.after(30, [&] { ++fired; });
  sim.run_until(20);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 20);
  sim.run();
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, StopAbortsRun) {
  Simulator sim;
  int fired = 0;
  sim.after(10, [&] {
    ++fired;
    sim.stop();
  });
  sim.after(20, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.pending());
}

TEST(Simulator, NestedSchedulingFromEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 50) sim.after(1, recurse);
  };
  sim.after(1, recurse);
  sim.run();
  EXPECT_EQ(depth, 50);
  EXPECT_EQ(sim.now(), 50);
}

// --- Coroutines --------------------------------------------------------------------

TEST(Coroutines, DelayResumesAtExactTime) {
  Simulator sim;
  SimTime resumed = 0;
  auto task = [](Simulator& s, SimTime& out) -> Task {
    co_await Delay{s, 1234};
    out = s.now();
  };
  task(sim, resumed);
  sim.run();
  EXPECT_EQ(resumed, 1234);
}

TEST(Coroutines, TriggerWakesAllCurrentWaiters) {
  Simulator sim;
  Trigger trig(sim);
  int woken = 0;
  auto waiter = [](Trigger& t, int& count) -> Task {
    co_await t.wait();
    ++count;
  };
  waiter(trig, woken);
  waiter(trig, woken);
  waiter(trig, woken);
  EXPECT_EQ(trig.waiter_count(), 3u);
  sim.after(100, [&] { trig.fire(); });
  sim.run();
  EXPECT_EQ(woken, 3);
}

TEST(Coroutines, TriggerDoesNotWakeLateWaiters) {
  Simulator sim;
  Trigger trig(sim);
  bool woken = false;
  sim.after(10, [&] { trig.fire(); });
  sim.after(20, [&]() {
    // Waiting after the fire: not released.
    auto waiter = [](Trigger& t, bool& w) -> Task {
      co_await t.wait();
      w = true;
    };
    waiter(trig, woken);
  });
  sim.run();
  EXPECT_FALSE(woken);
}

TEST(Coroutines, MailboxDeliversInFifoOrder) {
  Simulator sim;
  Mailbox<int> box(sim);
  std::vector<int> got;
  auto consumer = [](Mailbox<int>& b, std::vector<int>& out) -> Task {
    for (int i = 0; i < 5; ++i) out.push_back(co_await b.pop());
  };
  consumer(box, got);
  for (int i = 0; i < 5; ++i) {
    sim.after(10 * (i + 1), [&box, i] { box.push(i); });
  }
  sim.run();
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Coroutines, MailboxHandsOffDirectlyToWaiters) {
  Simulator sim;
  Mailbox<int> box(sim);
  int a = -1;
  int b = -1;
  auto consumer = [](Mailbox<int>& box, int& out) -> Task {
    out = co_await box.pop();
  };
  consumer(box, a);
  consumer(box, b);
  sim.after(5, [&] {
    box.push(1);
    box.push(2);
  });
  sim.run();
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 2);
}

TEST(Coroutines, FutureDeliversValueSetBeforeAndAfterAwait) {
  Simulator sim;
  Future<int> early(sim);
  early.set(11);
  int got_early = 0;
  int got_late = 0;
  Future<int> late(sim);
  auto consumer = [](Future<int> f, int& out) -> Task {
    out = co_await f;
  };
  consumer(early, got_early);
  consumer(late, got_late);
  sim.after(10, [&]() mutable { late.set(22); });
  sim.run();
  EXPECT_EQ(got_early, 11);
  EXPECT_EQ(got_late, 22);
}

// --- Resources ---------------------------------------------------------------------

TEST(FifoResource, SerializesUsages) {
  Simulator sim;
  FifoResource bus(sim, "bus");
  std::vector<SimTime> completions;
  for (int i = 0; i < 3; ++i) {
    bus.submit(100, [&completions, &sim] { completions.push_back(sim.now()); });
  }
  sim.run();
  EXPECT_EQ(completions, (std::vector<SimTime>{100, 200, 300}));
  EXPECT_EQ(bus.busy_time(), 300);
}

TEST(FifoResource, IdleGapsDoNotAccumulate) {
  Simulator sim;
  FifoResource bus(sim, "bus");
  bus.submit(50);
  sim.run();
  sim.after(1000, [] {});
  sim.run();
  SimTime done = 0;
  bus.submit(50, [&] { done = sim.now(); });
  sim.run();
  EXPECT_EQ(done, 1050);  // starts immediately, not at 50+50
  EXPECT_DOUBLE_EQ(bus.utilization(), 100.0 / 1050.0);
}

TEST(PriorityResource, HigherPriorityRunsFirst) {
  Simulator sim;
  PriorityResource cpu(sim, "cpu");
  std::vector<int> order;
  // Occupy the CPU, then queue user before interrupt work.
  cpu.submit(CpuPriority::kUser, 10, [&] { order.push_back(0); });
  cpu.submit(CpuPriority::kUser, 10, [&] { order.push_back(3); });
  cpu.submit(CpuPriority::kInterrupt, 10, [&] { order.push_back(1); });
  cpu.submit(CpuPriority::kSoftirq, 10, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(PriorityResource, SubmitFrontJumpsItsPriorityClass) {
  Simulator sim;
  PriorityResource cpu(sim, "cpu");
  std::vector<int> order;
  cpu.submit(CpuPriority::kSoftirq, 10, [&] {
    order.push_back(0);
    // Queued from within item 0: must run before items 1 and 2.
    cpu.submit_front(CpuPriority::kSoftirq, 10, [&] { order.push_back(9); });
  });
  cpu.submit(CpuPriority::kSoftirq, 10, [&] { order.push_back(1); });
  cpu.submit(CpuPriority::kSoftirq, 10, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 9, 1, 2}));
}

TEST(PriorityResource, TracksBusyTimePerClass) {
  Simulator sim;
  PriorityResource cpu(sim, "cpu");
  cpu.submit(CpuPriority::kInterrupt, 30);
  cpu.submit(CpuPriority::kUser, 70);
  sim.run();
  EXPECT_EQ(cpu.busy_time(CpuPriority::kInterrupt), 30);
  EXPECT_EQ(cpu.busy_time(CpuPriority::kUser), 70);
  EXPECT_EQ(cpu.busy_time(), 100);
}

// --- RNG ---------------------------------------------------------------------------

TEST(Rng, DeterministicPerSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, NamedStreamsAreIndependent) {
  Rng a(42, "alpha");
  Rng b(42, "beta");
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

TEST(Rng, BernoulliRoughlyFair) {
  Rng rng(1234);
  int heads = 0;
  for (int i = 0; i < 10000; ++i) heads += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(heads, 3000, 200);
}

// --- Stats -------------------------------------------------------------------------

TEST(Stats, SeriesInterpolationAndThresholds) {
  Series s("bw");
  s.add(1, 10);
  s.add(10, 100);
  s.add(100, 200);
  EXPECT_DOUBLE_EQ(s.at(1), 10);
  EXPECT_DOUBLE_EQ(s.at(55), 150);
  EXPECT_DOUBLE_EQ(s.at(1000), 200);
  EXPECT_DOUBLE_EQ(s.first_x_reaching(100), 10);
  EXPECT_DOUBLE_EQ(s.max_y(), 200);
}

}  // namespace
}  // namespace clicsim::sim

// Engine micro-benchmarks (google-benchmark): the discrete-event core and
// the hot protocol paths, so regressions in simulator performance are
// visible independently of the figure harness.
#include <benchmark/benchmark.h>

#include <vector>

#include "apps/testbed.hpp"
#include "hw/cpu.hpp"
#include "net/buffer.hpp"
#include "net/buffer_pool.hpp"
#include "os/kernel.hpp"
#include "sim/event_queue.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"

namespace {

using namespace clicsim;

void BM_EventQueuePushPop(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::EventQueue q;
    for (int i = 0; i < n; ++i) {
      q.push((i * 7919) % 1000, [] {});
    }
    while (!q.empty()) {
      benchmark::DoNotOptimize(q.next_time());
      q.run_earliest();
    }
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueuePushPop)->Arg(1024)->Arg(16384);

void BM_SimulatorEventChain(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    int remaining = n;
    std::function<void()> hop = [&] {
      if (--remaining > 0) sim.after(10, hop);
    };
    sim.after(10, hop);
    sim.run();
    benchmark::DoNotOptimize(sim.now());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SimulatorEventChain)->Arg(10000);

// The engine tentpole microbench: steady-state schedule + dispatch of
// *capturing* closures through the public Simulator API. A ring of
// `pending` self-rescheduling 72-byte handlers runs 64k dispatches; the
// handler exceeds libstdc++'s std::function small-object buffer, so the
// historical engine paid a heap allocation and free per event while
// InlineFunction keeps it inline in the recycling slab. The pending
// population matches what the figure simulations actually carry (dozens
// to around a thousand events in flight), so this measures the
// schedule/dispatch path rather than DRAM. Source-compatible with older
// engine revisions for before/after comparison.
void BM_ScheduleDispatch(benchmark::State& state) {
  const int pending = static_cast<int>(state.range(0));
  static constexpr int kTotal = 1 << 16;
  for (auto _ : state) {
    sim::Simulator sim;
    struct Payload {
      std::uint64_t a, b, c, d, e, f;
    };
    struct Hop {
      sim::Simulator* sim;
      Payload payload;
      std::uint64_t* sum;
      int* remaining;
      void operator()() const {
        *sum += payload.a + payload.f;
        if (--*remaining > 0) sim->after(1000 + payload.a, *this);
      }
    };
    std::uint64_t sum = 0;
    int remaining = kTotal;
    for (int i = 0; i < pending; ++i) {
      const Payload p{static_cast<std::uint64_t>(i % 7), 2, 3, 4, 5, 6};
      sim.after(1 + (i * 7919) % 977, Hop{&sim, p, &sum, &remaining});
    }
    sim.run();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * kTotal);
}
BENCHMARK(BM_ScheduleDispatch)->Arg(64)->Arg(1024);

// The CLIC RTO-restart pattern: every ack that advances a channel's window
// cancels its 3 ms retransmission timer and arms a fresh one, so almost no
// timer ever fires and the cost is arm + cancel + one plain (ack) event.
// Acks arrive round-robin over `channels` channels, 1 us apart. Written
// against os::Kernel's timer calls so the same source measures any engine
// revision behind them.
void BM_TimerRestartChurn(benchmark::State& state) {
  const int channels = static_cast<int>(state.range(0));
  static constexpr int kAcks = 1 << 16;
  for (auto _ : state) {
    sim::Simulator sim;
    hw::Cpu cpu(sim, hw::HostParams{}, "cpu");
    os::Kernel kernel(sim, cpu);
    std::vector<os::Kernel::TimerId> rto(static_cast<std::size_t>(channels),
                                         os::Kernel::kInvalidTimer);
    struct Ack {
      sim::Simulator* sim;
      os::Kernel* kernel;
      std::vector<os::Kernel::TimerId>* rto;
      int* remaining;
      std::size_t channel;
      void operator()() const {
        os::Kernel::TimerId& timer = (*rto)[channel];
        kernel->cancel_timer(timer);
        timer = kernel->add_timer(sim::milliseconds(3), [] {});
        if (--*remaining > 0) {
          sim->after(1000, Ack{sim, kernel, rto, remaining,
                               (channel + 1) % rto->size()});
        }
      }
    };
    int remaining = kAcks;
    sim.after(1000, Ack{&sim, &kernel, &rto, &remaining, 0});
    sim.run();
    benchmark::DoNotOptimize(kernel.timer_wheel().fired());
  }
  state.SetItemsProcessed(state.iterations() * kAcks);
}
BENCHMARK(BM_TimerRestartChurn)->Arg(1)->Arg(64);

// Pool traffic accumulated across every bed a sweep touches, surfaced as
// benchmark counters: `allocs` is what the packet path still takes from
// the global heap (pool warm-up), `reuses` is what the freelists absorbed.
struct PoolTraffic {
  std::uint64_t allocs = 0;
  std::uint64_t reuses = 0;

  void add(const net::BufferPool::Stats& s) {
    allocs += s.data_heap_allocs + s.header_heap_allocs;
    reuses += s.data_reuses + s.header_reuses;
  }
};

// One fig5-style bandwidth point: a warmed ping-pong of `size`-byte CLIC
// messages on a fresh 2-node cluster. Returns simulated events executed.
std::uint64_t clic_sweep_point(std::int64_t mtu, std::int64_t size,
                               int reps, PoolTraffic* pool = nullptr) {
  apps::ClicBed bed;
  bed.cluster.set_mtu_all(mtu);
  clic::Port a(bed.module(0), 1);
  clic::Port b(bed.module(1), 1);
  struct Drive {
    static sim::Task echo(clic::Port& p, int reps) {
      for (int i = 0; i < reps; ++i) {
        clic::Message m = co_await p.recv();
        (void)co_await p.send(1, 1, std::move(m.data));
      }
    }
    static sim::Task drive(clic::Port& p, std::int64_t n, int reps) {
      for (int i = 0; i < reps; ++i) {
        (void)co_await p.send(1, 1, net::Buffer::zeros(n));
        (void)co_await p.recv();
      }
    }
  };
  Drive::echo(b, reps);
  Drive::drive(a, size, reps);
  bed.sim.run();
  if (pool != nullptr) pool->add(bed.pool.stats());
  return bed.sim.events_executed();
}

std::uint64_t tcp_sweep_point(std::int64_t mtu, std::int64_t size,
                              int reps, PoolTraffic* pool = nullptr) {
  apps::TcpBed bed;
  bed.cluster.set_mtu_all(mtu);
  bed.tcp[1]->listen(7);
  struct Drive {
    static sim::Task echo(tcpip::TcpStack& stack, std::int64_t n,
                          int reps) {
      tcpip::TcpSocket* s = co_await stack.accept(7);
      for (int i = 0; i < reps; ++i) {
        net::Buffer m = co_await s->recv_exact(n);
        (void)co_await s->send(std::move(m));
      }
    }
    static sim::Task drive(tcpip::TcpStack& stack, std::int64_t n,
                           int reps) {
      auto& s = stack.create_socket();
      if (!co_await s.connect(1, 7)) co_return;
      for (int i = 0; i < reps; ++i) {
        (void)co_await s.send(net::Buffer::zeros(n));
        (void)co_await s.recv_exact(n);
      }
      s.close();
    }
  };
  Drive::echo(*bed.tcp[1], size, reps);
  Drive::drive(*bed.tcp[0], size, reps);
  bed.sim.run();
  if (pool != nullptr) pool->add(bed.pool.stats());
  return bed.sim.events_executed();
}

// A fixed, deterministic fig5-style sweep (CLIC + TCP ping-pong bandwidth
// points at both MTUs): wall-clock and simulated-events/sec for the whole
// protocol hot path, surfaced as google-benchmark counters.
void BM_Fig5StyleSweep(benchmark::State& state) {
  static constexpr std::int64_t kSizes[] = {16, 4096, 65536, 1 << 20};
  std::uint64_t per_run = 0;
  std::uint64_t total = 0;
  PoolTraffic pool_last;
  for (auto _ : state) {
    per_run = 0;
    pool_last = PoolTraffic{};
    for (const std::int64_t mtu : {std::int64_t{9000}, std::int64_t{1500}}) {
      for (const std::int64_t size : kSizes) {
        per_run += clic_sweep_point(mtu, size, 2, &pool_last);
        per_run += tcp_sweep_point(mtu, size, 2, &pool_last);
      }
    }
    total += per_run;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(total));
  state.counters["sim_events"] =
      benchmark::Counter(static_cast<double>(per_run));
  // Per-sweep packet-path allocator traffic: heap mints vs freelist hits.
  state.counters["pool_heap_allocs"] =
      benchmark::Counter(static_cast<double>(pool_last.allocs));
  state.counters["pool_reuses"] =
      benchmark::Counter(static_cast<double>(pool_last.reuses));
}
BENCHMARK(BM_Fig5StyleSweep)->Unit(benchmark::kMillisecond);

void BM_FifoResource(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    sim::FifoResource bus(sim, "bus");
    for (int i = 0; i < 1000; ++i) bus.submit(100);
    sim.run();
    benchmark::DoNotOptimize(bus.busy_time());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_FifoResource);

void BM_CoroutineMailbox(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    sim::Mailbox<int> box(sim);
    int sum = 0;
    auto consumer = [](sim::Mailbox<int>& b, int count, int& sum) -> sim::Task {
      for (int i = 0; i < count; ++i) sum += co_await b.pop();
    };
    consumer(box, n, sum);
    for (int i = 0; i < n; ++i) {
      sim.after(i, [&box, i] { box.push(i); });
    }
    sim.run();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_CoroutineMailbox)->Arg(4096);

void BM_ClicMessageEndToEnd(benchmark::State& state) {
  const std::int64_t size = state.range(0);
  for (auto _ : state) {
    apps::ClicBed bed;
    clic::Port a(bed.module(0), 1);
    clic::Port b(bed.module(1), 1);
    struct Drive {
      static sim::Task tx(clic::Port& p, std::int64_t n) {
        (void)co_await p.send(1, 1, net::Buffer::zeros(n));
      }
      static sim::Task rx(clic::Port& p) { (void)co_await p.recv(); }
    };
    Drive::tx(a, size);
    Drive::rx(b);
    bed.sim.run();
    benchmark::DoNotOptimize(bed.sim.events_executed());
  }
  state.SetBytesProcessed(state.iterations() * size);
}
BENCHMARK(BM_ClicMessageEndToEnd)->Arg(0)->Arg(65536)->Arg(1 << 20);

void BM_BufferPatternChecksum(benchmark::State& state) {
  const std::int64_t size = state.range(0);
  auto buf = net::Buffer::pattern(size, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(buf.checksum());
  }
  state.SetBytesProcessed(state.iterations() * size);
}
BENCHMARK(BM_BufferPatternChecksum)->Arg(65536);

}  // namespace

BENCHMARK_MAIN();

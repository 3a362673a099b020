// Footprint regression tests: per-peer and per-node state costs nothing
// until it is used. A counting global operator new pins three properties of
// a large cluster's memory:
//   - a CLIC channel that only receives allocates nothing (its send window
//     is built by the first send);
//   - an idle CPU allocates nothing (its run queues grow on first use);
//   - a fat-tree's switch tables cost no allocation per (switch, MAC) pair.
// The tests count allocations, not bytes: counts follow the structure of
// the code, byte totals the standard library's container layouts.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>
#include <utility>
#include <vector>

#include "clic/channel.hpp"
#include "hw/cpu.hpp"
#include "os/cluster.hpp"
#include "os/kernel.hpp"
#include "sim/simulator.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

}  // namespace

void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace clicsim {
namespace {

// Channel operations that count instead of storing, so the only
// allocations a receive can make are the channel's own.
struct CountingOps : clic::ChannelOps {
  sim::Simulator sim;
  hw::HostParams host;
  hw::Cpu cpu{sim, host, "cpu"};
  os::Kernel kern{sim, cpu};
  int delivered = 0;
  int acks = 0;

  void emit_data(int, clic::Packet&) override {}
  void emit_ack(int, const clic::ClicHeader&) override { ++acks; }
  void deliver(int, clic::Packet) override { ++delivered; }
  os::Kernel& kernel() override { return kern; }
};

TEST(Footprint, ReceiveOnlyChannelAllocatesNothing) {
  CountingOps ops;
  // Warm the event slab and heap, which the delayed-ack timer uses, so
  // their first growth is not charged to the channel.
  for (int i = 1; i <= 256; ++i) ops.sim.after(i, [] {});
  ops.sim.run();
  clic::Config cfg;
  std::vector<net::Buffer> payloads;
  for (int i = 0; i < 64; ++i) payloads.push_back(net::Buffer::zeros(64));
  std::optional<clic::Channel> ch;

  const std::uint64_t before = allocations();
  ch.emplace(cfg, ops, 1);
  for (std::uint32_t seq = 0; seq < 64; ++seq) {
    clic::ClicHeader h;
    h.seq = seq;
    h.flags = clic::flags::kFirstFragment | clic::flags::kLastFragment;
    ch->packet_in(h, {}, std::move(payloads[seq]));
    if (seq % 16 == 15) ops.sim.run();  // let the delayed-ack timer fire
  }
  ops.sim.run();
  const std::uint64_t made = allocations() - before;

  EXPECT_EQ(ops.delivered, 64);
  EXPECT_GT(ops.acks, 0);
  EXPECT_EQ(ch->rx_next(), 64u);
  EXPECT_EQ(made, 0u) << "a receive-only channel allocated";
}

TEST(Footprint, ConstructingACpuAllocatesNothing) {
  sim::Simulator sim;
  hw::HostParams host;
  std::optional<hw::Cpu> cpu;
  const std::uint64_t before = allocations();
  cpu.emplace(sim, host, "cpu");
  EXPECT_EQ(allocations() - before, 0u);
}

TEST(Footprint, FatTreeSwitchTablesAllocateNothingPerSwitchMacPair) {
  // A 1024-node fat-tree has 64 switches, so 65,536 (switch, MAC) pairs.
  // Everything else the build allocates is per node, per link or per
  // switch (about 20 per node), so one allocation per pair would take the
  // count past the number of pairs.
  sim::Simulator sim;
  os::ClusterConfig cc;
  cc.nodes = 1024;
  cc.topology = os::TopologySpec::fat_tree();
  std::optional<os::Cluster> cluster;
  const std::uint64_t before = allocations();
  cluster.emplace(sim, cc);
  const std::uint64_t made = allocations() - before;
  const std::uint64_t pairs =
      static_cast<std::uint64_t>(cluster->switch_count()) * 1024u;
  EXPECT_LT(made, pairs) << made << " allocations for " << pairs
                         << " (switch, MAC) pairs";
}

}  // namespace
}  // namespace clicsim

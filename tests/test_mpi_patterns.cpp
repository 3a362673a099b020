// Communication patterns over the mini-MPI: nonblocking bursts completed
// one request at a time (MPI_Waitall), ring shifts, and pipelined stages.
#include <gtest/gtest.h>

#include "apps/testbed.hpp"
#include "sim/task.hpp"

namespace clicsim {
namespace {

TEST(MpiPatterns, WaitAllOnABurstOfISends) {
  apps::MpiClicBed bed;
  bool all_sent = false;
  int received = 0;
  struct Run {
    static sim::Task tx(mpi::Communicator& c, bool* done) {
      std::vector<sim::Future<bool>> requests;
      for (int i = 0; i < 8; ++i) {
        requests.push_back(c.send(1, 100 + i, net::Buffer::zeros(4000)));
      }
      for (auto& request : requests) (void)co_await request;
      *done = true;
    }
    static sim::Task rx(mpi::Communicator& c, int* received) {
      // Post in reverse tag order: matching must still pair correctly.
      for (int i = 7; i >= 0; --i) {
        mpi::RecvResult r = co_await c.recv(0, 100 + i);
        if (r.tag == 100 + i) ++*received;
      }
    }
  };
  Run::tx(bed.comm(0), &all_sent);
  Run::rx(bed.comm(1), &received);
  bed.sim().run();
  EXPECT_TRUE(all_sent);
  EXPECT_EQ(received, 8);
}

TEST(MpiPatterns, RingShiftCompletesOnEveryRank) {
  constexpr int kRanks = 6;
  os::ClusterConfig cc;
  cc.nodes = kRanks;
  apps::MpiClicBed bed(cc);
  int ok = 0;
  struct Run {
    static sim::Task go(mpi::Communicator& c, int* ok) {
      const int right = (c.rank() + 1) % c.size();
      const int left = (c.rank() - 1 + c.size()) % c.size();
      // Nonblocking send right, blocking receive from the left.
      auto req = c.send(right, 5, net::Buffer::pattern(2048, c.rank()));
      mpi::RecvResult r = co_await c.recv(left, 5);
      (void)co_await req;
      if (r.src == left &&
          r.data.content_equals(net::Buffer::pattern(2048, left))) {
        ++*ok;
      }
    }
  };
  for (int i = 0; i < kRanks; ++i) Run::go(bed.comm(i), &ok);
  bed.sim().run();
  EXPECT_EQ(ok, kRanks);
}

TEST(MpiPatterns, PipelineBottlenecksOnMiddleNodesPci) {
  // rank0 -> rank1 -> rank2 pipeline of 10 blocks. Even with preposted
  // receives, the middle node's single 33 MHz PCI bus carries BOTH the
  // inbound and the outbound transfer, so the pipeline runs at half the
  // point-to-point rate — the 2002-hardware reality the paper's section 1
  // gestures at ("the I/O buses have become the bottleneck").
  os::ClusterConfig cc;
  cc.nodes = 3;
  apps::MpiClicBed bed(cc);
  constexpr int kBlocks = 10;
  constexpr std::int64_t kBlock = 256 * 1024;
  sim::SimTime done_at = 0;

  struct Run {
    static sim::Task src(mpi::Communicator& c) {
      for (int i = 0; i < kBlocks; ++i) {
        (void)co_await c.send(1, i, net::Buffer::zeros(kBlock));
      }
    }
    static sim::Task mid(mpi::Communicator& c) {
      // Prepost the next receive before forwarding the current block, so
      // the inbound transfer overlaps the outbound one (true pipelining).
      auto pending = c.recv(0, 0);
      for (int i = 0; i < kBlocks; ++i) {
        mpi::RecvResult r = co_await pending;
        if (i + 1 < kBlocks) pending = c.recv(0, i + 1);
        (void)co_await c.send(2, i, std::move(r.data));
      }
    }
    static sim::Task sink(sim::Simulator& sim, mpi::Communicator& c,
                          sim::SimTime* done_at) {
      for (int i = 0; i < kBlocks; ++i) (void)co_await c.recv(1, i);
      *done_at = sim.now();
    }
  };
  Run::src(bed.comm(0));
  Run::mid(bed.comm(1));
  Run::sink(bed.sim(), bed.comm(2), &done_at);
  bed.sim().run();

  // One hop of all blocks at the ~600 Mb/s asymptote is ~35 ms; the
  // middle node's shared PCI makes the two-hop chain ~2x that, and the
  // bus should be near-saturated for the duration.
  const double ms = sim::to_ms(done_at);
  EXPECT_GT(ms, 55.0);
  EXPECT_LT(ms, 95.0);
  EXPECT_GT(bed.bed.cluster.node(1).pci().utilization(), 0.75);
}

}  // namespace
}  // namespace clicsim

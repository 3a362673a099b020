// NIC-profile sweeps (every supported card must run every stack sanely)
// and failure-mode behaviour: black holes, partitions, and misconfigured
// peers must degrade predictably, never crash or hang the simulator.
#include <gtest/gtest.h>

#include "apps/testbed.hpp"
#include "apps/workloads.hpp"
#include "sim/task.hpp"

namespace clicsim {
namespace {

// --- Profile sweep ----------------------------------------------------------------

struct ProfileCase {
  const char* name;
  hw::NicProfile (*make)();
  double link_bits_per_s;
  std::int64_t mtu;
};

// Without this, gtest prints the raw bytes of the case, pointers included,
// so the listed test names would change with every address-space layout.
void PrintTo(const ProfileCase& pc, std::ostream* os) { *os << pc.name; }

class NicProfiles : public ::testing::TestWithParam<ProfileCase> {};

TEST_P(NicProfiles, ClicRunsSanelyOnEveryCard) {
  const auto& pc = GetParam();
  apps::Scenario s;
  s.cluster.nic = pc.make();
  s.cluster.link.bits_per_s = pc.link_bits_per_s;
  s.mtu = pc.mtu;
  s.pingpong_reps = 2;

  const auto lat = apps::clic_one_way(s, 0);
  EXPECT_GT(lat, sim::microseconds(10)) << pc.name;
  EXPECT_LT(lat, sim::microseconds(300)) << pc.name;

  const double bw = apps::to_mbps(1 << 20, apps::clic_one_way(s, 1 << 20));
  EXPECT_GT(bw, 0.5 * pc.link_bits_per_s / 1e6 * 0.05) << pc.name;
  EXPECT_LT(bw, pc.link_bits_per_s / 1e6) << pc.name;  // never beats wire
}

INSTANTIATE_TEST_SUITE_P(
    Cards, NicProfiles,
    ::testing::Values(
        ProfileCase{"smc9462", &hw::NicProfile::smc9462, 1e9, 9000},
        ProfileCase{"ga620", &hw::NicProfile::ga620, 1e9, 9000},
        ProfileCase{"gnic2", &hw::NicProfile::gnic2, 1e9, 1500},
        ProfileCase{"fe100", &hw::NicProfile::fast_ether_100, 100e6, 1500}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(NicProfiles, FastEthernetForcesOneCopyPath) {
  // No scatter/gather on the FE card: the 0-copy config silently degrades
  // to the copy path (exactly the Fast Ethernet CLIC of [13]).
  apps::Scenario zero;
  zero.cluster.nic = hw::NicProfile::fast_ether_100();
  zero.cluster.link.bits_per_s = 100e6;
  zero.mtu = 1500;
  zero.clic.tx_path = clic::TxPath::kZeroCopy;
  apps::Scenario one = zero;
  one.clic.tx_path = clic::TxPath::kOneCopy;
  const auto a = apps::clic_one_way(zero, 60000);
  const auto b = apps::clic_one_way(one, 60000);
  EXPECT_EQ(a, b);  // identical: both actually take path 3
}

// --- Failure modes ----------------------------------------------------------------

TEST(FailureModes, TotalBlackHoleFailsCleanlyWithBoundedRetries) {
  apps::ClicBed bed;
  bed.cluster.link(0).faults(0).set_drop_probability(1.0);
  bed.module(0).bind_port(1);
  bed.module(1).bind_port(1);
  bool completed = false;
  bool ok = true;
  clic::SendError error = clic::SendError::kNone;
  struct Run {
    static sim::Task go(clic::ClicModule& m, bool* done, bool* ok,
                        clic::SendError* error) {
      auto st = co_await m.send(1, 1, 1, net::Buffer::zeros(1000),
                                clic::SendMode::kConfirmed);
      *done = true;
      *ok = st.ok;
      *error = st.error;
    }
  };
  Run::go(bed.module(0), &completed, &ok, &error);
  bed.sim.run_until(sim::seconds(30));
  // Bounded failure: the send *resolves* (with a clean error) instead of
  // retrying forever.
  EXPECT_TRUE(completed);
  EXPECT_FALSE(ok);
  EXPECT_EQ(error, clic::SendError::kTimedOut);
  auto* ch = bed.module(0).channel_to(1);
  ASSERT_NE(ch, nullptr);
  // Retransmission traffic over the 30 s black hole is geometric, not
  // linear: at most the retry budget, not rto-spaced thousands.
  const auto budget =
      static_cast<std::uint64_t>(bed.module(0).config().max_retries);
  EXPECT_GE(ch->retransmits(), 1u);
  EXPECT_LE(ch->retransmits(), budget);
  EXPECT_EQ(ch->gave_up(), 1u);
  // Nothing left ticking afterwards.
  EXPECT_EQ(ch->in_flight(), 0);
}

TEST(FailureModes, AsymmetricLossOnlyAcksDropped) {
  // Data flows fine; all acks vanish. The sender must retransmit, and the
  // receiver must suppress the duplicates.
  apps::ClicBed bed;
  bed.cluster.link(1).faults(0).set_drop_probability(1.0);  // node1 -> switch
  bed.module(0).bind_port(1);
  bed.module(1).bind_port(1);
  struct Run {
    static sim::Task tx(clic::ClicModule& m) {
      (void)co_await m.send(1, 1, 1, net::Buffer::pattern(4000, 1),
                            clic::SendMode::kSync);
    }
    static sim::Task rx(clic::ClicModule& m, int* got) {
      for (;;) {
        (void)co_await m.recv(1);
        ++*got;
      }
    }
  };
  int got = 0;
  Run::tx(bed.module(0));
  Run::rx(bed.module(1), &got);
  // Backoff spaces the retries out geometrically, so give it the full
  // retry budget's horizon rather than 100 ms.
  bed.sim.run_until(sim::seconds(2));
  EXPECT_EQ(got, 1);  // delivered exactly once despite retransmissions
  auto* ch = bed.module(1).channel_to(0);
  ASSERT_NE(ch, nullptr);
  EXPECT_GE(ch->duplicates(), 5u);
}

TEST(FailureModes, SimulationDrainsCleanlyAfterAbandonedTransfers) {
  // A transfer that can never finish must not leave the event loop
  // spinning forever once its retry timers are the only activity.
  apps::ClicBed bed;
  bed.cluster.link(0).faults(0).set_drop_probability(1.0);
  bed.module(0).bind_port(1);
  struct Run {
    static sim::Task go(clic::ClicModule& m) {
      (void)co_await m.send(1, 1, 1, net::Buffer::zeros(100),
                            clic::SendMode::kConfirmed);
    }
  };
  Run::go(bed.module(0));
  const auto executed = bed.sim.run_until(sim::milliseconds(50));
  // Bounded activity: retries tick at the RTO, not in a busy loop.
  EXPECT_LT(executed, 5000u);
}

TEST(FailureModes, UdpFloodOverwhelmsNothing) {
  apps::TcpBed bed;
  bed.udp[1]->bind(6000);
  struct Run {
    static sim::Task tx(tcpip::UdpStack& u) {
      for (int i = 0; i < 300; ++i) {
        (void)co_await u.sendto(6001, 1, 6000, net::Buffer::zeros(1200));
      }
    }
    static sim::Task rx(tcpip::UdpStack& u, int* got) {
      for (;;) {
        (void)co_await u.recvfrom(6000);
        ++*got;
      }
    }
  };
  int got = 0;
  Run::tx(*bed.udp[0]);
  Run::rx(*bed.udp[1], &got);
  bed.sim.run_until(sim::seconds(1));
  // Datagram service: whatever survives the rings arrives; no crash, and
  // accounting is consistent.
  EXPECT_GT(got, 200);
  EXPECT_LE(static_cast<std::uint64_t>(got),
            bed.udp[1]->datagrams_received());
}

TEST(FailureModes, GammaHandlerExceptionsAreNotOurProblemButDropsAre) {
  // A GAMMA port with no handler and no mailbox: traffic is counted as
  // dropped, and the module survives a follow-up registration.
  apps::GammaBed bed;
  struct Run {
    static sim::Task go(gamma::GammaModule& m) {
      (void)co_await m.send(1, 4, net::Buffer::zeros(100));
    }
  };
  Run::go(bed.module(0));
  bed.sim.run();
  EXPECT_EQ(bed.module(1).dropped_no_port(), 1u);

  bed.module(1).open_mailbox_port(4);
  Run::go(bed.module(0));
  bed.sim.run();
  EXPECT_EQ(bed.module(1).messages_received(), 1u);
}

}  // namespace
}  // namespace clicsim

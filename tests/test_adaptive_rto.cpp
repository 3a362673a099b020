// Adaptive reliability mode (DESIGN.md §4k): RFC 6298 estimator oracle
// values, Karn's-rule exclusion of retransmitted samples, the estimator
// feeding the RTO ladder, slow-start/AIMD window motion with timeout
// collapse, deterministic pacing, estimator reset on channel resync, and
// digest-identical adaptive workload runs at --shards 1/2/8 and -j1/-j8.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "apps/workloads.hpp"
#include "clic/channel.hpp"
#include "clic/rtt.hpp"
#include "hw/cpu.hpp"
#include "os/kernel.hpp"
#include "sim/parallel_executor.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace clicsim::clic {
namespace {

// --- Estimator oracle -------------------------------------------------------

TEST(RttEstimator, FirstSampleSeedsSrttAndHalfVariance) {
  RttEstimator est;
  EXPECT_FALSE(est.primed());
  est.sample(1000);
  EXPECT_TRUE(est.primed());
  EXPECT_EQ(est.srtt(), 1000);
  EXPECT_EQ(est.rttvar(), 500);
  // RTO = SRTT + 4·RTTVAR = 3000, inside the clamp.
  EXPECT_EQ(est.rto(1, 1000000), 3000);
}

TEST(RttEstimator, PinnedUpdateSequence) {
  // Hand-computed RFC 6298 integer arithmetic:
  //   sample 1000: srtt 1000, rttvar 500
  //   sample 2000: rttvar (3·500 + |1000−2000|)/4 = 625
  //                srtt   (7·1000 + 2000)/8       = 1125
  //   sample  500: rttvar (3·625 + |1125−500|)/4  = 625
  //                srtt   (7·1125 + 500)/8        = 1046
  RttEstimator est;
  est.sample(1000);
  est.sample(2000);
  EXPECT_EQ(est.srtt(), 1125);
  EXPECT_EQ(est.rttvar(), 625);
  est.sample(500);
  EXPECT_EQ(est.srtt(), 1046);
  EXPECT_EQ(est.rttvar(), 625);
  EXPECT_EQ(est.samples(), 3u);
}

TEST(RttEstimator, RtoClampsToFloorAndCeiling) {
  RttEstimator est;
  est.sample(10);  // srtt 10, rttvar 5 → raw RTO 30
  EXPECT_EQ(est.rto(1000, 2000), 1000);  // floor
  EXPECT_EQ(est.rto(1, 20), 20);         // ceiling
}

TEST(RttEstimator, ResetForgetsEverything) {
  RttEstimator est;
  est.sample(1000);
  est.reset();
  EXPECT_FALSE(est.primed());
  EXPECT_EQ(est.srtt(), 0);
  EXPECT_EQ(est.rttvar(), 0);
  EXPECT_EQ(est.samples(), 0u);
}

// --- Channel state machine --------------------------------------------------

struct FakeOps : ChannelOps {
  sim::Simulator sim;
  hw::HostParams host;
  hw::Cpu cpu{sim, host, "cpu"};
  os::Kernel kern{sim, cpu};

  std::vector<Packet> emitted;
  std::vector<ClicHeader> acks;
  std::vector<Packet> delivered;

  void emit_data(int, Packet& p) override { emitted.push_back(p); }
  void emit_ack(int, const ClicHeader& h) override { acks.push_back(h); }
  void deliver(int, Packet p) override { delivered.push_back(std::move(p)); }
  os::Kernel& kernel() override { return kern; }
};

Packet data_packet() {
  Packet p;
  p.header.type = PacketType::kUser;
  p.header.flags = flags::kFirstFragment | flags::kLastFragment;
  p.payload = net::Buffer::zeros(100);
  return p;
}

Config adaptive_cfg() {
  Config cfg;
  cfg.adaptive = true;
  cfg.pacing_gap = 0;  // most state-machine tests want instant release
  return cfg;
}

void ack_up_to(Channel& ch, std::uint32_t ack) {
  ClicHeader h;
  h.flags = flags::kPureAck;
  h.ack = ack;
  ch.packet_in(h, {}, net::Buffer::zeros(0));
}

TEST(AdaptiveChannel, EstimatorFeedsTheRtoLadder) {
  FakeOps ops;
  Config cfg = adaptive_cfg();
  Channel ch(cfg, ops, 1);
  // Unprimed: the configured initial RTO seeds the ladder.
  EXPECT_EQ(ch.current_rto(), cfg.rto);
  ch.send(data_packet());
  ops.sim.run_until(sim::microseconds(100));
  ack_up_to(ch, 1);  // sample = 100 us round trip
  ASSERT_EQ(ch.rtt().samples(), 1u);
  EXPECT_EQ(ch.rtt().srtt(), sim::microseconds(100.0));
  // RTO = srtt + 4·rttvar = 300 us, above the 200 us floor.
  EXPECT_EQ(ch.current_rto(), sim::microseconds(300.0));
}

TEST(AdaptiveChannel, BackoffDoublesTheMeasuredRto) {
  FakeOps ops;
  Config cfg = adaptive_cfg();
  Channel ch(cfg, ops, 1);
  ch.send(data_packet());
  ops.sim.run_until(sim::microseconds(100));
  ack_up_to(ch, 1);
  ASSERT_EQ(ch.current_rto(), sim::microseconds(300.0));
  // A lost packet: each consecutive expiry doubles the measured base.
  ch.send(data_packet());
  ops.sim.run_until(sim::milliseconds(1.0));  // expiries at 400, 1000 us
  EXPECT_EQ(ch.timeouts(), 2u);
  EXPECT_EQ(ch.backoff_level(), 2);
  EXPECT_EQ(ch.current_rto(), sim::microseconds(1200.0));  // 300·2²
}

TEST(AdaptiveChannel, PaperConfigsKeepTheirLadders) {
  // adaptive_clic_config inherits rto_backoff = 1.0 from the paper's
  // fixed clock, yet adaptive mode still doubles the RTO per expiry.
  FakeOps ops;
  const Config adaptive = apps::adaptive_clic_config();
  ASSERT_EQ(adaptive.rto_backoff, 1.0);
  Channel ach(adaptive, ops, 1);
  ach.send(data_packet());
  ops.sim.run_until(sim::milliseconds(10.0));  // expiries at 3, 9 ms
  EXPECT_EQ(ach.timeouts(), 2u);
  EXPECT_EQ(ach.current_rto(), 4 * adaptive.rto);

  // The paper's fixed mode keeps a flat clock.
  FakeOps fops;
  const Config fixed = apps::paper_clic_config();
  Channel fch(fixed, fops, 1);
  fch.send(data_packet());
  fops.sim.run_until(sim::milliseconds(10.0));  // expiries at 3, 6, 9 ms
  EXPECT_EQ(fch.timeouts(), 3u);
  EXPECT_EQ(fch.current_rto(), fixed.rto);
}

TEST(AdaptiveChannel, OutOfOrderArrivalAcksAtOnce) {
  FakeOps ops;
  Config cfg = adaptive_cfg();
  cfg.ack_every = 100;  // only the gap rule can force the ack
  Channel ch(cfg, ops, 1);
  ClicHeader h;
  h.seq = 1;  // seq 0 is missing
  h.flags = flags::kFirstFragment | flags::kLastFragment;
  ch.packet_in(h, {}, net::Buffer::zeros(10));
  EXPECT_EQ(ch.out_of_order(), 1u);
  ASSERT_EQ(ops.acks.size(), 1u);
  EXPECT_EQ(ops.acks[0].ack, 0u);
}

TEST(AdaptiveChannel, KarnExcludesRetransmittedSamples) {
  FakeOps ops;
  Config cfg = adaptive_cfg();
  Channel ch(cfg, ops, 1);
  ch.send(data_packet());
  // Let the packet time out once (cfg.rto = 3 ms seeds the ladder), then
  // ack it: the ack is ambiguous between the two copies, so no sample.
  ops.sim.run_until(sim::milliseconds(3.5));
  ASSERT_EQ(ch.retransmits(), 1u);
  ack_up_to(ch, 1);
  EXPECT_EQ(ch.rtt().samples(), 0u);
  // A clean exchange afterwards does sample.
  ch.send(data_packet());
  ops.sim.run_until(sim::milliseconds(3.6));
  ack_up_to(ch, 2);
  EXPECT_EQ(ch.rtt().samples(), 1u);
}

TEST(AdaptiveChannel, SlowStartOpensAndTimeoutCollapsesTheWindow) {
  FakeOps ops;
  Config cfg = adaptive_cfg();
  cfg.cwnd_init = 2;
  Channel ch(cfg, ops, 1);
  for (int i = 0; i < 12; ++i) ch.send(data_packet());
  // Initial window: cwnd_init packets in flight, the rest queued.
  EXPECT_EQ(ch.cwnd(), 2);
  EXPECT_EQ(ch.in_flight(), 2);
  EXPECT_EQ(ch.pending(), 10u);
  // Two acked packets: slow start adds one per ack and releases more.
  ops.sim.run_until(sim::microseconds(50));
  ack_up_to(ch, 2);
  EXPECT_EQ(ch.cwnd(), 4);
  EXPECT_EQ(ch.in_flight(), 4);
  EXPECT_EQ(ch.window_max(), 4);
  // Timeout: window collapses back to cwnd_init and the collapse is
  // counted.
  ops.sim.run_until(sim::milliseconds(10.0));
  EXPECT_GE(ch.timeouts(), 1u);
  EXPECT_EQ(ch.cwnd(), 2);
  EXPECT_EQ(ch.window_min(), 2);
  EXPECT_GE(ch.window_collapses(), 1u);
}

TEST(AdaptiveChannel, LossRecoveryResendsOnlyPacketsThatWereSent) {
  // Recovery resends up to a window (cwnd_init = 4) of the oldest unacked
  // packets. Here only one has been sent: the rest wait on a pacing gap
  // longer than the test, and a timeout must not put them on the wire.
  FakeOps ops;
  Config cfg;
  cfg.adaptive = true;
  cfg.cwnd_init = 4;
  cfg.pacing_gap = sim::milliseconds(50.0);
  Channel ch(cfg, ops, 1);
  for (int i = 0; i < 6; ++i) ch.send(data_packet());
  ASSERT_EQ(ops.emitted.size(), 1u);
  ops.sim.run_until(sim::milliseconds(10.0));
  EXPECT_GE(ch.timeouts(), 1u);
  EXPECT_EQ(ch.retransmits(), ch.timeouts());
  for (const Packet& p : ops.emitted) EXPECT_EQ(p.header.seq, 0u);
  EXPECT_EQ(ch.in_flight(), 1);
  EXPECT_EQ(ch.pending(), 5u);
}

TEST(AdaptiveChannel, PacingSpacesReleases) {
  FakeOps ops;
  Config cfg;
  cfg.adaptive = true;
  cfg.pacing_gap = sim::microseconds(10.0);
  cfg.cwnd_init = 64;  // window never the limiter here
  Channel ch(cfg, ops, 1);
  for (int i = 0; i < 3; ++i) ch.send(data_packet());
  // Only the first goes out instantly; the rest wait on the pace timer.
  EXPECT_EQ(ops.emitted.size(), 1u);
  ops.sim.run_until(sim::microseconds(15));
  EXPECT_EQ(ops.emitted.size(), 2u);
  ops.sim.run_until(sim::microseconds(25));
  EXPECT_EQ(ops.emitted.size(), 3u);
}

TEST(AdaptiveChannel, GiveUpResetsEstimatorAndWindow) {
  FakeOps ops;
  Config cfg = adaptive_cfg();
  cfg.max_retries = 2;
  Channel ch(cfg, ops, 1);
  // Prime the estimator with one clean exchange.
  ch.send(data_packet());
  ops.sim.run_until(sim::microseconds(100));
  ack_up_to(ch, 1);
  ASSERT_EQ(ch.rtt().samples(), 1u);
  // Black-hole the next packet until the retry budget burns out.
  bool failed = false;
  ch.send(data_packet(), [&](bool ok) { failed = !ok; });
  ops.sim.run_until(sim::seconds(1.0));
  EXPECT_EQ(ch.gave_up(), 1u);
  EXPECT_TRUE(failed);
  // Channel resync forgets the estimator and restarts the window.
  EXPECT_EQ(ch.rtt().samples(), 0u);
  EXPECT_FALSE(ch.rtt().primed());
  EXPECT_EQ(ch.cwnd(), cfg.cwnd_init);
  EXPECT_EQ(ch.in_flight(), 0);
}

TEST(AdaptiveChannel, DisabledModeKeepsFixedWindowSemantics) {
  FakeOps ops;
  Config cfg;  // adaptive off
  cfg.window_packets = 4;
  Channel ch(cfg, ops, 1);
  for (int i = 0; i < 10; ++i) ch.send(data_packet());
  EXPECT_EQ(ops.emitted.size(), 4u);
  EXPECT_EQ(ch.cwnd(), cfg.window_packets);
  EXPECT_EQ(ch.rtt().samples(), 0u);
  ack_up_to(ch, 3);
  EXPECT_EQ(ch.rtt().samples(), 0u);  // no estimator outside adaptive mode
  EXPECT_EQ(ch.window_collapses(), 0u);
}

// --- Workload determinism ---------------------------------------------------

apps::Scenario adaptive_scenario(int shards) {
  apps::Scenario s;
  s.cluster.shards = shards;
  s.clic = apps::adaptive_clic_config();
  return s;
}

apps::RpcConfig small_rpc(apps::ArrivalSpec::Process process) {
  apps::RpcConfig cfg;
  cfg.client_nodes = 3;
  cfg.clients_per_node = 4;
  cfg.requests_per_client = 4;
  cfg.arrivals.process = process;
  cfg.arrivals.rate_per_s = 2000.0;
  cfg.arrivals.incast_period = sim::milliseconds(2.0);
  cfg.seed = 7;
  return cfg;
}

TEST(AdaptiveDeterminism, RpcShardInvariant) {
  const auto cfg = small_rpc(apps::ArrivalSpec::Process::kPoisson);
  const apps::RpcResult base = apps::rpc_clic(adaptive_scenario(1), cfg);
  EXPECT_EQ(base.in_flight, 0u);
  EXPECT_EQ(base.responses, base.requests);
  for (const int shards : {2, 8}) {
    const apps::RpcResult r = apps::rpc_clic(adaptive_scenario(shards), cfg);
    EXPECT_EQ(r.digest, base.digest) << "shards=" << shards;
    EXPECT_EQ(r.latency, base.latency) << "shards=" << shards;
    EXPECT_EQ(r.finished_at, base.finished_at) << "shards=" << shards;
  }
  // Same-process replay.
  EXPECT_EQ(apps::rpc_clic(adaptive_scenario(1), cfg).digest, base.digest);
  // The adaptive path really engaged: the schedule differs from the
  // fixed-clock stack's under the same workload.
  apps::Scenario fixed;
  fixed.cluster.shards = 1;
  EXPECT_NE(apps::rpc_clic(fixed, cfg).digest, base.digest);
}

TEST(AdaptiveDeterminism, IncastShardInvariant) {
  const auto cfg = small_rpc(apps::ArrivalSpec::Process::kIncast);
  const apps::RpcResult base = apps::rpc_clic(adaptive_scenario(1), cfg);
  EXPECT_EQ(base.in_flight, 0u);
  for (const int shards : {2, 8}) {
    EXPECT_EQ(apps::rpc_clic(adaptive_scenario(shards), cfg).digest,
              base.digest)
        << "shards=" << shards;
  }
}

TEST(AdaptiveDeterminism, ParallelMatchesSerial) {
  const apps::ArrivalSpec::Process kProcs[] = {
      apps::ArrivalSpec::Process::kPoisson,
      apps::ArrivalSpec::Process::kBursty,
      apps::ArrivalSpec::Process::kIncast,
  };
  constexpr std::size_t kN = std::size(kProcs);
  auto run = [&](std::size_t i) {
    return apps::rpc_clic(adaptive_scenario(1), small_rpc(kProcs[i])).digest;
  };
  std::vector<std::uint64_t> serial(kN);
  for (std::size_t i = 0; i < kN; ++i) serial[i] = run(i);
  for (int threads : {2, 8}) {
    std::vector<std::uint64_t> parallel(kN);
    sim::ParallelExecutor pool(threads);
    pool.run_indexed(kN, [&](std::size_t i) { parallel[i] = run(i); });
    EXPECT_EQ(parallel, serial) << "-j" << threads
                                << " diverged from serial";
  }
}

}  // namespace
}  // namespace clicsim::clic

// Integration tests for CLIC_MODULE: send modes, segmentation, integrity,
// intra-node messaging, remote write, broadcast, kernel functions,
// protection, loss recovery and channel bonding.
#include <gtest/gtest.h>

#include "apps/testbed.hpp"
#include "apps/workloads.hpp"
#include "sim/task.hpp"

namespace clicsim {
namespace {

using apps::ClicBed;

sim::Task send_one(clic::ClicModule& m, int port, int dst, net::Buffer data,
                   clic::SendMode mode, bool* done) {
  auto st = co_await m.send(port, dst, port, std::move(data), mode);
  EXPECT_TRUE(st.ok);
  if (done) *done = true;
}

sim::Task recv_one(clic::ClicModule& m, int port, clic::Message* out) {
  *out = co_await m.recv(port);
}

// --- Send/recv basics -------------------------------------------------------------

TEST(ClicModule, ZeroByteMessage) {
  ClicBed bed;
  bed.module(0).bind_port(5);
  bed.module(1).bind_port(5);
  bool sent = false;
  clic::Message got;
  send_one(bed.module(0), 5, 1, net::Buffer::zeros(0),
           clic::SendMode::kSync, &sent);
  recv_one(bed.module(1), 5, &got);
  bed.sim.run();
  EXPECT_TRUE(sent);
  EXPECT_EQ(got.data.size(), 0);
  EXPECT_EQ(got.src_node, 0);
}

TEST(ClicModule, SegmentsToMtuAndReassembles) {
  ClicBed bed;
  bed.cluster.set_mtu_all(1500);
  bed.module(0).bind_port(5);
  bed.module(1).bind_port(5);
  // 10 KB over MTU 1500: ceil(10240 / 1488) = 7 packets.
  net::Buffer payload = net::Buffer::pattern(10240, 17);
  bool sent = false;
  clic::Message got;
  send_one(bed.module(0), 5, 1, payload, clic::SendMode::kSync, &sent);
  recv_one(bed.module(1), 5, &got);
  bed.sim.run();
  EXPECT_TRUE(sent);
  EXPECT_TRUE(got.data.content_equals(payload));
  auto* ch = bed.module(1).channel_to(0);
  ASSERT_NE(ch, nullptr);
  EXPECT_EQ(ch->rx_next(), 7u);
}

TEST(ClicModule, MessageArrivingBeforeRecvWaitsInSystemMemory) {
  ClicBed bed;
  bed.module(0).bind_port(5);
  bed.module(1).bind_port(5);
  send_one(bed.module(0), 5, 1, net::Buffer::pattern(2000, 3),
           clic::SendMode::kSync, nullptr);
  bed.sim.run();
  EXPECT_TRUE(bed.module(1).poll(5));

  clic::Message got;
  recv_one(bed.module(1), 5, &got);
  bed.sim.run();
  EXPECT_TRUE(got.data.content_equals(net::Buffer::pattern(2000, 3)));
  EXPECT_FALSE(bed.module(1).poll(5));
}

TEST(ClicModule, ConfirmedSendCompletesAfterPeerAck) {
  ClicBed bed;
  bed.module(0).bind_port(5);
  bed.module(1).bind_port(5);
  sim::SimTime sync_done = 0;
  sim::SimTime confirmed_done = 0;

  struct Run {
    static sim::Task go(ClicBed& bed, clic::SendMode mode,
                        sim::SimTime* out) {
      (void)co_await bed.module(0).send(5, 1, 5, net::Buffer::zeros(4000),
                                        mode);
      *out = bed.sim.now();
    }
  };
  Run::go(bed, clic::SendMode::kSync, &sync_done);
  bed.sim.run();
  const auto t_sync = sync_done;

  ClicBed bed2;
  bed2.module(0).bind_port(5);
  bed2.module(1).bind_port(5);
  Run::go(bed2, clic::SendMode::kConfirmed, &confirmed_done);
  bed2.sim.run();
  // Confirmation needs the round trip; plain sync only the local DMA.
  EXPECT_GT(confirmed_done, t_sync + sim::microseconds(10));
}

TEST(ClicModule, AsyncSendReturnsBeforeDelivery) {
  ClicBed bed;
  bed.module(0).bind_port(5);
  bed.module(1).bind_port(5);
  sim::SimTime async_done = 0;
  struct Run {
    static sim::Task go(ClicBed& bed, sim::SimTime* out) {
      (void)co_await bed.module(0).send(5, 1, 5,
                                        net::Buffer::zeros(1 << 20),
                                        clic::SendMode::kAsync);
      *out = bed.sim.now();
    }
  };
  Run::go(bed, &async_done);
  bed.sim.run();
  // 1 MB takes ~14 ms to move; the async call returns in microseconds...
  EXPECT_LT(async_done, sim::milliseconds(2));
  // ...yet the data still arrives.
  EXPECT_EQ(bed.module(1).messages_received(), 1u);
}

TEST(ClicModule, ManyMessagesKeepOrderPerPortPair) {
  ClicBed bed;
  bed.module(0).bind_port(5);
  bed.module(1).bind_port(5);
  struct Run {
    static sim::Task tx(ClicBed& bed) {
      for (int i = 0; i < 20; ++i) {
        (void)co_await bed.module(0).send(
            5, 1, 5, net::Buffer::pattern(100 + i, i));
      }
    }
    static sim::Task rx(ClicBed& bed, int* ok) {
      for (int i = 0; i < 20; ++i) {
        clic::Message m = co_await bed.module(1).recv(5);
        if (m.data.size() == 100 + i &&
            m.data.content_equals(net::Buffer::pattern(100 + i, i))) {
          ++*ok;
        }
      }
    }
  };
  int ok = 0;
  Run::tx(bed);
  Run::rx(bed, &ok);
  bed.sim.run();
  EXPECT_EQ(ok, 20);
}

// --- Intra-node --------------------------------------------------------------------

TEST(ClicModule, IntraNodeMessagingWorksWithoutNic) {
  ClicBed bed;
  bed.module(0).bind_port(3);
  bed.module(0).bind_port(4);
  net::Buffer payload = net::Buffer::pattern(5000, 9);
  bool sent = false;
  clic::Message got;

  struct Run {
    static sim::Task go(clic::ClicModule& m, net::Buffer data, bool* sent) {
      auto st = co_await m.send(3, /*dst_node=*/0, /*dst_port=*/4,
                                std::move(data));
      EXPECT_TRUE(st.ok);
      *sent = true;
    }
  };
  Run::go(bed.module(0), payload, &sent);
  recv_one(bed.module(0), 4, &got);
  const auto frames_before = bed.cluster.link(0).frames_sent(0);
  bed.sim.run();
  EXPECT_TRUE(sent);
  EXPECT_TRUE(got.data.content_equals(payload));
  EXPECT_EQ(bed.module(0).intra_node_messages(), 1u);
  EXPECT_EQ(bed.cluster.link(0).frames_sent(0), frames_before);  // no wire
}

// --- Remote write ------------------------------------------------------------------

TEST(ClicModule, RemoteWriteLandsWithoutRecv) {
  ClicBed bed;
  bed.module(1).register_region(7, 1 << 20);
  net::Buffer data = net::Buffer::pattern(40000, 21);
  bool done = false;
  struct Run {
    static sim::Task go(clic::ClicModule& m, net::Buffer d, bool* done) {
      auto st = co_await m.remote_write(1, 7, std::move(d));
      EXPECT_TRUE(st.ok);
      *done = true;
    }
  };
  Run::go(bed.module(0), data, &done);
  bed.sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(bed.module(1).region_bytes(7), 40000);
  EXPECT_TRUE(bed.module(1).region_contents(7).content_equals(data));
}

TEST(ClicModule, RemoteWriteRespectsRegionCapacity) {
  ClicBed bed;
  bed.module(1).register_region(7, 1000);
  struct Run {
    static sim::Task go(clic::ClicModule& m) {
      (void)co_await m.remote_write(1, 7, net::Buffer::zeros(800),
                                    clic::SendMode::kSync);
      (void)co_await m.remote_write(1, 7, net::Buffer::zeros(800),
                                    clic::SendMode::kSync);
    }
  };
  Run::go(bed.module(0));
  bed.sim.run();
  EXPECT_EQ(bed.module(1).region_bytes(7), 800);  // second write rejected
}

TEST(ClicModule, RemoteWriteToUnregisteredRegionIsDropped) {
  ClicBed bed;
  struct Run {
    static sim::Task go(clic::ClicModule& m) {
      (void)co_await m.remote_write(1, 99, net::Buffer::zeros(100),
                                    clic::SendMode::kSync);
    }
  };
  Run::go(bed.module(0));
  bed.sim.run();
  EXPECT_EQ(bed.module(1).region_bytes(99), 0);
}

// --- Kernel functions ----------------------------------------------------------------

TEST(ClicModule, KernelFunctionPacketsInvokeHandlers) {
  ClicBed bed;
  int invoked = 0;
  std::int64_t got_bytes = 0;
  bed.module(1).register_kernel_fn(12, [&](clic::Message m) {
    ++invoked;
    got_bytes = m.data.size();
  });
  send_one(bed.module(0), 12, 1, net::Buffer::zeros(500),
           clic::SendMode::kSync, nullptr);
  bed.sim.run();
  EXPECT_EQ(invoked, 0);  // kUser type does not hit kernel fns...

  struct Run {
    static sim::Task go(clic::ClicModule& m) {
      (void)co_await m.send(0, 1, 12, net::Buffer::zeros(500),
                            clic::SendMode::kSync,
                            clic::PacketType::kKernelFn);
    }
  };
  Run::go(bed.module(0));
  bed.sim.run();
  EXPECT_EQ(invoked, 1);
  EXPECT_EQ(got_bytes, 500);
}

// --- Broadcast ------------------------------------------------------------------------

TEST(ClicModule, BroadcastReachesAllOtherNodes) {
  os::ClusterConfig cc;
  cc.nodes = 5;
  ClicBed bed(cc);
  for (int i = 0; i < 5; ++i) bed.module(i).bind_port(9);
  net::Buffer payload = net::Buffer::pattern(12000, 30);

  struct Run {
    static sim::Task tx(clic::ClicModule& m, net::Buffer d) {
      auto st = co_await m.broadcast(9, 9, std::move(d));
      EXPECT_TRUE(st.ok);
    }
    static sim::Task rx(clic::ClicModule& m, net::Buffer expect, int* ok) {
      clic::Message got = co_await m.recv(9);
      if (got.data.content_equals(expect) &&
          got.type == clic::PacketType::kBroadcast) {
        ++*ok;
      }
    }
  };
  int ok = 0;
  Run::tx(bed.module(2), payload);
  for (int i = 0; i < 5; ++i) {
    if (i != 2) Run::rx(bed.module(i), payload, &ok);
  }
  bed.sim.run();
  EXPECT_EQ(ok, 4);
  EXPECT_EQ(bed.module(2).messages_received(), 0u);  // not to itself
}

// --- Protection ------------------------------------------------------------------------

TEST(ClicModule, UnboundPortDropsForProtection) {
  ClicBed bed;
  bed.module(0).bind_port(5);
  send_one(bed.module(0), 5, 1, net::Buffer::zeros(100),
           clic::SendMode::kSync, nullptr);
  bed.sim.run();
  EXPECT_EQ(bed.module(1).messages_received(), 1u);  // reassembled...
  EXPECT_FALSE(bed.module(1).poll(5));  // would throw if bound check missing
}

TEST(ClicModule, RecvOnUnboundPortIsAnError) {
  ClicBed bed;
  EXPECT_THROW(
      {
        auto f = bed.module(0).recv(77);
        bed.sim.run();
        (void)f;
      },
      std::logic_error);
}

// --- Loss recovery ---------------------------------------------------------------------

TEST(ClicModule, RecoversFromFrameLoss) {
  ClicBed bed;
  bed.cluster.set_mtu_all(1500);
  auto& faults = bed.cluster.link(0).faults(0);
  faults.drop_frame_index(2);
  faults.drop_frame_index(5);

  bed.module(0).bind_port(5);
  bed.module(1).bind_port(5);
  net::Buffer payload = net::Buffer::pattern(20000, 44);
  clic::Message got;
  send_one(bed.module(0), 5, 1, payload, clic::SendMode::kConfirmed,
           nullptr);
  recv_one(bed.module(1), 5, &got);
  bed.sim.run_until(sim::seconds(1));

  EXPECT_TRUE(got.data.content_equals(payload));
  auto* ch = bed.module(0).channel_to(1);
  ASSERT_NE(ch, nullptr);
  EXPECT_GE(ch->retransmits(), 1u);
}

// --- Channel bonding ----------------------------------------------------------------------

TEST(ClicModule, BondingStripesAndResequences) {
  os::ClusterConfig cc;
  cc.nics_per_node = 2;
  clic::Config cfg;
  cfg.channel_bonding = true;
  ClicBed bed(cc, cfg);
  bed.module(0).bind_port(5);
  bed.module(1).bind_port(5);

  net::Buffer payload = net::Buffer::pattern(200000, 55);
  clic::Message got;
  send_one(bed.module(0), 5, 1, payload, clic::SendMode::kSync, nullptr);
  recv_one(bed.module(1), 5, &got);
  bed.sim.run();

  EXPECT_TRUE(got.data.content_equals(payload));
  // Both of the sender's links carried traffic.
  EXPECT_GT(bed.cluster.link(0, 0).frames_sent(0), 5u);
  EXPECT_GT(bed.cluster.link(0, 1).frames_sent(0), 5u);
}

// --- Jumbo interoperability ------------------------------------------------------------------

TEST(ClicModule, JumboSenderStandardReceiverLosesFrames) {
  // The paper's interoperability caveat: both ends must enable jumbo.
  ClicBed bed;
  bed.cluster.node(0).nic(0).set_mtu(9000);
  bed.cluster.node(1).nic(0).set_mtu(1500);
  bed.module(0).bind_port(5);
  bed.module(1).bind_port(5);
  send_one(bed.module(0), 5, 1, net::Buffer::zeros(8000),
           clic::SendMode::kSync, nullptr);
  bed.sim.run_until(sim::milliseconds(20));
  EXPECT_GT(bed.cluster.node(1).nic(0).rx_oversize_drops(), 0u);
  EXPECT_EQ(bed.module(1).messages_received(), 0u);
}

// --- Pinned message paths -------------------------------------------------------------
//
// Each path of a message (segmentation, reassembly, type dispatch, the
// per-message send state) is pinned here, including the exact finish time
// and event count of two multi-fragment runs: CLIC timing is the product
// of the module's CPU call sequence, so any reordering shows up as a
// changed figure.

TEST(ClicModule, IntraNodeRemoteWriteLandsInRegion) {
  ClicBed bed;
  bed.module(0).register_region(7, 1 << 20);
  net::Buffer data = net::Buffer::pattern(30000, 5);
  bool done = false;
  struct Run {
    static sim::Task go(clic::ClicModule& m, net::Buffer d, bool* done) {
      auto st = co_await m.remote_write(/*dst_node=*/0, 7, std::move(d));
      EXPECT_TRUE(st.ok);
      *done = true;
    }
  };
  Run::go(bed.module(0), data, &done);
  bed.sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(bed.module(0).intra_node_messages(), 1u);
  EXPECT_EQ(bed.module(0).region_bytes(7), 30000);
  EXPECT_TRUE(bed.module(0).region_contents(7).content_equals(data));
}

TEST(ClicModule, IntraNodeKernelFunctionInvokesHandler) {
  ClicBed bed;
  int invoked = 0;
  int src_node = -1;
  std::int64_t got_bytes = 0;
  bed.module(0).register_kernel_fn(12, [&](clic::Message m) {
    ++invoked;
    src_node = m.src_node;
    got_bytes = m.data.size();
  });
  struct Run {
    static sim::Task go(clic::ClicModule& m) {
      auto st = co_await m.send(0, /*dst_node=*/0, 12,
                                net::Buffer::zeros(700),
                                clic::SendMode::kSync,
                                clic::PacketType::kKernelFn);
      EXPECT_TRUE(st.ok);
    }
  };
  Run::go(bed.module(0));
  bed.sim.run();
  EXPECT_EQ(invoked, 1);
  EXPECT_EQ(src_node, 0);
  EXPECT_EQ(got_bytes, 700);
  EXPECT_EQ(bed.module(0).messages_received(), 1u);
}

struct PinnedEnvelope {
  int tag = 0;
};

TEST(ClicModule, PinnedThreeFragmentBroadcastWithUpperHeader) {
  os::ClusterConfig cc;
  cc.nodes = 4;
  ClicBed bed(cc);
  bed.cluster.set_mtu_all(1500);
  for (int i = 0; i < 4; ++i) bed.module(i).bind_port(9);
  // 1488-byte fragments, the first shrunk by the 40-byte upper header:
  // 1448 + 1488 + 1064 = 4000 bytes in three fragments.
  net::Buffer payload = net::Buffer::pattern(4000, 8);
  sim::SimTime sent_at = 0;

  struct Run {
    static sim::Task tx(ClicBed& bed, net::Buffer d, sim::SimTime* out) {
      auto st = co_await bed.module(1).broadcast(
          9, 9, std::move(d), net::HeaderBlob::of(PinnedEnvelope{77}, 40));
      EXPECT_TRUE(st.ok);
      *out = bed.sim.now();
    }
    static sim::Task rx(clic::ClicModule& m, net::Buffer expect, int* ok) {
      clic::Message got = co_await m.recv(9);
      const auto* env = got.meta.get<PinnedEnvelope>();
      if (got.data.content_equals(expect) && got.src_node == 1 &&
          env != nullptr && env->tag == 77 && got.meta.wire_bytes() == 40) {
        ++*ok;
      }
    }
  };
  int ok = 0;
  Run::tx(bed, payload, &sent_at);
  for (int i = 0; i < 4; ++i) {
    if (i != 1) Run::rx(bed.module(i), payload, &ok);
  }
  bed.sim.run();
  EXPECT_EQ(ok, 3);
  EXPECT_EQ(bed.cluster.link(1).frames_sent(0), 3u);
  EXPECT_EQ(sent_at, 70337);
  EXPECT_EQ(bed.sim.now(), 134599);
  EXPECT_EQ(bed.sim.events_executed(), 135u);
}

TEST(ClicModule, PinnedMultiFragmentSyncSend) {
  ClicBed bed;
  bed.cluster.set_mtu_all(1500);
  bed.module(0).bind_port(5);
  bed.module(1).bind_port(5);
  net::Buffer payload = net::Buffer::pattern(10240, 17);
  sim::SimTime sent_at = 0;
  clic::Message got;
  struct Run {
    static sim::Task tx(ClicBed& bed, net::Buffer d, sim::SimTime* out) {
      auto st = co_await bed.module(0).send(5, 1, 5, std::move(d),
                                            clic::SendMode::kSync);
      EXPECT_TRUE(st.ok);
      *out = bed.sim.now();
    }
  };
  // The receive is posted first, so fragments are copied to user memory
  // as they arrive.
  recv_one(bed.module(1), 5, &got);
  Run::tx(bed, payload, &sent_at);
  bed.sim.run();
  EXPECT_TRUE(got.data.content_equals(payload));
  EXPECT_EQ(bed.module(1).bytes_received(), 10240);
  EXPECT_EQ(sent_at, 166768);
  EXPECT_EQ(bed.sim.now(), 273398);
  EXPECT_EQ(bed.sim.events_executed(), 181u);
}

// A lone 100 KB send under the paper's fixed 3 ms retransmission clock:
// the sender's RTO timer is restarted on every ack advance and never
// fires, so the run must end on its last model event (the receiver's final
// delayed ack), not on the deadline of a cancelled timer.
TEST(ClicModule, CancelledTimersDoNotExtendTheRun) {
  ClicBed bed({}, apps::paper_clic_config());
  bed.module(0).bind_port(5);
  bed.module(1).bind_port(5);
  sim::SimTime received_at = -1;
  struct Run {
    static sim::Task rx(ClicBed& bed, sim::SimTime* at) {
      (void)co_await bed.module(1).recv(5);
      *at = bed.sim.now();
    }
  };
  Run::rx(bed, &received_at);
  send_one(bed.module(0), 5, 1, net::Buffer::zeros(100000),
           clic::SendMode::kAsync, nullptr);
  bed.sim.run();
  EXPECT_EQ(received_at, 1457740);
  const auto& sender_timers = bed.cluster.node(0).kernel().timer_wheel();
  EXPECT_EQ(sender_timers.fired(), 0u);
  EXPECT_EQ(sender_timers.cancelled(), 12u);
  EXPECT_EQ(bed.cluster.node(1).kernel().timer_wheel().size(), 0u);
  EXPECT_EQ(bed.sim.now(), 1534733);
  EXPECT_LT(bed.sim.now(), received_at + bed.module(1).config().ack_delay +
                               sim::microseconds(50.0));
  EXPECT_EQ(bed.sim.events_executed(), 395u);
}

TEST(ClicModule, ConfirmedSendIntoBlackHoleAbortsTheRestOfTheMessage) {
  // A tiny retry budget gives up on the first fragments while later ones
  // are still being prepared (two copies per fragment make the walk slow).
  clic::Config cfg;
  cfg.tx_path = clic::TxPath::kTwoCopy;
  cfg.rto = sim::microseconds(20.0);
  cfg.rto_backoff = 1.0;
  cfg.max_retries = 2;
  ClicBed bed({}, cfg);
  bed.cluster.set_mtu_all(1500);
  bed.module(0).bind_port(5);
  bed.module(1).bind_port(5);
  bed.cluster.link(0).faults(0).set_drop_probability(1.0);

  int resolved = 0;
  clic::SendError error = clic::SendError::kNone;
  sim::SimTime resolved_at = 0;
  struct Run {
    static sim::Task go(ClicBed& bed, int* resolved, clic::SendError* error,
                        sim::SimTime* at) {
      auto st = co_await bed.module(0).send(5, 1, 5,
                                            net::Buffer::zeros(1 << 20),
                                            clic::SendMode::kConfirmed);
      ++*resolved;
      *error = st.error;
      *at = bed.sim.now();
      // Heal the path long after the abandoned fragments gave up but well
      // before an unstopped walk would have finished: any fragment handed
      // to the channel after the abort would now reach the peer.
      co_await sim::Delay{bed.sim, sim::microseconds(500.0)};
      bed.cluster.link(0).faults(0).set_drop_probability(0.0);
    }
  };
  Run::go(bed, &resolved, &error, &resolved_at);
  bed.sim.run_until(sim::seconds(1));

  EXPECT_EQ(resolved, 1);
  EXPECT_EQ(error, clic::SendError::kTimedOut);
  EXPECT_LT(resolved_at, sim::milliseconds(1.0));
  EXPECT_EQ(bed.module(1).channel_to(0), nullptr);  // nothing ever arrived
  EXPECT_EQ(bed.module(1).messages_received(), 0u);
  auto* ch = bed.module(0).channel_to(1);
  ASSERT_NE(ch, nullptr);
  EXPECT_EQ(ch->in_flight(), 0);
  EXPECT_EQ(ch->pending(), 0u);
}

}  // namespace
}  // namespace clicsim

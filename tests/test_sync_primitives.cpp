// Port-lifecycle primitives of CLIC_MODULE: unbind and rebind.
#include <gtest/gtest.h>

#include "apps/testbed.hpp"
#include "sim/task.hpp"

namespace clicsim {
namespace {

TEST(PortLifecycle, UnbindDropsQueuedAndFutureTraffic) {
  apps::ClicBed bed;
  bed.module(0).bind_port(5);
  bed.module(1).bind_port(5);

  struct Run {
    static sim::Task tx(clic::ClicModule& m) {
      (void)co_await m.send(5, 1, 5, net::Buffer::zeros(1000));
    }
  };
  Run::tx(bed.module(0));
  bed.sim.run();
  EXPECT_TRUE(bed.module(1).poll(5));

  bed.module(1).unbind_port(5);
  EXPECT_FALSE(bed.module(1).poll(5));

  // Traffic after the unbind is protection-dropped, not queued.
  Run::tx(bed.module(0));
  bed.sim.run();
  EXPECT_FALSE(bed.module(1).poll(5));
}

TEST(PortLifecycle, UnbindWakesBlockedReceiverWithClosedMarker) {
  apps::ClicBed bed;
  bed.module(1).bind_port(5);
  int closed_src = 0;
  struct Run {
    static sim::Task rx(clic::ClicModule& m, int* src) {
      clic::Message got = co_await m.recv(5);
      *src = got.src_node;
    }
  };
  Run::rx(bed.module(1), &closed_src);
  bed.sim.after(sim::microseconds(10),
                [&] { bed.module(1).unbind_port(5); });
  bed.sim.run();
  EXPECT_EQ(closed_src, -1);
}

TEST(PortLifecycle, RebindAfterUnbindWorks) {
  apps::ClicBed bed;
  bed.module(0).bind_port(5);
  bed.module(1).bind_port(5);
  bed.module(1).unbind_port(5);
  bed.module(1).bind_port(5);
  struct Run {
    static sim::Task tx(clic::ClicModule& m) {
      (void)co_await m.send(5, 1, 5, net::Buffer::pattern(500, 1));
    }
    static sim::Task rx(clic::ClicModule& m, bool* ok) {
      clic::Message got = co_await m.recv(5);
      *ok = got.data.content_equals(net::Buffer::pattern(500, 1));
    }
  };
  bool ok = false;
  Run::tx(bed.module(0));
  Run::rx(bed.module(1), &ok);
  bed.sim.run();
  EXPECT_TRUE(ok);
}

}  // namespace
}  // namespace clicsim

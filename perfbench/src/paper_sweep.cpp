// paper-sweep: the paper's Fig. 4/5 ping-pong sweep, closed loop (one
// message outstanding), 2 nodes, one thread. Five curves -- CLIC and TCP at
// MTU 9000 and 1500 plus adaptive CLIC at MTU 9000 -- from 16 B to 8 MB, each
// point a fresh two-node bed driven through clic::Port or TCP sockets with
// the same warm-up + 3 timed round trips as apps::clic_one_way.
//
// The seed adds a second size grid below 64 KiB, shifted from fig5's by a
// fraction of a step; seed 0 runs bench/fig5_clic_vs_tcp's grid exactly.
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>

#include "bench/bench_util.hpp"
#include "clic/api.hpp"
#include "harness.hpp"
#include "sim/task.hpp"

namespace perfbench {
namespace {

namespace apps = cs::apps;
namespace sim = cs::sim;

constexpr int kReps = 3;  // timed round trips per point, as in fig5
constexpr std::int64_t kLo = 16;
constexpr std::int64_t kHi = 8 * 1024 * 1024;
constexpr int kPerDecade = 3;
constexpr std::int64_t kShiftedBelow = 64 * 1024;

// Reference values behind paper_err_pct (see README.md, "Paper
// references"). The model's constants were tuned on these same figures; no
// held-out measurements exist.
constexpr double kPaperZeroByteUs = 36.0;  // abstract and §4: 0-B one-way
constexpr double kPaperAsym9000 = 600.0;   // Fig. 5, MTU 9000 asymptote
constexpr double kPaperAsym1500 = 450.0;   // Fig. 5, MTU 1500 asymptote
constexpr double kPaperHalfClic = 4096.0;  // §4: CLIC half bandwidth, 4 KB
constexpr double kPaperHalfTcp = 16384.0;  // §4: TCP half bandwidth, 16 KB

// fig5's grid plus, below 64 KiB, a second log grid shifted from it by a
// seeded fraction of a step (seed 0 adds none). The shift moves the points
// that decide the half-bandwidth sizes; the bulk sizes, which cost nearly
// all the host time, stay on fig5's grid so the work per pass does not
// depend on the seed.
std::vector<std::int64_t> sweep_grid(std::uint64_t seed) {
  std::vector<std::int64_t> sizes = apps::sweep_sizes(kLo, kHi, kPerDecade);
  if (seed != 0) {
    const double frac =
        0.05 + 0.9 * static_cast<double>(mix(seed) >> 11) * 0x1.0p-53;
    const double step = std::pow(10.0, 1.0 / kPerDecade);
    for (double x = static_cast<double>(kLo) * std::pow(step, frac);
         x < static_cast<double>(kShiftedBelow); x *= step) {
      sizes.push_back(static_cast<std::int64_t>(std::llround(x)));
    }
  }
  std::sort(sizes.begin(), sizes.end());
  sizes.erase(std::unique(sizes.begin(), sizes.end()), sizes.end());
  return sizes;
}

struct Clock {
  SimTime t0 = -1;
  SimTime t1 = -1;
  [[nodiscard]] SimTime one_way() const { return (t1 - t0) / (2 * kReps); }
};

sim::Task clic_initiator(sim::Simulator& s, cs::clic::Port& port,
                         std::int64_t size, Clock& clock) {
  (void)co_await port.send(1, 1, cs::net::Buffer::zeros(size));
  (void)co_await port.recv();
  clock.t0 = s.now();
  for (int i = 0; i < kReps; ++i) {
    (void)co_await port.send(1, 1, cs::net::Buffer::zeros(size));
    (void)co_await port.recv();
  }
  clock.t1 = s.now();
}

sim::Task clic_responder(cs::clic::Port& port, std::int64_t size) {
  for (int i = 0; i < kReps + 1; ++i) {
    (void)co_await port.recv();
    (void)co_await port.send(0, 1, cs::net::Buffer::zeros(size));
  }
}

sim::Task tcp_initiator(sim::Simulator& s, cs::tcpip::TcpSocket& sock,
                        std::int64_t size, Clock& clock) {
  (void)co_await sock.connect(1, 5000);
  (void)co_await sock.send(cs::net::Buffer::zeros(size));
  (void)co_await sock.recv_exact(size);
  clock.t0 = s.now();
  for (int i = 0; i < kReps; ++i) {
    (void)co_await sock.send(cs::net::Buffer::zeros(size));
    (void)co_await sock.recv_exact(size);
  }
  clock.t1 = s.now();
}

sim::Task tcp_responder(cs::tcpip::TcpStack& stack, std::int64_t size,
                        cs::tcpip::TcpSocket** accepted) {
  cs::tcpip::TcpSocket* sock = co_await stack.accept(5000);
  *accepted = sock;
  for (int i = 0; i < kReps + 1; ++i) {
    (void)co_await sock->recv_exact(size);
    (void)co_await sock->send(cs::net::Buffer::zeros(size));
  }
}

enum class Stack { kClic, kTcp };

struct Curve {
  const char* name;
  const char* group;  // stack the counters are filed under
  Stack stack;
  std::int64_t mtu;
  bool adaptive;
};

constexpr Curve kCurves[] = {
    {"clic-9000", "clic", Stack::kClic, 9000, false},
    {"clic-1500", "clic", Stack::kClic, 1500, false},
    {"tcp-9000", "tcp", Stack::kTcp, 9000, false},
    {"tcp-1500", "tcp", Stack::kTcp, 1500, false},
    {"clic-a-9000", "clic-a", Stack::kClic, 9000, true},
};

// One ping-pong point on a fresh bed; returns the one-way time or -1 if the
// exchange did not complete.
SimTime run_point(const Curve& curve, std::int64_t size, PassResult& out,
                  Trace* trace) {
  apps::Scenario sc;
  sc.clic = curve.adaptive ? apps::adaptive_clic_config()
                           : apps::paper_clic_config();
  Counters& c = out.stacks[curve.group];
  const std::uint64_t mints = shared_mints_now();
  const std::uint64_t copies = unpooled_copies_now();
  Clock clock;
  const std::int64_t payload =
      curve.stack == Stack::kTcp ? std::max<std::int64_t>(size, 1) : size;

  std::unique_ptr<apps::ClicBed> clic_bed;
  std::unique_ptr<apps::TcpBed> tcp_bed;
  std::optional<cs::clic::Port> a;
  std::optional<cs::clic::Port> b;
  cs::tcpip::TcpSocket* client = nullptr;
  cs::tcpip::TcpSocket* server = nullptr;
  apps::BedCore* core = nullptr;
  {
    Phase p(out.host.build_s, trace, "build");
    if (curve.stack == Stack::kClic) {
      clic_bed = std::make_unique<apps::ClicBed>(sc.cluster, sc.clic);
      clic_bed->cluster.set_mtu_all(curve.mtu);
      a.emplace(clic_bed->module(0), 1);
      b.emplace(clic_bed->module(1), 1);
      core = clic_bed.get();
    } else {
      tcp_bed = std::make_unique<apps::TcpBed>(sc.cluster, sc.tcp);
      tcp_bed->cluster.set_mtu_all(curve.mtu);
      tcp_bed->tcp[1]->listen(5000);
      client = &tcp_bed->tcp[0]->create_socket();
      core = tcp_bed.get();
    }
  }
  {
    const double t0 = host_now_s();
    Phase p(out.host.run_s, trace, "run");
    if (curve.stack == Stack::kClic) {
      clic_initiator(core->sim_of(0), *a, size, clock);
      clic_responder(*b, size);
    } else {
      tcp_initiator(core->sim_of(0), *client, payload, clock);
      tcp_responder(*tcp_bed->tcp[1], payload, &server);
    }
    core->run();
    out.run_s_by_stack[curve.group] += host_now_s() - t0;
  }
  {
    Phase p(out.host.collect_s, trace, "collect");
    absorb_core(c, *core, mints, copies);
    if (clic_bed) {
      absorb_clic(c, *clic_bed);
    } else {
      absorb_tcp(c, *tcp_bed);
      c.tcp_retransmits += client->retransmits();
      if (server != nullptr) c.tcp_retransmits += server->retransmits();
    }
    if (clock.t1 >= 0) {
      c.payload_bytes += static_cast<std::uint64_t>(payload) * 2 * (kReps + 1);
    }
    if (trace != nullptr && clock.t1 >= 0) {
      trace->sim_span(trace->track(std::string("paper-sweep ") + curve.name),
                      0, "pingpong", clock.t0, clock.t1,
                      static_cast<std::uint64_t>(size));
    }
  }
  {
    Phase p(out.host.teardown_s, trace, "teardown");
    a.reset();
    b.reset();
    clic_bed.reset();
    tcp_bed.reset();
  }
  return clock.t1 >= 0 ? clock.one_way() : -1;
}

double rel_err(double paper, double measured) {
  return std::abs(measured - paper) / paper;
}

}  // namespace

PassResult paper_sweep(const PassOptions& opt, Trace* trace) {
  PassResult out;
  const auto sizes = sweep_grid(opt.seed);
  const auto fig5 = apps::sweep_sizes(kLo, kHi, kPerDecade);
  Digest d;
  std::vector<cs::sim::Series> series;  // every size of the pass
  std::vector<cs::sim::Series> on_fig5;  // fig5's sizes only
  for (const Curve& curve : kCurves) {
    cs::sim::Series all(curve.name);
    cs::sim::Series sub(curve.name);
    for (const std::int64_t size : sizes) {
      const SimTime one_way = run_point(curve, size, out, trace);
      ++out.attempted;
      if (one_way < 0) {
        ++out.failed;
        continue;
      }
      d.add(static_cast<std::uint64_t>(size));
      d.add_signed(one_way);
      const double mbps = apps::to_mbps(size, one_way);
      all.add(static_cast<double>(size), mbps);
      if (std::binary_search(fig5.begin(), fig5.end(), size)) {
        sub.add(static_cast<double>(size), mbps);
      }
    }
    series.push_back(std::move(all));
    on_fig5.push_back(std::move(sub));
  }
  const SimTime zero = run_point(kCurves[0], 0, out, trace);
  ++out.attempted;
  if (zero < 0) ++out.failed;
  d.add_signed(zero);

  const auto& clic9000 = series[0];
  const auto& clic1500 = series[1];
  const auto& tcp9000 = series[2];
  const auto& clic_a = series[4];
  const double zero_us = cs::sim::to_us(zero);
  const double half_clic = cs::bench::half_bandwidth_point(clic9000);
  const double half_tcp = cs::bench::half_bandwidth_point(tcp9000);
  const double err =
      (rel_err(kPaperZeroByteUs, zero_us) +
       rel_err(kPaperAsym9000, clic9000.max_y()) +
       rel_err(kPaperAsym1500, clic1500.max_y()) +
       rel_err(kPaperHalfClic, half_clic) + rel_err(kPaperHalfTcp, half_tcp)) /
      5.0;
  double bw_sum = 0;
  int bw_n = 0;
  for (const auto& pt : clic_a.points()) {
    if (pt.x >= 64 * 1024) {
      bw_sum += pt.y;
      ++bw_n;
    }
  }
  out.sim["paper_err_pct"] = {100.0 * err, "%", false};
  out.sim["bw_mbps.clic-a"] = {bw_n > 0 ? bw_sum / bw_n : 0.0, "Mb/s", false};
  // > 1: CLIC reaches half its peak at a smaller message than TCP on the
  // full (shifted) grid.
  out.sim["apps.half_bw_tcp_over_clic"] = {half_tcp / half_clic, "ratio",
                                           false};
  out.samples["bw_mbps.clic-a"] = static_cast<std::uint64_t>(bw_n);
  out.samples["paper_err_pct"] = 5;

  // fig5's qualitative claims, on fig5's grid as bench/fig5_clic_vs_tcp
  // states them. On shifted grids the "rises faster" envelope can tie
  // (CLIC dips for messages just above the 9000 B MTU); that shows in
  // apps.half_bw_tcp_over_clic rather than here.
  out.check(on_fig5[0].max_y() > 2.0 * on_fig5[2].max_y(),
            "paper-sweep: >2x TCP bandwidth at TCP's best MTU (9000)");
  out.check(cs::bench::half_bandwidth_point(on_fig5[0]) <
                cs::bench::half_bandwidth_point(on_fig5[2]),
            "paper-sweep: CLIC curve rises faster than TCP's");
  out.check(out.failed == 0, "paper-sweep: every ping-pong completed");

  for (const auto& [name, c] : out.stacks) c.digest_into(d);
  out.digest = d.h;
  return out;
}

SimTime paper_sweep_point(const std::string& curve, std::int64_t size) {
  for (const Curve& c : kCurves) {
    if (curve == c.name) {
      PassResult scratch;
      return run_point(c, size, scratch, nullptr);
    }
  }
  return -1;
}

}  // namespace perfbench

// Section 2 ablation: interrupt rates and coalescing.
//
//  * the "one interrupt every ~12 us at MTU 1500" arithmetic, versus what
//    coalescing achieves;
//  * coalescing parameter sweep: bandwidth, receiver CPU and interrupt
//    rate as the frame/usec thresholds vary;
//  * the Fast Ethernet reference point ("90% of 100 Mb/s at 15-20% CPU")
//    and its Gigabit extrapolation, using the TCP/IP stack.
#include "bench/bench_util.hpp"

using namespace clicsim;

int main(int argc, char** argv) {
  int jobs = 0;
  apps::parse_args(argc, argv, {apps::jobs_flag(jobs)});
  bench::heading("Ablation — interrupt rate and coalescing (section 2)");

  apps::Scenario s;
  s.mtu = 1500;

  struct Point {
    int frames;
    double usecs;
  };
  const Point points[] = {{1, 0},   {2, 15},  {4, 30},
                          {8, 30},  {16, 60}, {32, 120}};

  // All simulations of the ablation as one job FIFO: the coalescing sweep,
  // the idle-latency point, and the two TCP streams.
  apps::SweepRunner<apps::StreamStats> runner(jobs);
  for (const auto& p : points) {
    apps::Scenario v = s;
    v.cluster.nic.coalesce_frames = p.frames;
    v.cluster.nic.coalesce_usecs = sim::microseconds(p.usecs);
    runner.add([v] { return apps::clic_stream(v, 64 * 1024, 16 * 1024 * 1024); });
  }
  apps::Scenario idle = s;
  idle.cluster.nic.coalesce_frames = 8;
  idle.cluster.nic.coalesce_usecs = sim::microseconds(30);
  runner.add([idle] {
    apps::StreamStats st;
    st.elapsed = apps::clic_one_way(idle, 0);
    return st;
  });
  apps::Scenario fe = s;
  fe.cluster.nic = hw::NicProfile::fast_ether_100();
  fe.cluster.link.bits_per_s = 100e6;
  fe.mtu = 1500;
  runner.add([fe] { return apps::tcp_stream(fe, 8 * 1024 * 1024); });
  apps::Scenario ge = s;
  ge.mtu = 1500;
  runner.add([ge] { return apps::tcp_stream(ge, 16 * 1024 * 1024); });
  const auto rows = runner.run();

  bench::subheading("interrupt arithmetic at wire speed, MTU 1500");
  std::printf(
      "  a saturated Gigabit link delivers one 1500 B frame every ~12 us\n");

  bench::subheading(
      "coalescing sweep (CLIC stream, 16 MB of 64 KB messages, MTU 1500)");
  std::printf("  %10s %10s %10s %12s %12s %14s\n", "frames", "usecs",
              "Mb/s", "rx CPU %", "irqs", "us/interrupt");
  double bw_no_coalesce = 0;
  double cpu_no_coalesce = 0;
  double bw_best = 0;
  double cpu_best = 1.0;
  for (std::size_t i = 0; i < std::size(points); ++i) {
    const auto& p = points[i];
    const auto& st = rows[i];
    const double us_per_irq =
        st.rx_interrupts
            ? sim::to_us(st.elapsed) / static_cast<double>(st.rx_interrupts)
            : 0.0;
    std::printf("  %10d %10.0f %10.1f %12.1f %12llu %14.1f\n", p.frames,
                p.usecs, st.mbps, st.rx_cpu * 100.0,
                static_cast<unsigned long long>(st.rx_interrupts),
                us_per_irq);
    if (p.frames == 1) {
      bw_no_coalesce = st.mbps;
      cpu_no_coalesce = st.rx_cpu;
    }
    if (p.frames == 8) {
      bw_best = st.mbps;
      cpu_best = st.rx_cpu;
    }
  }

  bench::subheading("claims");
  bench::claim("coalescing reduces receiver CPU at equal-or-better bandwidth",
               cpu_best < cpu_no_coalesce && bw_best >= bw_no_coalesce * 0.95);

  // Latency cost of coalescing (the paper's caveat: it delays reception).
  bench::subheading("latency under load vs idle (coalescing delay caveat)");
  const double lat_adaptive = sim::to_us(rows[std::size(points)].elapsed);
  std::printf(
      "  idle 0-byte latency with adaptive coalescing: %.1f us "
      "(drivers fire immediately when the line was quiet)\n",
      lat_adaptive);

  // --- TCP CPU cost scaling (Fast Ethernet -> Gigabit) -----------------------------
  bench::subheading("TCP/IP CPU utilization: Fast Ethernet vs Gigabit");
  const auto& fe_st = rows[std::size(points) + 1];
  std::printf("  Fast Ethernet TCP: %.1f Mb/s at rx CPU %.0f%%\n", fe_st.mbps,
              fe_st.rx_cpu * 100.0);
  bench::compare("FE TCP goodput (90% of 100 Mb/s claim)", 90.0, fe_st.mbps,
                 "Mb/s", 0.25);
  // Expected divergence (explained below): informational, not enforced.
  bench::compare("FE TCP receiver CPU (15-20% claim)", 20.0,
                 fe_st.rx_cpu * 100.0, "%", 0.8, /*enforced=*/false);
  std::printf(
      "  (expected divergence: our TCP per-byte costs are calibrated to the\n"
      "   untuned Gigabit baseline of Figure 5; the 15-20%% figure in [11]\n"
      "   assumes a leaner tuned stack)\n");

  const auto& ge_st = rows[std::size(points) + 2];
  std::printf("  Gigabit TCP (MTU 1500): %.1f Mb/s at rx CPU %.0f%%\n",
              ge_st.mbps, ge_st.rx_cpu * 100.0);
  bench::claim(
      "at Gigabit rates TCP saturates the CPU long before the wire "
      "(the paper's 'would require almost 100% of the processor')",
      ge_st.rx_cpu > 0.85 && ge_st.mbps < 500.0);
  return bench::exit_code();
}

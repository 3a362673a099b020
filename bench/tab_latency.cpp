// Headline-number table (sections 4 and 5): 0-byte latency, asymptotic
// bandwidth and half-bandwidth message size for CLIC and TCP/IP, plus the
// conclusions' comparison against GAMMA (GA620 and GNIC-II profiles) and
// the VIA polling trade-off.
#include "bench/bench_util.hpp"

using namespace clicsim;

int main(int argc, char** argv) {
  int jobs = 0;
  apps::parse_args(argc, argv, {apps::jobs_flag(jobs)});
  bench::heading("Headline table — latency / bandwidth / comparisons");

  apps::Scenario s;
  s.pingpong_reps = 3;

  apps::Scenario s1500 = s;
  s1500.mtu = 1500;

  // GAMMA ran on its own testbed (Ciaccio's cluster: faster memory path);
  // model that host, per the substitution table in DESIGN.md.
  apps::Scenario g620 = s;
  g620.cluster.nic = hw::NicProfile::ga620();
  g620.cluster.host.mem_bus_bytes_per_s = 400e6;

  apps::Scenario gii = g620;
  gii.cluster.nic = hw::NicProfile::gnic2();
  gii.mtu = 1500;

  // Every measurement is one self-contained simulation; all of them share
  // the worker pool and come back slotted in order.
  apps::SweepRunner<double> runner(jobs);
  runner.add([s] { return sim::to_us(apps::clic_one_way(s, 0)); });
  runner.add([s] { return sim::to_us(apps::tcp_one_way(s, 1)); });
  runner.add(
      [s] { return apps::to_mbps(4 << 20, apps::clic_one_way(s, 4 << 20)); });
  runner.add([s1500] {
    return apps::to_mbps(4 << 20, apps::clic_one_way(s1500, 4 << 20));
  });
  runner.add(
      [s] { return apps::to_mbps(4 << 20, apps::tcp_one_way(s, 4 << 20)); });
  runner.add([g620] { return sim::to_us(apps::gamma_one_way(g620, 0)); });
  runner.add([g620] {
    return apps::to_mbps(4 << 20, apps::gamma_one_way(g620, 4 << 20));
  });
  runner.add([gii] { return sim::to_us(apps::gamma_one_way(gii, 0)); });
  runner.add([gii] {
    return apps::to_mbps(4 << 20, apps::gamma_one_way(gii, 4 << 20));
  });
  runner.add([s] { return sim::to_us(apps::via_one_way(s, 0)); });
  // CPU burned while waiting: time a bare 0-byte exchange and look at the
  // receiver's user-mode utilization.
  runner.add([s] {
    apps::ViaBed vb(s.cluster, s.via);
    via::Vi& a = vb.provider(0).create_vi();
    via::Vi& b = vb.provider(1).create_vi();
    a.connect(1, b.id());
    b.connect(0, a.id());
    b.post_recv(4096);
    struct Run {
      static sim::Task tx(via::Vi& vi) {
        vi.post_send(net::Buffer::zeros(64));
        (void)co_await vi.poll_wait();
      }
      static sim::Task rx(via::Vi& vi) { (void)co_await vi.poll_wait(); }
    };
    Run::tx(a);
    Run::rx(b);
    vb.run();
    return vb.cluster.node(1).cpu().utilization();
  });
  const auto rows = runner.run();
  const double clic_lat = rows[0];
  const double tcp_lat = rows[1];
  const double clic_bw9000 = rows[2];
  const double clic_bw1500 = rows[3];
  const double tcp_bw9000 = rows[4];
  const double gamma620_lat = rows[5];
  const double gamma620_bw = rows[6];
  const double gammaII_lat = rows[7];
  const double gammaII_bw = rows[8];
  const double via_lat = rows[9];
  const double poll_cpu = rows[10];

  bench::subheading("CLIC vs TCP/IP (section 4)");
  bench::compare("CLIC 0-byte one-way latency", 36.0, clic_lat, "us", 0.15);
  bench::compare("CLIC asymptotic bandwidth, MTU 9000", 600.0, clic_bw9000,
                 "Mb/s");
  bench::compare("CLIC asymptotic bandwidth, MTU 1500", 450.0, clic_bw1500,
                 "Mb/s");
  bench::claim("CLIC > 2x TCP at MTU 9000", clic_bw9000 > 2.0 * tcp_bw9000);
  std::printf("  (TCP: latency %.1f us, asymptote %.0f Mb/s)\n", tcp_lat,
              tcp_bw9000);

  bench::subheading("GAMMA comparison (section 5)");
  bench::compare("GAMMA latency, GA620", 32.0, gamma620_lat, "us", 0.6);
  bench::compare("GAMMA latency, GNIC-II", 9.5, gammaII_lat, "us", 1.2);
  bench::compare("GAMMA bandwidth, GA620", 824.0, gamma620_bw, "Mb/s");
  bench::compare("GAMMA bandwidth, GNIC-II", 768.0, gammaII_bw, "Mb/s");
  bench::claim("GAMMA latency below CLIC's (the price of CLIC's services)",
               gamma620_lat < clic_lat);
  bench::claim("GAMMA bandwidth above CLIC's", gamma620_bw > clic_bw9000);

  bench::subheading("VIA (user-level, polling) — section 3.2 trade-off");
  std::printf("  VIA 0-byte one-way latency: %.1f us (CLIC %.1f us)\n",
              via_lat, clic_lat);
  std::printf("  receiver CPU while waiting by polling: %.0f%%\n",
              poll_cpu * 100.0);
  bench::claim("polling gives VIA lower latency than interrupt-driven CLIC",
               via_lat < clic_lat);
  bench::claim("but the waiting CPU is fully consumed (>90%)",
               poll_cpu > 0.9);

  // --- OS mediation cost (section 3.1) --------------------------------------------
  bench::subheading("system-call overhead (section 3.1)");
  bench::compare("syscall enter+exit", 0.65,
                 sim::to_us(s.cluster.host.syscall_enter +
                            s.cluster.host.syscall_exit),
                 "us", 0.05);
  bench::claim("syscall cost < 2% of a message send (36 us)",
               sim::to_us(s.cluster.host.syscall_enter +
                          s.cluster.host.syscall_exit) <
                   0.02 * clic_lat);
  return bench::exit_code();
}

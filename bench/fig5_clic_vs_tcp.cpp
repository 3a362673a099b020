// Figure 5: CLIC vs TCP/IP bandwidth for MTU 9000 and 1500 (0-copy CLIC).
// Headline: CLIC gives more than twice TCP's bandwidth even at TCP's best
// MTU, and its curve rises much faster (half-bandwidth at ~4 KB vs ~16 KB).
#include "bench/bench_util.hpp"

using namespace clicsim;

int main(int argc, char** argv) {
  int jobs = 0;
  apps::parse_args(argc, argv, {apps::jobs_flag(jobs)});
  bench::heading("Figure 5 — CLIC vs TCP/IP, MTU 9000 and 1500");

  apps::Scenario s;
  s.pingpong_reps = 3;
  const auto sizes = apps::sweep_sizes(16, 8 * 1024 * 1024, 3);

  auto clic_at = [&](std::int64_t mtu) {
    apps::Scenario v = s;
    v.mtu = mtu;
    return apps::SeriesSpec{
        "clic-" + std::to_string(mtu),
        [v](std::int64_t n) { return apps::clic_one_way(v, n); }};
  };
  auto tcp_at = [&](std::int64_t mtu) {
    apps::Scenario v = s;
    v.mtu = mtu;
    return apps::SeriesSpec{
        "tcp-" + std::to_string(mtu),
        [v](std::int64_t n) { return apps::tcp_one_way(v, n); }};
  };

  const auto curves = apps::bandwidth_series_set(
      {clic_at(9000), clic_at(1500), tcp_at(9000), tcp_at(1500)}, sizes,
      jobs);
  const auto& clic9000 = curves[0];
  const auto& clic1500 = curves[1];
  const auto& tcp9000 = curves[2];
  const auto& tcp1500 = curves[3];

  apps::SweepRunner<sim::SimTime> extra(jobs);
  extra.add([&s] { return apps::clic_one_way(s, 0); });
  const double zero_byte_us = sim::to_us(extra.run()[0]);

  bench::print_table({&clic9000, &tcp9000, &clic1500, &tcp1500});

  bench::subheading("paper vs measured");
  bench::compare("CLIC asymptote, MTU 9000", 600, clic9000.max_y(), "Mb/s");
  bench::compare("CLIC asymptote, MTU 1500", 450, clic1500.max_y(), "Mb/s");
  bench::compare("CLIC 0-byte one-way latency", 36.0, zero_byte_us, "us",
                 0.15);
  bench::compare("CLIC half-bandwidth message size", 4096.0,
                 bench::half_bandwidth_point(clic9000), "B", 2.0);
  bench::compare("TCP half-bandwidth message size", 16384.0,
                 bench::half_bandwidth_point(tcp9000), "B", 3.0);

  bench::subheading("qualitative claims");
  bench::claim(">2x TCP bandwidth at TCP's best MTU (9000)",
               clic9000.max_y() > 2.0 * tcp9000.max_y());
  bench::claim("CLIC curve rises faster than TCP's",
               bench::half_bandwidth_point(clic9000) <
                   bench::half_bandwidth_point(tcp9000));
  return bench::exit_code();
}

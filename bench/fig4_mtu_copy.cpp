// Figure 4: CLIC bandwidth vs message size for MTU {9000, 1500} with the
// 0-copy (path 2) and 1-copy (path 3) transmit paths, coalesced interrupts
// on — the jumbo-frames-vs-0-copy study.
#include "bench/bench_util.hpp"

using namespace clicsim;

int main(int argc, char** argv) {
  int jobs = 0;
  apps::parse_args(argc, argv, {apps::jobs_flag(jobs)});
  bench::heading(
      "Figure 4 — CLIC bandwidth: MTU 9000/1500 x 0-copy/1-copy");

  apps::Scenario s;
  s.pingpong_reps = 3;
  const auto sizes = apps::sweep_sizes(16, 8 * 1024 * 1024, 3);

  auto spec = [&](std::int64_t mtu, clic::TxPath path) {
    apps::Scenario v = s;
    v.mtu = mtu;
    v.clic.tx_path = path;
    return apps::SeriesSpec{
        (path == clic::TxPath::kZeroCopy ? std::string("0c-mtu") : "1c-mtu") +
            std::to_string(mtu),
        [v](std::int64_t n) { return apps::clic_one_way(v, n); }};
  };

  const auto curves = apps::bandwidth_series_set(
      {spec(9000, clic::TxPath::kZeroCopy), spec(1500, clic::TxPath::kZeroCopy),
       spec(9000, clic::TxPath::kOneCopy), spec(1500, clic::TxPath::kOneCopy)},
      sizes, jobs);
  const auto& s0c9000 = curves[0];
  const auto& s0c1500 = curves[1];
  const auto& s1c9000 = curves[2];
  const auto& s1c1500 = curves[3];

  bench::print_table({&s0c9000, &s1c9000, &s0c1500, &s1c1500});

  bench::subheading("paper vs measured (asymptotic bandwidth, Mb/s)");
  bench::compare("CLIC 0-copy MTU 9000", 600, s0c9000.max_y(), "Mb/s");
  bench::compare("CLIC 0-copy MTU 1500", 450, s0c1500.max_y(), "Mb/s");

  bench::subheading("qualitative claims (section 4)");
  bench::claim("jumbo frames and 0-copy both improve bandwidth",
               s0c9000.max_y() > s1c1500.max_y());
  const double jumbo_gain = s0c9000.max_y() - s0c1500.max_y();
  const double copy_gain_1500 = s0c1500.max_y() - s1c1500.max_y();
  const double copy_gain_9000 = s0c9000.max_y() - s1c9000.max_y();
  bench::claim("jumbo improvement exceeds the 0-copy improvement at 1500",
               jumbo_gain > copy_gain_1500);
  std::printf("  (jumbo gain %.0f Mb/s; 0-copy gain %.0f @1500, %.0f @9000)\n",
              jumbo_gain, copy_gain_1500, copy_gain_9000);
  return bench::exit_code();
}

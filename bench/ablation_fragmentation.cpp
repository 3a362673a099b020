// Section 2 "future work" feature: on-NIC fragmentation (Gilfeather &
// Underwood [11]) — the host hands the card packets larger than the wire
// MTU; firmware fragments on send and reassembles on receive, cutting both
// the per-packet host costs and the interrupt count. Requires a
// programmable card (the GA620-like profile).
#include "bench/bench_util.hpp"

using namespace clicsim;

int main(int argc, char** argv) {
  int jobs = 0;
  apps::parse_args(argc, argv, {apps::jobs_flag(jobs)});
  bench::heading("Ablation — on-NIC fragmentation (paper's future work)");

  std::printf("  %-34s %10s %12s %12s %12s\n", "configuration", "Mb/s",
              "rx CPU %", "rx irqs", "host pkts");

  struct Cell {
    bool frag;
    std::int64_t mtu;
  };
  const Cell cells[] = {
      {false, 1500}, {true, 1500}, {false, 9000}, {true, 9000}};

  apps::SweepRunner<apps::StreamStats> runner(jobs);
  for (const auto& cell : cells) {
    apps::Scenario s;
    s.cluster.nic = hw::NicProfile::ga620();
    s.mtu = cell.mtu;
    s.clic.use_nic_fragmentation = cell.frag;
    runner.add(
        [s] { return apps::clic_stream(s, 256 * 1024, 32 * 1024 * 1024); });
  }
  const auto rows = runner.run();

  for (std::size_t i = 0; i < std::size(cells); ++i) {
    const auto& st = rows[i];
    std::printf(
        "  %-34s %10.1f %12.1f %12llu %12llu\n",
        (std::string(cells[i].frag ? "firmware frag" : "host segmentation") +
         ", MTU " + std::to_string(cells[i].mtu))
            .c_str(),
        st.mbps, st.rx_cpu * 100.0,
        static_cast<unsigned long long>(st.rx_interrupts),
        static_cast<unsigned long long>(st.rx_frames));
  }
  const auto& off1500 = rows[0];
  const auto& on1500 = rows[1];
  const auto& off9000 = rows[2];
  const auto& on9000 = rows[3];

  bench::subheading("claims ([11]: fragmentation helps most at small MTU)");
  bench::claim("firmware fragmentation beats host segmentation at MTU 1500",
               on1500.mbps > off1500.mbps);
  bench::claim("it slashes host-visible packets and interrupts",
               on1500.rx_frames < off1500.rx_frames / 4 &&
                   on1500.rx_interrupts < off1500.rx_interrupts);
  bench::claim("the win shrinks at MTU 9000 (jumbo already amortizes)",
               (on9000.mbps - off9000.mbps) < (on1500.mbps - off1500.mbps));
  bench::claim("receiver CPU drops with firmware fragmentation",
               on1500.rx_cpu < off1500.rx_cpu);
  return bench::exit_code();
}

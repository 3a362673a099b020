// Figure 1 ablation: the four data paths from user memory to the NIC.
//   path 1 — programmed I/O straight to the card
//   path 2 — scatter/gather DMA from user memory (0-copy; Gigabit CLIC)
//   path 3 — one copy to a kernel buffer, DMA from there
//   path 4 — kernel buffer + staging copy (Fast Ethernet CLIC heritage)
#include "bench/bench_util.hpp"

using namespace clicsim;

int main(int argc, char** argv) {
  int jobs = 0;
  apps::parse_args(argc, argv, {apps::jobs_flag(jobs)});
  bench::heading("Ablation — Figure 1 data paths");

  struct Row {
    clic::TxPath path;
    const char* name;
  };
  const Row rows[] = {
      {clic::TxPath::kDirectPio, "path 1 (PIO)"},
      {clic::TxPath::kZeroCopy, "path 2 (0-copy S/G DMA)"},
      {clic::TxPath::kOneCopy, "path 3 (1 copy + DMA)"},
      {clic::TxPath::kTwoCopy, "path 4 (2 copies)"},
  };
  const std::int64_t mtus[] = {9000, 1500};

  // 2 MTUs x 4 paths, one stream simulation per cell.
  apps::SweepRunner<apps::StreamStats> runner(jobs);
  for (const std::int64_t mtu : mtus) {
    for (const auto& row : rows) {
      apps::Scenario s;
      s.mtu = mtu;
      s.clic.tx_path = row.path;
      runner.add(
          [s] { return apps::clic_stream(s, 64 * 1024, 16 * 1024 * 1024); });
    }
  }
  const auto stats = runner.run();

  std::size_t slot = 0;
  for (const std::int64_t mtu : mtus) {
    bench::subheading("MTU " + std::to_string(mtu) +
                      " — 16 MB stream of 64 KB messages");
    std::printf("  %-28s %10s %12s %12s\n", "tx path", "Mb/s", "tx CPU %",
                "rx CPU %");
    double results[4] = {};
    int i = 0;
    for (const auto& row : rows) {
      const auto& st = stats[slot++];
      std::printf("  %-28s %10.1f %12.1f %12.1f\n", row.name, st.mbps,
                  st.tx_cpu * 100.0, st.rx_cpu * 100.0);
      results[i++] = st.mbps;
    }
    bench::claim("0-copy (path 2) is the fastest path",
                 results[1] >= results[0] && results[1] >= results[2] &&
                     results[1] >= results[3]);
    bench::claim("PIO (path 1) is the slowest DMA-era choice",
                 results[0] <= results[2] && results[0] <= results[3]);
    bench::claim("each copy costs bandwidth (path 3 >= path 4)",
                 results[2] >= results[3] * 0.98);
  }
  return bench::exit_code();
}

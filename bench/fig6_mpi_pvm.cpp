// Figure 6: bandwidth of CLIC, MPI-on-CLIC, MPI-on-TCP and PVM-on-TCP.
// Headline: CLIC and MPI-CLIC dominate; even in the worst (large-message)
// case MPI-CLIC keeps >= 1.5x MPI-TCP; PVM trails everything.
#include "bench/bench_util.hpp"

using namespace clicsim;

int main(int argc, char** argv) {
  int jobs = 0;
  apps::parse_args(argc, argv, {apps::jobs_flag(jobs)});
  bench::heading("Figure 6 — CLIC, MPI-CLIC, MPI-TCP, PVM-TCP");

  apps::Scenario s;
  s.pingpong_reps = 3;
  const auto sizes = apps::sweep_sizes(16, 8 * 1024 * 1024, 3);

  const auto curves = apps::bandwidth_series_set(
      {{"clic",
        [s](std::int64_t n) { return apps::clic_one_way(s, n); }},
       {"mpi-clic",
        [s](std::int64_t n) { return apps::mpi_clic_one_way(s, n); }},
       {"mpi-tcp",
        [s](std::int64_t n) { return apps::mpi_tcp_one_way(s, n); }},
       {"pvm-tcp",
        [s](std::int64_t n) { return apps::pvm_one_way(s, n); }}},
      sizes, jobs);
  const auto& clic = curves[0];
  const auto& mpi_clic = curves[1];
  const auto& mpi_tcp = curves[2];
  const auto& pvm = curves[3];

  bench::print_table({&clic, &mpi_clic, &mpi_tcp, &pvm});

  bench::subheading("paper vs measured");
  const double worst_ratio = [&] {
    double w = 1e9;
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      if (sizes[i] < 256 * 1024) continue;  // "for long messages"
      const double a = mpi_clic.points()[i].y;
      const double b = mpi_tcp.points()[i].y;
      if (b > 0) w = std::min(w, a / b);
    }
    return w;
  }();
  std::printf("  worst-case MPI-CLIC / MPI-TCP ratio for long messages: "
              "%.2fx (paper floor: 1.5x)\n", worst_ratio);
  bench::claim("MPI-CLIC >= 1.5x MPI-TCP even in the worst case",
               worst_ratio >= 1.5);

  bench::subheading("qualitative claims");
  bench::claim("CLIC and MPI-CLIC above MPI-TCP and PVM",
               mpi_clic.max_y() > mpi_tcp.max_y() &&
                   clic.max_y() > mpi_tcp.max_y());
  bench::claim("PVM below MPI on TCP", pvm.max_y() < mpi_tcp.max_y());
  bench::claim("curves of CLIC and MPI-CLIC rise faster",
               bench::half_bandwidth_point(mpi_clic) <
                   bench::half_bandwidth_point(mpi_tcp));
  return bench::exit_code();
}

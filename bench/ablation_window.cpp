// Protocol-design ablation: the CLIC reliable channel's window size and
// acknowledgement policy. The paper fixes these implicitly; this sweep
// shows why the chosen sizing works — small windows strangle the pipeline,
// aggressive acking wastes wire and CPU, lazy acking risks stalls.
#include "bench/bench_util.hpp"

using namespace clicsim;

namespace {

std::function<double()> run_job(int window, int ack_every,
                                double ack_delay_us) {
  apps::Scenario s;
  s.mtu = 1500;
  s.clic.window_packets = window;
  s.clic.ack_every = ack_every;
  s.clic.ack_delay = sim::microseconds(ack_delay_us);
  return [s] { return apps::clic_stream(s, 256 * 1024, 8 * 1024 * 1024).mbps; };
}

}  // namespace

int main(int argc, char** argv) {
  int jobs = 0;
  apps::parse_args(argc, argv, {apps::jobs_flag(jobs)});
  bench::heading("Ablation — CLIC channel window and ack policy (MTU 1500)");

  const int windows[] = {1, 2, 4, 8, 16, 32, 64, 128};
  const std::pair<int, double> acks[] = {{1, 0},    {2, 25},   {4, 50},
                                         {8, 100},  {16, 200}, {32, 400}};

  apps::SweepRunner<double> runner(jobs);
  for (int w : windows) runner.add(run_job(w, 4, 50));
  for (const auto& [every, delay] : acks) {
    runner.add(run_job(64, every, delay));
  }
  runner.add(run_job(128, 4, 50));  // saturation check
  const auto rows = runner.run();

  bench::subheading("window size (ack_every=4, ack_delay=50us)");
  std::printf("  %10s %10s\n", "window", "Mb/s");
  double w1 = 0;
  double w64 = 0;
  for (std::size_t i = 0; i < std::size(windows); ++i) {
    const double bw = rows[i];
    if (windows[i] == 1) w1 = bw;
    if (windows[i] == 64) w64 = bw;
    std::printf("  %10d %10.1f\n", windows[i], bw);
  }

  bench::subheading("ack frequency (window=64)");
  std::printf("  %10s %12s %10s\n", "ack_every", "ack_delay", "Mb/s");
  for (std::size_t i = 0; i < std::size(acks); ++i) {
    std::printf("  %10d %10.0fus %10.1f\n", acks[i].first, acks[i].second,
                rows[std::size(windows) + i]);
  }

  bench::subheading("claims");
  bench::claim("stop-and-wait (window=1) cripples throughput",
               w1 < 0.35 * w64);
  bench::claim("the default window (64) saturates the pipeline",
               rows[std::size(windows) + std::size(acks)] < 1.05 * w64);
  return bench::exit_code();
}

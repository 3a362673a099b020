#include "apps/sweep.hpp"

#include "apps/workloads.hpp"

namespace clicsim::apps {

std::vector<sim::Series> bandwidth_series_set(
    const std::vector<SeriesSpec>& specs,
    const std::vector<std::int64_t>& sizes, int jobs) {
  SweepRunner<sim::SimTime> runner(jobs);
  for (const auto& spec : specs) {
    for (const auto size : sizes) {
      runner.add([&spec, size] { return spec.one_way(size); });
    }
  }
  const auto times = runner.run();

  std::vector<sim::Series> curves;
  curves.reserve(specs.size());
  std::size_t slot = 0;
  for (const auto& spec : specs) {
    sim::Series series(spec.name);
    for (const auto size : sizes) {
      series.add(static_cast<double>(size), to_mbps(size, times[slot++]));
    }
    curves.push_back(std::move(series));
  }
  return curves;
}

}  // namespace clicsim::apps

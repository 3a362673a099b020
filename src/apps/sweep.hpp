// Figure-sweep harness: a figure is a vector of self-contained scenario
// jobs, each constructing its own Simulator/cluster from a plain config
// struct and returning a POD result row.
//
// Jobs execute on a sim::ParallelExecutor; result rows come back slotted in
// add() order and each job's log output is buffered in a per-simulation
// sink and flushed in the same order, so a binary's output is byte-identical
// regardless of -j. `-j1` runs the jobs inline on the calling thread —
// exactly the historical sequential behavior.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/log.hpp"
#include "sim/parallel_executor.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace clicsim::apps {

template <typename Row>
class SweepRunner {
 public:
  // `jobs` worker threads; <= 0 means every hardware core.
  explicit SweepRunner(int jobs) : threads_(jobs) {}

  // Registers one self-contained scenario job; returns its row index.
  std::size_t add(std::function<Row()> job) {
    jobs_.push_back(std::move(job));
    return jobs_.size() - 1;
  }

  [[nodiscard]] std::size_t size() const { return jobs_.size(); }

  // Runs every registered job and returns the rows in add() order.
  // Per-simulation log output is flushed to stderr in the same order; pass
  // `captured_logs` to collect it instead (index-aligned with the rows).
  std::vector<Row> run(std::vector<std::string>* captured_logs = nullptr) {
    std::vector<Row> rows(jobs_.size());
    std::vector<std::string> logs(jobs_.size());
    const sim::ParallelExecutor pool(threads_);
    pool.run_indexed(jobs_.size(), [&](std::size_t i) {
      const sim::ScopedLogSink sink(&logs[i]);
      rows[i] = jobs_[i]();
    });
    if (captured_logs != nullptr) {
      *captured_logs = std::move(logs);
    } else {
      for (const auto& l : logs) {
        if (!l.empty()) std::fputs(l.c_str(), stderr);
      }
    }
    jobs_.clear();
    return rows;
  }

 private:
  int threads_;
  std::vector<std::function<Row()>> jobs_;
};

// One bandwidth curve of a figure: a name plus the one-way-time driver the
// sweep sizes are fed through.
struct SeriesSpec {
  std::string name;
  std::function<sim::SimTime(std::int64_t)> one_way;
};

// Builds every (series, size) bandwidth point as one job in a single flat
// FIFO and reassembles the curves in spec order. This is the workhorse of
// the figure binaries: all points of all curves share one pool of `jobs`
// worker threads (<= 0: every hardware core).
[[nodiscard]] std::vector<sim::Series> bandwidth_series_set(
    const std::vector<SeriesSpec>& specs,
    const std::vector<std::int64_t>& sizes, int jobs);

}  // namespace clicsim::apps

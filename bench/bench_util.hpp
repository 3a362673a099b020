// Shared helpers for the figure/table reproduction binaries: table
// printing, PAPER vs MEASURED summaries, and the shard-engine counters the
// two scaling benches (pdes_scale, collective_scale) print.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "apps/command_line.hpp"
#include "apps/sweep.hpp"
#include "apps/workloads.hpp"
#include "net/buffer_pool.hpp"
#include "sim/shard.hpp"
#include "sim/stats.hpp"

namespace clicsim::bench {

// Accumulates ShardGroup coordination counters across beds (a bench may
// build several) plus the process-wide COW payload accounting; printed to
// stderr so stdout stays byte-identical for the determinism cmp gates.
struct ShardStats {
  std::uint64_t windows = 0;
  std::uint64_t barrier_waits = 0;
  std::uint64_t cross_shard_posts = 0;
  std::uint64_t events_drained = 0;

  void absorb(const sim::ShardGroup& g) {
    windows += g.windows_opened();
    barrier_waits += g.barrier_waits();
    cross_shard_posts += g.cross_shard_posts();
    events_drained += g.events_drained();
  }

  void print(const char* prog, int shards) const {
    std::fprintf(
        stderr,
        "%s: shard-stats shards=%d windows=%llu barrier_waits=%llu"
        " cross_shard_posts=%llu drained=%llu shared_mints=%llu"
        " unpooled_copies=%llu\n",
        prog, shards, static_cast<unsigned long long>(windows),
        static_cast<unsigned long long>(barrier_waits),
        static_cast<unsigned long long>(cross_shard_posts),
        static_cast<unsigned long long>(events_drained),
        static_cast<unsigned long long>(net::detail::shared_data_mints()),
        static_cast<unsigned long long>(net::detail::unpooled_data_copies()));
  }
};

inline void heading(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

inline void subheading(const std::string& title) {
  std::printf("\n--- %s ---\n", title.c_str());
}

// Shape regressions recorded by compare()/claim(); the binaries return
// exit_code() so scripts/reproduce.sh fails when a row goes [off] or a
// claim prints [VIOLATED].
inline int& failure_count() {
  static int failures = 0;
  return failures;
}

[[nodiscard]] inline int exit_code() { return failure_count() > 0 ? 1 : 0; }

// One PAPER vs MEASURED row with a pass/fail-ish qualitative check. Pass
// `enforced = false` for a row whose divergence is expected and explained
// in the output (it still prints [off] but does not fail the binary).
inline void compare(const std::string& what, double paper, double measured,
                    const std::string& unit, double rel_tolerance = 0.35,
                    bool enforced = true) {
  const double rel =
      paper != 0.0 ? (measured - paper) / paper : 0.0;
  const bool ok = std::abs(rel) <= rel_tolerance;
  if (!ok && enforced) ++failure_count();
  std::printf("  %-46s paper %9.1f %-6s measured %9.1f %-6s (%+5.1f%%) %s\n",
              what.c_str(), paper, unit.c_str(), measured, unit.c_str(),
              rel * 100.0, ok ? "[shape OK]" : "[off]");
}

inline void claim(const std::string& what, bool holds) {
  if (!holds) ++failure_count();
  std::printf("  %-74s %s\n", what.c_str(),
              holds ? "[holds]" : "[VIOLATED]");
}

inline void print_table(const std::vector<const sim::Series*>& series) {
  sim::print_series_table(std::cout, "size(B)", series);
}

// Smallest sweep size from which the curve stays at or above `fraction` of
// its own maximum (a monotone-envelope crossing: robust against the local
// Nagle/delayed-ack dip in the TCP curve).
inline double half_bandwidth_point(const sim::Series& s,
                                   double fraction = 0.5) {
  const double level = fraction * s.max_y();
  const auto& pts = s.points();
  std::size_t first_stable = 0;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (pts[i].y < level) first_stable = i + 1;
  }
  if (first_stable >= pts.size()) return pts.empty() ? 0.0 : pts.back().x;
  return pts[first_stable].x;
}

}  // namespace clicsim::bench

// Reporting and parallel-sweep utilities.
#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <vector>

#include "apps/report.hpp"
#include "apps/sweep.hpp"
#include "apps/testbed.hpp"
#include "apps/workloads.hpp"
#include "sim/task.hpp"

namespace clicsim {
namespace {

TEST(Report, ClusterSnapshotContainsAllNodes) {
  os::ClusterConfig cc;
  cc.nodes = 3;
  apps::ClicBed bed(cc);
  bed.module(0).bind_port(1);
  bed.module(2).bind_port(1);
  struct Run {
    static sim::Task tx(clic::ClicModule& m) {
      (void)co_await m.send(1, 2, 1, net::Buffer::zeros(50000));
    }
    static sim::Task rx(clic::ClicModule& m) { (void)co_await m.recv(1); }
  };
  Run::tx(bed.module(0));
  Run::rx(bed.module(2));
  bed.sim.run();

  std::ostringstream os;
  apps::report_cluster(os, bed.cluster);
  const std::string s = os.str();
  EXPECT_NE(s.find("cluster: 3 nodes"), std::string::npos);
  EXPECT_NE(s.find("tx-frm"), std::string::npos);
  // Three node rows.
  EXPECT_NE(s.find("\n     0"), std::string::npos);
  EXPECT_NE(s.find("\n     2"), std::string::npos);
}

TEST(Report, ClicSnapshotShowsChannels) {
  apps::ClicBed bed;
  bed.module(0).bind_port(1);
  bed.module(1).bind_port(1);
  struct Run {
    static sim::Task tx(clic::ClicModule& m) {
      (void)co_await m.send(1, 1, 1, net::Buffer::zeros(20000));
    }
    static sim::Task rx(clic::ClicModule& m) { (void)co_await m.recv(1); }
  };
  Run::tx(bed.module(0));
  Run::rx(bed.module(1));
  bed.sim.run();

  std::ostringstream os;
  apps::report_clic(os, bed.module(1));
  const std::string s = os.str();
  EXPECT_NE(s.find("clic@node1"), std::string::npos);
  EXPECT_NE(s.find("channel -> node0"), std::string::npos);
  EXPECT_NE(s.find("retransmits 0"), std::string::npos);
}

// Maps `fn` over `inputs` as one SweepRunner job per input.
std::vector<sim::SimTime> sweep_map(
    const std::vector<std::int64_t>& inputs,
    const std::function<sim::SimTime(std::int64_t)>& fn, int jobs) {
  apps::SweepRunner<sim::SimTime> runner(jobs);
  for (const auto input : inputs) {
    runner.add([&fn, input] { return fn(input); });
  }
  return runner.run();
}

TEST(Parallel, MapMatchesSequentialResults) {
  const std::vector<std::int64_t> inputs{1, 2, 3, 5, 8, 13, 21};
  auto fn = [](std::int64_t n) { return sim::SimTime{n * n}; };
  const auto seq = sweep_map(inputs, fn, 1);
  const auto par = sweep_map(inputs, fn, 4);
  EXPECT_EQ(seq, par);
  EXPECT_EQ(seq[3], 25);
}

TEST(Parallel, EmptyInputIsFine) {
  EXPECT_TRUE(
      sweep_map({}, [](std::int64_t) { return sim::SimTime{1}; }, 0)
          .empty());
}

TEST(Parallel, ConcurrentSimulationsAreIndependent) {
  // The real property: whole simulations running on several threads give
  // bit-identical results to sequential execution.
  apps::Scenario s;
  s.pingpong_reps = 2;
  const std::vector<std::int64_t> sizes{0, 1000, 30000};
  auto fn = [&](std::int64_t n) { return apps::clic_one_way(s, n); };
  const auto seq = sweep_map(sizes, fn, 1);
  const auto par = sweep_map(sizes, fn, 3);
  EXPECT_EQ(seq, par);
}

TEST(Parallel, SeriesParallelEqualsSeriesSequential) {
  apps::Scenario s;
  s.pingpong_reps = 2;
  const auto sizes = apps::sweep_sizes(64, 65536, 2);
  auto fn = [&](std::int64_t n) { return apps::clic_one_way(s, n); };
  const auto a = apps::bandwidth_series_set({{"x", fn}}, sizes, 1)[0];
  const auto b = apps::bandwidth_series_set({{"x", fn}}, sizes, 4)[0];
  ASSERT_EQ(a.points().size(), b.points().size());
  for (std::size_t i = 0; i < a.points().size(); ++i) {
    EXPECT_DOUBLE_EQ(a.points()[i].y, b.points()[i].y);
  }
}

}  // namespace
}  // namespace clicsim

// The parallel sweep harness: sim::ParallelExecutor, per-thread log sinks
// and apps::SweepRunner. The load-bearing property is cross-thread
// determinism — the same sweep at any -j yields bitwise-equal result rows
// and identical captured per-simulation trace output.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "apps/command_line.hpp"
#include "apps/sweep.hpp"
#include "apps/testbed.hpp"
#include "apps/workloads.hpp"
#include "net/buffer.hpp"
#include "net/buffer_pool.hpp"
#include "sim/log.hpp"
#include "sim/parallel_executor.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"

namespace clicsim {
namespace {

TEST(ParallelExecutor, RunsEveryIndexExactlyOnce) {
  sim::ParallelExecutor pool(4);
  constexpr std::size_t kJobs = 100;
  std::vector<std::atomic<int>> hits(kJobs);
  pool.run_indexed(kJobs, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kJobs; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelExecutor, SingleThreadRunsInlineInIndexOrder) {
  sim::ParallelExecutor pool(1);
  const auto caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  pool.run_indexed(8, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  ASSERT_EQ(order.size(), 8u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ParallelExecutor, MoreThreadsThanJobsIsFine) {
  sim::ParallelExecutor pool(16);
  std::vector<std::atomic<int>> hits(3);
  pool.run_indexed(3, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelExecutor, ZeroJobsReturnsImmediately) {
  sim::ParallelExecutor pool(4);
  pool.run_indexed(0, [](std::size_t) { FAIL() << "no job to run"; });
}

TEST(ParallelExecutor, DefaultsToHardwareConcurrency) {
  EXPECT_GE(sim::ParallelExecutor().threads(), 1);
  EXPECT_EQ(sim::ParallelExecutor(3).threads(), 3);
  EXPECT_EQ(sim::ParallelExecutor(0).threads(),
            sim::ParallelExecutor::default_threads());
}

TEST(ParallelExecutor, FirstJobExceptionPropagates) {
  sim::ParallelExecutor pool(2);
  std::atomic<int> completed{0};
  EXPECT_THROW(
      pool.run_indexed(8,
                       [&](std::size_t i) {
                         if (i == 3) throw std::runtime_error("boom");
                         completed.fetch_add(1);
                       }),
      std::runtime_error);
  EXPECT_EQ(completed.load(), 7);  // the pool drains before rethrowing
}

TEST(LogSink, ThreadSinkCapturesAndRestores) {
  sim::Simulator sim;
  const sim::LogLevel before = sim::log_level();
  sim::set_log_level(sim::LogLevel::kInfo);
  std::string captured;
  {
    const sim::ScopedLogSink sink(&captured);
    EXPECT_EQ(sim::thread_log_sink(), &captured);
    CLICSIM_LOG(sim, sim::LogLevel::kInfo, "test") << "hello " << 42;
  }
  EXPECT_EQ(sim::thread_log_sink(), nullptr);
  sim::set_log_level(before);
  EXPECT_NE(captured.find("INFO test: hello 42"), std::string::npos);
  EXPECT_NE(captured.find("ns]"), std::string::npos);
}

TEST(LogSink, SinksNest) {
  sim::Simulator sim;
  const sim::LogLevel before = sim::log_level();
  sim::set_log_level(sim::LogLevel::kInfo);
  std::string outer;
  std::string inner;
  {
    const sim::ScopedLogSink a(&outer);
    {
      const sim::ScopedLogSink b(&inner);
      CLICSIM_LOG(sim, sim::LogLevel::kInfo, "test") << "inner line";
    }
    CLICSIM_LOG(sim, sim::LogLevel::kInfo, "test") << "outer line";
  }
  sim::set_log_level(before);
  EXPECT_NE(inner.find("inner line"), std::string::npos);
  EXPECT_EQ(inner.find("outer line"), std::string::npos);
  EXPECT_NE(outer.find("outer line"), std::string::npos);
}

// One sweep job: a real simulation that both measures (one-way time) and
// traces (sim-time-stamped log lines emitted from inside event handlers).
struct TracedRow {
  sim::SimTime one_way = 0;
  std::uint64_t events = 0;

  bool operator==(const TracedRow&) const = default;
};

TracedRow traced_point(std::int64_t size) {
  apps::Scenario s;
  s.pingpong_reps = 2;
  TracedRow row;
  row.one_way = apps::clic_one_way(s, size);

  // A second small simulation whose handlers log: exercises the per-sim
  // trace path with real sim-time stamps.
  sim::Simulator sim;
  for (int i = 0; i < 3; ++i) {
    sim.after(100 * (i + 1) + size, [&sim, i, size] {
      CLICSIM_LOG(sim, sim::LogLevel::kInfo, "sweep")
          << "point size=" << size << " step=" << i;
    });
  }
  row.events = sim.run();
  return row;
}

// The acceptance-criterion test: the same 8-point sweep at -j1, -j2 and
// -j8 produces bitwise-equal rows and identical captured per-sim output.
TEST(SweepDeterminism, RowsAndTracesIdenticalAcrossJobCounts) {
  const sim::LogLevel before = sim::log_level();
  sim::set_log_level(sim::LogLevel::kInfo);
  const std::vector<std::int64_t> sizes{0,    64,    512,   4096,
                                        9000, 30000, 65536, 262144};

  auto sweep = [&](int jobs, std::vector<std::string>* logs) {
    apps::SweepRunner<TracedRow> runner(jobs);
    for (const auto size : sizes) {
      runner.add([size] { return traced_point(size); });
    }
    return runner.run(logs);
  };

  std::vector<std::string> logs1;
  std::vector<std::string> logs2;
  std::vector<std::string> logs8;
  const auto rows1 = sweep(1, &logs1);
  const auto rows2 = sweep(2, &logs2);
  const auto rows8 = sweep(8, &logs8);
  sim::set_log_level(before);

  EXPECT_EQ(rows1, rows2);
  EXPECT_EQ(rows1, rows8);
  EXPECT_EQ(logs1, logs2);
  EXPECT_EQ(logs1, logs8);

  // The traces are non-trivial and per-simulation.
  ASSERT_EQ(logs1.size(), sizes.size());
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    EXPECT_NE(logs1[i].find("size=" + std::to_string(sizes[i])),
              std::string::npos);
    EXPECT_NE(logs1[i].find("step=2"), std::string::npos);
  }
}

// One sweep job carrying real data through the pooled packet path: a
// patterned CLIC message delivered end-to-end, fingerprinted by one-way
// latency, event count and the delivered payload's checksum.
struct PooledRow {
  sim::SimTime one_way = 0;
  std::uint64_t events = 0;
  std::uint64_t payload_sum = 0;

  bool operator==(const PooledRow&) const = default;
};

PooledRow pooled_point(std::int64_t size) {
  apps::ClicBed bed;
  bed.cluster.set_mtu_all(1500);
  bed.module(0).bind_port(1);
  bed.module(1).bind_port(1);
  PooledRow row;
  struct Run {
    static sim::Task exchange(clic::ClicModule& a, clic::ClicModule& b,
                              std::int64_t size, PooledRow* row) {
      auto st = co_await a.send(1, 1, 1, net::Buffer::pattern(size, 99),
                                clic::SendMode::kConfirmed);
      if (!st.ok) co_return;
      clic::Message m = co_await b.recv(1);
      row->payload_sum = m.data.checksum();
    }
  };
  Run::exchange(bed.module(0), bed.module(1), size, &row);
  row.events = bed.sim.run();
  row.one_way = bed.sim.now();
  return row;
}

// Pooling regression across job counts: per-simulation pools are strictly
// thread-confined, so the same data-carrying sweep must be bitwise equal
// at -j1/-j2/-j8, with pooling active and with the bypass — and across
// the two (recycling is invisible to results).
TEST(SweepDeterminism, PooledRowsIdenticalAcrossJobCountsAndBypass) {
  const std::vector<std::int64_t> sizes{1,    512,   4096,
                                        9000, 30000, 120000};
  auto sweep = [&](int jobs) {
    apps::SweepRunner<PooledRow> runner(jobs);
    for (const auto size : sizes) {
      runner.add([size] { return pooled_point(size); });
    }
    return runner.run();
  };

  net::BufferPool::set_pooling_enabled(true);
  const auto pooled1 = sweep(1);
  const auto pooled2 = sweep(2);
  const auto pooled8 = sweep(8);
  net::BufferPool::set_pooling_enabled(false);
  const auto plain1 = sweep(1);
  const auto plain8 = sweep(8);
  net::BufferPool::clear_pooling_override();

  EXPECT_EQ(pooled1, pooled2);
  EXPECT_EQ(pooled1, pooled8);
  EXPECT_EQ(pooled1, plain1);
  EXPECT_EQ(plain1, plain8);
  for (const auto& row : pooled1) {
    EXPECT_GT(row.one_way, 0);
    EXPECT_NE(row.payload_sum, 0u);
  }
}

TEST(SweepRunner, RowsComeBackInAddOrder) {
  apps::SweepRunner<int> runner(4);
  for (int i = 0; i < 32; ++i) {
    runner.add([i] { return i * i; });
  }
  const auto rows = runner.run();
  ASSERT_EQ(rows.size(), 32u);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(rows[static_cast<std::size_t>(i)], i * i);
}

TEST(SweepRunner, FlushesLogsInJobOrderWhenNotCaptured) {
  // run() without capture flushes to stderr; with capture the per-job
  // buffers arrive index-aligned even though execution interleaves.
  const sim::LogLevel before = sim::log_level();
  sim::set_log_level(sim::LogLevel::kInfo);
  apps::SweepRunner<int> runner(4);
  for (int i = 0; i < 8; ++i) {
    runner.add([i] {
      sim::Simulator sim;
      sim.after(10, [&sim, i] {
        CLICSIM_LOG(sim, sim::LogLevel::kInfo, "order") << "job " << i;
      });
      sim.run();
      return i;
    });
  }
  std::vector<std::string> logs;
  (void)runner.run(&logs);
  sim::set_log_level(before);
  ASSERT_EQ(logs.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_NE(logs[static_cast<std::size_t>(i)].find(
                  "job " + std::to_string(i)),
              std::string::npos);
  }
}

// The figure binaries' command line: the -j flag family alone.
int parse_jobs(std::vector<const char*> argv) {
  int jobs = 0;
  apps::parse_args(static_cast<int>(argv.size()),
                   const_cast<char**>(argv.data()), {apps::jobs_flag(jobs)});
  return jobs;
}

TEST(SweepArgs, ParsesJobFlagForms) {
  EXPECT_EQ(parse_jobs({"bench"}), 0);
  EXPECT_EQ(parse_jobs({"bench", "-j", "4"}), 4);
  EXPECT_EQ(parse_jobs({"bench", "-j8"}), 8);
  EXPECT_EQ(parse_jobs({"bench", "--jobs", "2"}), 2);
  EXPECT_EQ(parse_jobs({"bench", "--jobs=16"}), 16);
}

TEST(SweepArgs, RejectsBadInput) {
  EXPECT_EXIT(parse_jobs({"bench", "-j", "0"}), testing::ExitedWithCode(2),
              "usage");
  EXPECT_EXIT(parse_jobs({"bench", "-j"}), testing::ExitedWithCode(2),
              "usage");
  EXPECT_EXIT(parse_jobs({"bench", "-jx"}), testing::ExitedWithCode(2),
              "usage");
  EXPECT_EXIT(parse_jobs({"bench", "--frobnicate"}),
              testing::ExitedWithCode(2), "usage");
  // --help prints usage on stdout (the death-test matcher sees stderr only).
  EXPECT_EXIT(parse_jobs({"bench", "--help"}), testing::ExitedWithCode(0),
              "");
}

// The 2-node sweep binaries do not declare --shards: it is an unknown flag
// in every spelling.
TEST(SweepArgs, RejectsUndeclaredShards) {
  EXPECT_EXIT(parse_jobs({"bench", "--shards", "2"}),
              testing::ExitedWithCode(2), "unknown argument '--shards'");
  EXPECT_EXIT(parse_jobs({"bench", "-j1", "--shards=1"}),
              testing::ExitedWithCode(2), "usage");
}

TEST(SweepArgs, EnforcesDeclaredRange) {
  auto parse = [](std::vector<const char*> argv) {
    std::int64_t bytes = 7;
    apps::parse_args(static_cast<int>(argv.size()),
                     const_cast<char**>(argv.data()),
                     {apps::int_flag("--bytes", "payload", 1, 1400, bytes)});
    return bytes;
  };
  EXPECT_EQ(parse({"bench"}), 7);
  EXPECT_EQ(parse({"bench", "--bytes", "1"}), 1);
  EXPECT_EQ(parse({"bench", "--bytes=1400"}), 1400);
  EXPECT_EXIT(parse({"bench", "--bytes", "0"}), testing::ExitedWithCode(2),
              "bad value '0' for --bytes");
  EXPECT_EXIT(parse({"bench", "--bytes=1401"}), testing::ExitedWithCode(2),
              "usage");
  EXPECT_EXIT(parse({"bench", "--bytes", "2x"}), testing::ExitedWithCode(2),
              "usage");
}

TEST(SweepArgs, ParsesSwitchesEnumsAndPositionals) {
  bool adaptive = false;
  std::string topology = "star";
  int seed = -1;
  std::vector<const char*> argv = {"bench", "12", "--topology=ring",
                                   "--adaptive"};
  const std::vector<apps::Flag> flags = {
      apps::bool_flag("--adaptive", "switch", adaptive),
      apps::int_flag("seed", "positional", 0, 99, seed),
      apps::enum_flag("--topology", {"ring", "fat-tree"}, "shape", topology)};
  apps::parse_args(static_cast<int>(argv.size()),
                   const_cast<char**>(argv.data()), flags);
  EXPECT_TRUE(adaptive);
  EXPECT_EQ(seed, 12);
  EXPECT_EQ(topology, "ring");

  auto run = [&flags](std::vector<const char*> args) {
    apps::parse_args(static_cast<int>(args.size()),
                     const_cast<char**>(args.data()), flags);
  };
  EXPECT_EXIT(run({"bench", "--topology", "torus"}),
              testing::ExitedWithCode(2), "usage");
  EXPECT_EXIT(run({"bench", "--adaptive=1"}), testing::ExitedWithCode(2),
              "usage");
  EXPECT_EXIT(run({"bench", "1", "2"}), testing::ExitedWithCode(2),
              "unexpected argument '2'");
}

// --help lists every declared flag on stdout (redirected onto stderr here
// so the death-test matcher can see it) and exits 0.
TEST(SweepArgs, HelpListsDeclaredFlagsOnStdout) {
  auto help = [] {
    dup2(STDERR_FILENO, STDOUT_FILENO);
    int nodes = 64;
    std::vector<const char*> argv = {"bench", "--help"};
    apps::parse_args(
        static_cast<int>(argv.size()), const_cast<char**>(argv.data()),
        {apps::int_flag("--nodes", "cluster size", 2, 4096, nodes)});
  };
  EXPECT_EXIT(help(), testing::ExitedWithCode(0),
              "usage: bench \\[--nodes N\\]\n  --nodes N +cluster size");
}

}  // namespace
}  // namespace clicsim

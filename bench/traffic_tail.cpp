// Open-loop tail-latency race: CLIC vs TCP under the §4j traffic
// workloads (DESIGN.md §4j, EXPERIMENTS.md "traffic_tail").
//
// Eight cells — RPC under Poisson, bursty (on/off) and incast arrivals,
// plus the fixed-cadence streaming workload, each on both stacks — run as
// one SweepRunner figure. Every cell prints one row of HDR-histogram tail
// quantiles (ns), and the per-arrival RPC cells are additionally merged
// per stack into an `rpc-all` row, exercising HdrHistogram::merge the way
// SweepRunner/ShardGroup telemetry folds do.
//
// stdout is fully deterministic: arrivals are precomputed from per-client
// seeded streams, so rows and digests are byte-identical at any `-j`.
// Wall-clock goes to stderr. Exit status is bench::exit_code(): a violated
// claim (lost requests, deadline misses on a clean link, broken quantile
// ordering, inexact merge) fails the binary, and CI compares the rows
// across -j as a regression gate.
//
// `--adaptive` appends three more RPC cells running the repaired stack
// (adaptive_clic_config, column "clic-a"; DESIGN.md §4k) and gates the
// repair: adaptive-CLIC p99 must beat fixed-CLIC by >=10x under incast and
// stay within 1.5x of fixed-CLIC on Poisson/bursty. Without the flag the
// output is byte-identical to the fixed-clock figure.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/sweep.hpp"
#include "apps/workloads.hpp"
#include "bench/bench_util.hpp"

using namespace clicsim;

namespace {

struct Row {
  std::string name;
  std::string stack;
  bool is_stream = false;
  apps::RpcResult rpc;
  apps::StreamingResult strm;
};

apps::RpcConfig rpc_config(apps::ArrivalSpec::Process process) {
  apps::RpcConfig cfg;
  cfg.client_nodes = 6;
  cfg.clients_per_node = 48;  // 288 logical clients
  cfg.requests_per_client = 6;
  cfg.request_bytes = 128;
  cfg.response_bytes = 1024;
  // ~10k req/s aggregate (288 clients x 35/s): ~80 Mb/s of responses and
  // roughly a third of the server's per-op CPU budget — real contention in
  // the tail without open-loop queue divergence. Bursty keeps the same
  // average through a 1/3 ON duty cycle; incast fires one 288-request wave
  // (288 KB of responses, ~2.3 ms of wire) every 12 ms.
  cfg.arrivals.process = process;
  cfg.arrivals.rate_per_s =
      process == apps::ArrivalSpec::Process::kBursty ? 105.0 : 35.0;
  cfg.arrivals.on_mean_s = 0.002;
  cfg.arrivals.off_mean_s = 0.004;
  cfg.arrivals.incast_period = sim::milliseconds(12.0);
  cfg.seed = 42;
  return cfg;
}

apps::StreamingConfig stream_config() {
  apps::StreamingConfig cfg;
  cfg.streams = 4;
  cfg.frames_per_stream = 32;
  cfg.frame_bytes = 24000;
  cfg.fragment_bytes = 1200;
  cfg.cadence = sim::milliseconds(5.0);
  cfg.deadline = sim::milliseconds(4.0);
  cfg.seed = 42;
  return cfg;
}

void print_rpc_row(const std::string& name, const std::string& stack,
                   const apps::RpcResult& r) {
  std::printf("  %-14s %-5s %7llu %10lld %10lld %10lld %7llu  %016" PRIx64
              "\n",
              name.c_str(), stack.c_str(),
              static_cast<unsigned long long>(r.responses),
              static_cast<long long>(r.latency.quantile(0.50)),
              static_cast<long long>(r.latency.quantile(0.99)),
              static_cast<long long>(r.latency.quantile(0.999)),
              static_cast<unsigned long long>(r.in_flight), r.digest);
}

}  // namespace

int main(int argc, char** argv) {
  int jobs = 0;
  bool adaptive = false;
  apps::parse_args(
      argc, argv,
      {apps::jobs_flag(jobs),
       apps::bool_flag("--adaptive",
                       "append the adaptive-CLIC (clic-a) cells and claims",
                       adaptive)});

  struct Cell {
    std::string name;
    std::string stack;
    apps::ArrivalSpec::Process process;
    bool adaptive = false;
  };
  const std::vector<Cell> rpc_cells = {
      {"rpc-poisson", "clic", apps::ArrivalSpec::Process::kPoisson},
      {"rpc-poisson", "tcp", apps::ArrivalSpec::Process::kPoisson},
      {"rpc-bursty", "clic", apps::ArrivalSpec::Process::kBursty},
      {"rpc-bursty", "tcp", apps::ArrivalSpec::Process::kBursty},
      {"rpc-incast", "clic", apps::ArrivalSpec::Process::kIncast},
      {"rpc-incast", "tcp", apps::ArrivalSpec::Process::kIncast},
  };
  // The repaired stack's cells ride after the fixed 8-cell figure so every
  // default row (and the clic/tcp pairing below) keeps its position.
  const std::vector<Cell> adaptive_cells = {
      {"rpc-poisson", "clic-a", apps::ArrivalSpec::Process::kPoisson, true},
      {"rpc-bursty", "clic-a", apps::ArrivalSpec::Process::kBursty, true},
      {"rpc-incast", "clic-a", apps::ArrivalSpec::Process::kIncast, true},
  };

  const auto wall_start = std::chrono::steady_clock::now();

  apps::SweepRunner<Row> runner(jobs);
  auto add_rpc_cell = [&runner](const Cell& cell) {
    runner.add([cell] {
      Row row;
      row.name = cell.name;
      row.stack = cell.stack;
      const apps::RpcConfig cfg = rpc_config(cell.process);
      apps::Scenario s;
      if (cell.adaptive) s.clic = apps::adaptive_clic_config();
      row.rpc =
          cell.stack == "tcp" ? rpc_tcp(s, cfg) : rpc_clic(s, cfg);
      return row;
    });
  };
  for (const auto& cell : rpc_cells) add_rpc_cell(cell);
  for (const std::string stack : {"clic", "tcp"}) {
    runner.add([stack] {
      Row row;
      row.name = "streaming";
      row.stack = stack;
      row.is_stream = true;
      const apps::StreamingConfig cfg = stream_config();
      row.strm = stack == "clic"
                     ? apps::streaming_clic(apps::Scenario{}, cfg)
                     : apps::streaming_tcp(apps::Scenario{}, cfg);
      return row;
    });
  }
  if (adaptive) {
    for (const auto& cell : adaptive_cells) add_rpc_cell(cell);
  }
  const std::vector<Row> rows = runner.run();

  const auto wall_end = std::chrono::steady_clock::now();
  std::fprintf(stderr, "traffic_tail: wall %lld ms (-j %d)\n",
               static_cast<long long>(
                   std::chrono::duration_cast<std::chrono::milliseconds>(
                       wall_end - wall_start)
                       .count()),
               jobs);

  bench::heading("Open-loop traffic: tail latency, CLIC vs TCP");
  std::printf("  %-14s %-5s %7s %10s %10s %10s %7s  %s\n", "workload",
              "stack", "n", "p50(ns)", "p99(ns)", "p999(ns)", "open",
              "digest");
  for (const auto& row : rows) {
    if (row.is_stream) {
      print_rpc_row(row.name, row.stack,
                    apps::RpcResult{.latency = row.strm.latency,
                                    .requests = row.strm.frames,
                                    .responses = row.strm.on_time,
                                    .in_flight = row.strm.in_flight,
                                    .digest = row.strm.digest});
    } else {
      print_rpc_row(row.name, row.stack, row.rpc);
    }
  }

  // Merged per-stack RPC telemetry: the cross-cell fold SweepRunner users
  // do, in fixed cell order.
  for (const std::string stack : {"clic", "tcp"}) {
    sim::HdrHistogram merged(3);
    sim::HdrHistogram reversed(3);
    std::uint64_t total = 0;
    for (const auto& row : rows) {
      if (row.is_stream || row.stack != stack) continue;
      merged.merge(row.rpc.latency);
      total += row.rpc.latency.count();
    }
    for (auto it = rows.rbegin(); it != rows.rend(); ++it) {
      if (it->is_stream || it->stack != stack) continue;
      reversed.merge(it->rpc.latency);
    }
    apps::RpcResult all;
    all.latency = merged;
    all.responses = merged.count();
    print_rpc_row("rpc-all", stack, all);
    bench::claim("rpc-all[" + stack + "]: merge is exact (count == sum)",
                 merged.count() == total);
    bench::claim("rpc-all[" + stack + "]: merge order invariant",
                 merged == reversed);
  }

  bench::subheading("Latency-accounting claims");
  const apps::StreamingResult* strm_by_stack[2] = {nullptr, nullptr};
  for (const auto& row : rows) {
    if (row.is_stream) {
      strm_by_stack[row.stack == "tcp" ? 1 : 0] = &row.strm;
      continue;
    }
    bench::claim(row.name + "[" + row.stack + "]: every request answered",
                 row.rpc.in_flight == 0 &&
                     row.rpc.responses == row.rpc.requests);
    const auto& h = row.rpc.latency;
    bench::claim(row.name + "[" + row.stack + "]: p50 <= p99 <= p999 <= max",
                 h.quantile(0.50) <= h.quantile(0.99) &&
                     h.quantile(0.99) <= h.quantile(0.999) &&
                     h.quantile(0.999) <= h.max());
  }
  for (int i = 0; i < 2; ++i) {
    const char* stack = i == 0 ? "clic" : "tcp";
    const apps::StreamingResult& s = *strm_by_stack[i];
    bench::claim(std::string("streaming[") + stack +
                     "]: zero deadline misses on a clean link",
                 s.deadline_misses == 0 && s.late_fragments == 0);
    bench::claim(std::string("streaming[") + stack +
                     "]: accounting identity on_time + misses + pending == "
                     "expected",
                 s.on_time + s.deadline_misses + s.in_flight == s.frames);
  }

  // The paper's thesis, restated for tails: the lightweight stack beats
  // TCP/IP at the 99th percentile under identical offered load — except
  // under incast, where the race inverts: paper CLIC retransmits on a
  // fixed clock with no backoff or congestion control, so synchronized
  // request waves drive it into a retransmission storm that TCP's adaptive
  // RTO absorbs. Both directions are regression-gated.
  // Only the fixed 8-cell figure pairs clic/tcp by adjacency; the adaptive
  // cells (appended after) are compared by name below.
  const std::size_t paired = std::min<std::size_t>(rows.size(), 8);
  for (std::size_t i = 0; i + 1 < paired; i += 2) {
    const std::int64_t clic_p99 =
        rows[i].is_stream ? rows[i].strm.latency.quantile(0.99)
                          : rows[i].rpc.latency.quantile(0.99);
    const std::int64_t tcp_p99 =
        rows[i + 1].is_stream ? rows[i + 1].strm.latency.quantile(0.99)
                              : rows[i + 1].rpc.latency.quantile(0.99);
    if (rows[i].name == "rpc-incast") {
      bench::claim("rpc-incast: fixed-RTO CLIC collapses, TCP p99 < CLIC p99",
                   tcp_p99 < clic_p99);
    } else {
      bench::claim(rows[i].name + ": CLIC p99 < TCP p99",
                   clic_p99 < tcp_p99);
    }
  }

  if (adaptive) {
    // The repair gates (ISSUE 10): adaptive CLIC must flatten the incast
    // storm by >=10x versus the fixed clock, without regressing the
    // workloads the paper stack already wins (within 1.5x on Poisson and
    // bursty arrivals).
    auto p99_of = [&rows](const std::string& name,
                          const std::string& stack) -> std::int64_t {
      for (const auto& row : rows) {
        if (!row.is_stream && row.name == name && row.stack == stack) {
          return row.rpc.latency.quantile(0.99);
        }
      }
      return -1;
    };
    const std::int64_t fixed_incast = p99_of("rpc-incast", "clic");
    const std::int64_t adapt_incast = p99_of("rpc-incast", "clic-a");
    bench::claim(
        "rpc-incast: adaptive repairs the collapse (p99 <= fixed p99 / 10)",
        adapt_incast > 0 && adapt_incast * 10 <= fixed_incast);
    for (const std::string name : {"rpc-poisson", "rpc-bursty"}) {
      const std::int64_t fixed_p99 = p99_of(name, "clic");
      const std::int64_t adapt_p99 = p99_of(name, "clic-a");
      bench::claim(name + ": adaptive within 1.5x of fixed CLIC p99",
                   adapt_p99 > 0 && 2 * adapt_p99 <= 3 * fixed_p99);
    }
  }

  return bench::exit_code();
}

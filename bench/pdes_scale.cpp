// PDES scaling benchmark: one large CLIC scenario sharded across cores.
//
// A 64-node (configurable) cluster runs a ring-neighbor storm of confirmed
// sends: node n ships `--messages` back-to-back confirmed messages to node
// (n+1) mod N while receiving the same stream from (n-1) mod N. This is
// the shape the intra-scenario shard engine is built for — many nodes,
// all active, one switch — unlike the figure sweeps whose 2-node
// scenarios parallelize across sweep points (-j) instead.
//
// stdout is a deterministic digest of the run (per-node delivery
// counters, total events, final sim clock) and MUST be byte-identical at
// any --shards value; wall-clock timing goes to stderr so the comparison
// `pdes_scale --shards 1` vs `pdes_scale --shards $(nproc)` can diff
// stdout directly while the speedup is read off stderr.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/testbed.hpp"
#include "bench/bench_util.hpp"
#include "sim/random.hpp"
#include "sim/task.hpp"

using namespace clicsim;

namespace {

struct Options {
  int shards = 1;
  bool shard_stats = false;
  int nodes = 64;
  int messages = 48;          // confirmed sends per node
  std::int64_t bytes = 4096;  // payload per message
  std::string topology = "single-star";
};

Options parse_options(int argc, char** argv) {
  Options o;
  apps::parse_args(
      argc, argv,
      {apps::int_flag("--shards",
                      "PDES shards (default 1; stdout is identical at any"
                      " count)",
                      1, 4096, o.shards),
       apps::bool_flag("--shard-stats",
                       "print engine coordination counters to stderr",
                       o.shard_stats),
       apps::int_flag("--nodes", "cluster size (default 64)", 2, 4096,
                      o.nodes),
       apps::int_flag("--messages", "confirmed sends per node (default 48)",
                      1, 1 << 20, o.messages),
       apps::int_flag("--bytes", "payload bytes per message (default 4096)",
                      1, 16 << 20, o.bytes),
       apps::enum_flag("--topology",
                       {"single-star", "leaf-spine", "ring", "fat-tree"},
                       "fabric shape (default single-star; multi-tier"
                       " ones shard by leaf)",
                       o.topology)});
  return o;
}

os::TopologySpec topology_spec(const std::string& name) {
  if (name == "leaf-spine") {
    return os::TopologySpec::leaf_spine(0);  // derived leaves, one spine
  }
  if (name == "ring") {
    return os::TopologySpec::switch_ring(0);  // derived member count
  }
  if (name == "fat-tree") return os::TopologySpec::fat_tree();
  return os::TopologySpec::single_star();
}

struct NodeCounters {
  int sent_ok = 0;
  int sent_failed = 0;
  int received = 0;
  int corrupt = 0;
};

struct Drive {
  static sim::Task tx(clic::ClicModule& mod, int dst, int port, int count,
                      std::int64_t bytes, std::uint64_t seed,
                      NodeCounters* c) {
    for (int k = 0; k < count; ++k) {
      net::Buffer data = net::Buffer::pattern(
          bytes, seed ^ (static_cast<std::uint64_t>(k) * 0x9e3779b9u));
      auto status = co_await mod.send(port, dst, port, std::move(data),
                                      clic::SendMode::kConfirmed);
      if (status.ok) {
        ++c->sent_ok;
      } else {
        ++c->sent_failed;
      }
    }
  }
  static sim::Task rx(clic::ClicModule& mod, int port, int count,
                      std::int64_t bytes, std::uint64_t seed,
                      NodeCounters* c) {
    for (int k = 0; k < count; ++k) {
      clic::Message got = co_await mod.recv(port);
      net::Buffer expect = net::Buffer::pattern(
          bytes, seed ^ (static_cast<std::uint64_t>(k) * 0x9e3779b9u));
      if (got.data.size() == expect.size() &&
          got.data.content_equals(expect)) {
        ++c->received;
      } else {
        ++c->corrupt;
      }
    }
  }
};

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse_options(argc, argv);

  os::ClusterConfig cc;
  cc.nodes = o.nodes;
  cc.shards = o.shards;
  cc.topology = topology_spec(o.topology);
  apps::ClicBed bed(cc);

  const int port = 101;  // CLIC wire ports are 8-bit
  std::vector<NodeCounters> counters(static_cast<std::size_t>(o.nodes));
  for (int n = 0; n < o.nodes; ++n) {
    bed.module(n).bind_port(port);
  }
  for (int n = 0; n < o.nodes; ++n) {
    const int dst = (n + 1) % o.nodes;
    // The stream n -> dst is seeded by the sender index so tx and rx agree
    // on the expected payloads without sharing a Buffer across shards.
    const std::uint64_t seed = 0x5eedu + static_cast<std::uint64_t>(n);
    NodeCounters* c = &counters[static_cast<std::size_t>(n)];
    NodeCounters* cd = &counters[static_cast<std::size_t>(dst)];
    bed.sim_of(n).at(0, [&bed, n, dst, c, &o, seed] {
      Drive::tx(bed.module(n), dst, port, o.messages, o.bytes, seed, c);
    });
    Drive::rx(bed.module(dst), port, o.messages, o.bytes, seed, cd);
  }

  const auto wall_start = std::chrono::steady_clock::now();
  bed.run();
  const auto wall_end = std::chrono::steady_clock::now();

  std::uint64_t digest = sim::kDigestSeed;
  int delivered = 0;
  int failures = 0;
  for (int n = 0; n < o.nodes; ++n) {
    const NodeCounters& c = counters[static_cast<std::size_t>(n)];
    sim::fnv1a(digest, static_cast<std::uint64_t>(n));
    sim::fnv1a(digest, static_cast<std::uint64_t>(c.sent_ok));
    sim::fnv1a(digest, static_cast<std::uint64_t>(c.sent_failed));
    sim::fnv1a(digest, static_cast<std::uint64_t>(c.received));
    sim::fnv1a(digest, static_cast<std::uint64_t>(c.corrupt));
    delivered += c.received;
    failures += c.sent_failed + c.corrupt;
  }
  sim::fnv1a(digest, bed.events_executed());
  sim::fnv1a(digest, static_cast<std::uint64_t>(bed.now()));

  std::printf("pdes_scale nodes=%d messages=%d bytes=%lld topology=%s\n",
              o.nodes, o.messages, static_cast<long long>(o.bytes),
              o.topology.c_str());
  std::printf("  delivered %d/%d  failures %d\n", delivered,
              o.nodes * o.messages, failures);
  std::printf("  events %llu  finished_at_us %.3f\n",
              static_cast<unsigned long long>(bed.events_executed()),
              sim::to_us(bed.now()));
  std::printf("  digest %016llx\n",
              static_cast<unsigned long long>(digest));

  const double wall_ms =
      std::chrono::duration<double, std::milli>(wall_end - wall_start)
          .count();
  std::fprintf(stderr, "pdes_scale: shards=%d wall_ms=%.1f\n",
               o.shards, wall_ms);
  if (o.shard_stats) {
    bench::ShardStats stats;
    stats.absorb(bed.shards);
    stats.print("pdes_scale", o.shards);
  }
  return delivered == o.nodes * o.messages && failures == 0 ? 0 : 1;
}

// Shared machinery of the clicsim benchmark: host phase timing, the
// in-memory span trace (exported as Chrome trace-event JSON), per-layer
// counters read from a bed's public accessors, and the metric record a
// workload pass returns.
//
// Two kinds of number flow through here and every metric is tagged with
// its kind: *host* numbers are what the simulator costs to run (steady
// clock, RSS) and are noisy; *simulated* numbers are what the modelled
// cluster does and repeat exactly for a given seed.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "apps/testbed.hpp"
#include "sim/time.hpp"

namespace perfbench {

namespace cs = clicsim;
using cs::sim::SimTime;

[[nodiscard]] inline double host_now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// FNV-1a over 64-bit words: the sim_digest of a workload pass.
struct Digest {
  std::uint64_t h = 1469598103934665603ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  void add_signed(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
};

// Spans kept in memory during a traced pass and written once at the end.
// Host spans time the benchmark's own calls into the simulator; simulated
// spans carry simulated timestamps on one Chrome "process" per track.
class Trace {
 public:
  Trace() : origin_s_(host_now_s()) {}

  void host_span(const char* name, double t0_s, double t1_s);
  // Returns the track id for `name`, creating it on first use.
  int track(const std::string& name);
  void sim_span(int track, int tid, const char* name, SimTime t0, SimTime t1,
                std::uint64_t id);

  [[nodiscard]] std::size_t size() const { return spans_.size(); }
  void clear() { spans_.clear(); }
  // Chrome trace-event JSON (chrome://tracing, Perfetto); false on I/O error.
  bool write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    int pid;  // 0 = host, 1 + track index = simulated track
    int tid;
    double ts_us;
    double dur_us;
    std::uint64_t id;
  };
  double origin_s_;
  std::vector<std::string> tracks_;
  std::vector<Span> spans_;
};

// Host seconds one workload pass spent in each phase of driving the
// simulator. set-up is everything before a bed's first event.
struct HostTimes {
  double build_s = 0;     // bed, topology and port construction
  double arrivals_s = 0;  // apps::arrival_times schedules
  double run_s = 0;       // inside run()
  double collect_s = 0;   // reading results and counters
  double teardown_s = 0;  // bed destruction
  [[nodiscard]] double setup_s() const { return build_s + arrivals_s; }
};

// Adds the host time of its lifetime to `slot` and, when tracing, records
// it as a host span named `name`.
class Phase {
 public:
  Phase(double& slot, Trace* trace, const char* name)
      : slot_(&slot), trace_(trace), name_(name), t0_(host_now_s()) {}
  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;
  ~Phase() {
    const double t1 = host_now_s();
    *slot_ += t1 - t0_;
    if (trace_ != nullptr) trace_->host_span(name_, t0_, t1);
  }

 private:
  double* slot_;
  Trace* trace_;
  const char* name_;
  double t0_;
};

// Simulated per-layer counters summed over the beds of one stack. Fields in
// kInvariant order are shard-count invariant and feed the digest; the
// engine-side fields (events, windows, pool and copy accounting) depend on
// the shard layout and are reported but not digested.
struct Counters {
  // sim
  std::uint64_t events = 0;
  std::uint64_t timers_fired = 0;
  std::uint64_t timers_cancelled = 0;
  std::uint64_t shard_windows = 0;
  std::uint64_t barrier_waits = 0;
  std::uint64_t cross_shard_posts = 0;
  std::uint64_t sim_ns = 0;  // simulated span covered, summed over beds
  // net
  std::uint64_t pool_heap_allocs = 0;
  std::uint64_t pool_reuses = 0;
  std::uint64_t pool_high_water = 0;  // max over beds and shard pools
  std::uint64_t shared_mints = 0;
  std::uint64_t unpooled_copies = 0;
  std::uint64_t switch_flooded = 0;
  std::uint64_t switch_drops = 0;
  std::uint64_t server_link_busy_ns = 0;  // node 0's busier direction
  std::uint64_t payload_bytes = 0;        // application bytes delivered
  std::uint64_t link_bytes = 0;           // bytes hosts put on their links
  // hw
  std::uint64_t nic_frames = 0;  // frames received by NICs
  std::uint64_t nic_irqs = 0;
  std::uint64_t nic_ring_drops = 0;
  std::uint64_t pci_transactions = 0;
  std::uint64_t pci_busy_ns = 0;  // busiest node of each bed
  std::uint64_t membus_busy_ns = 0;
  std::uint64_t cpu_busy_ns = 0;
  std::uint64_t niccoll_frames = 0;
  std::uint64_t niccoll_combines = 0;
  // os
  std::uint64_t syscalls = 0;
  std::uint64_t bottom_halves = 0;
  // clic
  std::uint64_t clic_messages = 0;
  std::uint64_t clic_retransmits = 0;
  std::uint64_t clic_timeouts = 0;
  std::uint64_t clic_duplicates = 0;
  std::uint64_t clic_window_collapses = 0;
  std::uint64_t clic_rtt_samples = 0;
  // tcpip
  std::uint64_t tcp_segments = 0;
  std::uint64_t tcp_retransmits = 0;
  std::uint64_t ip_datagrams = 0;
  std::uint64_t ip_fragments = 0;
  // mpi
  std::uint64_t mpi_messages = 0;
  std::uint64_t mpi_unexpected = 0;
  std::uint64_t mpi_rendezvous = 0;

  void add(const Counters& o);
  void digest_into(Digest& d) const;
};

// Reads the stack-independent layers (engine, pools, switches, links, NICs,
// buses, CPUs, kernels) of `bed` after its run. `mints_before` and
// `copies_before` are the process-wide COW counters sampled at bed
// construction, so only this bed's share is counted.
void absorb_core(Counters& c, cs::apps::BedCore& bed,
                 std::uint64_t mints_before, std::uint64_t copies_before);
void absorb_clic(Counters& c, cs::apps::ClicBed& bed);
void absorb_tcp(Counters& c, cs::apps::TcpBed& bed);

// Process-wide COW payload counters (see net/buffer_pool.hpp).
[[nodiscard]] std::uint64_t shared_mints_now();
[[nodiscard]] std::uint64_t unpooled_copies_now();

struct Metric {
  double value = 0;
  std::string unit;
  bool host = false;  // host-measured (noisy) vs simulated (exact)
};
using Metrics = std::map<std::string, Metric>;

// The simulated per-layer metrics of `c` under `suffix` ("" for the
// workload total, ".clic" etc. for one stack). A suffixed call emits the
// subset that splits meaningfully by stack.
void emit_layers(Metrics& m, const Counters& c, const std::string& suffix);

// One pass of a workload: every simulated output plus its host phases.
struct PassResult {
  HostTimes host;
  std::map<std::string, double> run_s_by_stack;  // host run() time per stack
  std::map<std::string, Counters> stacks;        // stack -> counters
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t digest = 0;
  std::vector<std::string> check_failures;
  Metrics sim;  // simulated workload-level metrics (headline, apps.*)
  std::map<std::string, std::uint64_t> samples;  // sample count per quantile

  void check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
};

struct PassOptions {
  std::uint64_t seed = 1;
  int shards = 1;  // PDES shards for workloads that shard
};

using WorkloadFn = PassResult (*)(const PassOptions&, Trace*);

PassResult paper_sweep(const PassOptions& opt, Trace* trace);
PassResult rpc_incast(const PassOptions& opt, Trace* trace);
PassResult fabric_collectives(const PassOptions& opt, Trace* trace);

// One paper-sweep point of `curve` ("clic-9000", "tcp-1500", ...): its
// one-way time, or -1 if the ping-pong did not complete.
[[nodiscard]] SimTime paper_sweep_point(const std::string& curve,
                                        std::int64_t size);

// Deterministic seed mixing (splitmix64), used to derive workload inputs.
[[nodiscard]] inline std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace perfbench

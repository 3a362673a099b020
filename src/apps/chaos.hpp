// Chaos-soak harness: randomized cluster-wide fault campaigns against a
// full protocol stack, with a machine-checkable liveness contract.
//
// A campaign wires every flappable element of a testbed cluster (link
// carriers, switch ports, NIC DMA engines) into a sim::FaultPlan, layers
// probabilistic misbehaviour (Gilbert–Elliott burst loss, duplication,
// bounded-jitter reordering) onto the links, and drives a mesh of
// confirmed sends through the storm. All faults heal by kChaosFaultWindow;
// by `deadline` the run must satisfy bounded-failure liveness:
//
//   * every confirmed send resolved — acknowledged, or failed cleanly
//     after the channel's retry budget (never hung);
//   * a send that reported ok was delivered exactly once, and one that
//     reported failure was delivered at most once (the two-generals
//     caveat: an ack can be black-holed after the data arrived);
//   * the simulator quiesced (no runaway retransmission loops);
//   * no orphan timers remain on any node's kernel wheel.
//
// One integer seed replays an entire campaign byte-identically, at any
// sweep parallelism, for both the CLIC and TCP stacks.
#pragma once

#include <cstdint>
#include <string>

#include "os/cluster.hpp"
#include "sim/fault_plan.hpp"
#include "sim/time.hpp"

namespace clicsim::apps {

enum class ChaosStack { kClic, kTcp };

// Every campaign layers Gilbert–Elliott burst loss, frame duplication and
// bounded-jitter reordering onto every link, and one seed-chosen node loses
// its carrier for longer than the CLIC retry budget: sends in flight to or
// from it must fail *cleanly* (bounded failure), and the peer must
// resynchronize when it comes back. All of it heals by this time.
inline constexpr sim::SimTime kChaosFaultWindow = sim::seconds(3.0);

struct ChaosOptions {
  ChaosStack stack = ChaosStack::kClic;
  std::uint64_t seed = 1;
  int nodes = 4;
  // Intra-scenario PDES shards (1 = single-threaded). The campaign's
  // summary() is bit-identical at any shard count.
  int shards = 1;
  // Fabric shape (default: the legacy single star). Multi-tier specs add
  // every inter-switch trunk and every switch's ports to the target set,
  // so a campaign can kill a spine uplink mid-storm.
  os::TopologySpec topology;
  int messages = 24;          // confirmed sends, round-robin over node pairs
  std::int64_t bytes = 8000;  // payload per message

  // Faults are injected in [0, kChaosFaultWindow) and all heal at its
  // close; liveness is then enforced at `deadline`.
  sim::SimTime deadline = sim::seconds(30.0);

  int outages = 6;  // random carrier/port/stall outages

  // Run the CLIC stack in adaptive reliability mode (DESIGN.md §4k):
  // measured-RTT RTO ladder + congestion window. The liveness contract is
  // unchanged — the estimator must not break bounded failure. Ignored for
  // the TCP stack.
  bool adaptive = false;
};

struct ChaosReport {
  ChaosStack stack = ChaosStack::kClic;
  std::uint64_t seed = 0;
  int messages = 0;
  int resolved = 0;   // send futures that completed either way
  int succeeded = 0;  // resolved with ok
  int failed = 0;     // resolved with a clean failure
  int delivered = 0;  // messages verified intact at a receiver
  int invariant_violations = 0;  // exactly-once / at-most-once breaches
  bool quiesced = false;         // event queue drained before the deadline
  bool timers_clean = false;     // every node's timer wheel is empty

  // Fault-side telemetry (what the campaign actually did).
  std::uint64_t outages_scheduled = 0;
  std::uint64_t fault_events = 0;
  std::uint64_t link_drops = 0;
  std::uint64_t link_burst_drops = 0;
  std::uint64_t link_duplicates = 0;
  std::uint64_t link_delayed = 0;
  std::uint64_t carrier_drops = 0;
  std::uint64_t switch_port_drops = 0;
  std::uint64_t switch_tail_drops = 0;
  std::uint64_t nic_stall_drops = 0;

  // Protocol-side degradation (CLIC channels; zero for TCP runs).
  std::uint64_t retransmits = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t gave_up = 0;
  std::uint64_t resets_accepted = 0;

  // Adaptive-mode telemetry (populated — and appended to summary() — only
  // when ChaosOptions::adaptive ran a CLIC campaign, so non-adaptive
  // summaries stay byte-identical to the fixed-clock harness).
  bool adaptive = false;
  std::uint64_t rtt_samples = 0;
  std::uint64_t window_collapses = 0;
  sim::SimTime srtt_max = 0;
  sim::SimTime rttvar_max = 0;
  int window_min = 0;
  int window_max = 0;

  sim::SimTime finished_at = 0;  // sim clock when the run went idle

  // The liveness contract above, as one predicate.
  [[nodiscard]] bool liveness_ok() const;

  // Deterministic one-line digest (identical at any -j; used by tests to
  // compare parallel and serial executions).
  [[nodiscard]] std::string summary() const;
};

// Registers every flappable element of `cluster` as a FaultPlan target:
// one per link carrier (node links and inter-switch trunks), one per port
// on every switch in the fabric, one per NIC (DMA stall). Target names and
// order depend only on the cluster's shape — never on its shard count — so
// a seeded campaign replays identically at any parallelism.
void register_cluster_targets(sim::FaultPlan& plan, os::Cluster& cluster);

// Runs one full campaign in a private simulator and returns its report.
ChaosReport run_chaos_campaign(const ChaosOptions& options);

}  // namespace clicsim::apps

#include "apps/chaos.hpp"

#include <algorithm>
#include <sstream>
#include <vector>

#include "apps/testbed.hpp"
#include "sim/task.hpp"

namespace clicsim::apps {

namespace {

// Probabilistic link misbehaviour while the fault window is open. The
// values are deliberately hostile: half the frames die inside a burst,
// and a few percent of survivors are duplicated or shoved out of order.
constexpr double kGeGoodToBad = 0.05;
constexpr double kGeBadToGood = 0.30;
constexpr double kGeLossGood = 0.001;
constexpr double kGeLossBad = 0.50;
constexpr double kDupProbability = 0.02;
constexpr double kDelayProbability = 0.05;
constexpr sim::SimTime kDelayJitter = sim::microseconds(100.0);

// Per-message bookkeeping; the vectors owning these never reallocate
// while coroutines hold pointers into them.
struct MessageState {
  bool resolved = false;
  bool ok = false;
  int delivered = 0;    // intact deliveries observed
  bool corrupt = false;  // a delivery whose payload did not match
};

void configure_link_faults(os::Cluster& cluster, const ChaosOptions& o) {
  int stream = 0;
  auto arm = [&](net::FaultInjector& f) {
    // One independent stream per link direction, all derived from the
    // campaign seed so the whole storm replays from one integer.
    f.set_seed(o.seed * 1000003u + static_cast<std::uint64_t>(stream++));
    f.set_gilbert_elliott(kGeGoodToBad, kGeBadToGood, kGeLossGood,
                          kGeLossBad);
    f.set_duplicate_probability(kDupProbability);
    f.set_delay(kDelayProbability, kDelayJitter);
  };
  for (int i = 0; i < cluster.size(); ++i) {
    for (int j = 0; j < cluster.config().nics_per_node; ++j) {
      for (int d = 0; d < 2; ++d) arm(cluster.link(i, j).faults(d));
    }
  }
  // Trunk streams draw after every node-link stream, so the star's streams
  // (which have no trunks) are untouched by this loop existing.
  for (int t = 0; t < cluster.trunk_count(); ++t) {
    for (int d = 0; d < 2; ++d) arm(cluster.trunk_link(t).faults(d));
  }
}

void clear_one_injector(net::FaultInjector& f) {
  f.clear_gilbert_elliott();
  f.set_drop_probability(0.0);
  f.set_corrupt_probability(0.0);
  f.set_duplicate_probability(0.0);
  f.set_delay(0.0, 0);
}

// Heals every link injector at `when`. A direction's injector lives on the
// sending end's shard, so the clears are split into scripted pieces per
// owning simulator: one per node-bearing switch for the switch ends of its
// own node links (switch 0 first — it carries the fired-fault count), one
// per node for the node ends, one per trunk end. In a single-shard run
// every piece lands on the same simulator and the effect (and the plan's
// telemetry) is exactly the historical single clear-all event.
void schedule_clear_link_faults(sim::FaultPlan& plan, os::Cluster& cluster,
                                sim::SimTime when) {
  std::vector<std::pair<sim::Simulator*, sim::FaultPlan::Hook>> parts;
  for (int s = 0; s < cluster.topology().leaves(); ++s) {
    parts.emplace_back(&cluster.sim_of_switch(s), [&cluster, s] {
      for (int i = 0; i < cluster.size(); ++i) {
        if (cluster.topology().leaf_of_node(i) != s) continue;
        for (int j = 0; j < cluster.config().nics_per_node; ++j) {
          clear_one_injector(cluster.link(i, j).faults(1));
        }
      }
    });
  }
  for (int i = 0; i < cluster.size(); ++i) {
    parts.emplace_back(&cluster.sim_of_node(i), [&cluster, i] {
      for (int j = 0; j < cluster.config().nics_per_node; ++j) {
        clear_one_injector(cluster.link(i, j).faults(0));
      }
    });
  }
  for (int t = 0; t < cluster.trunk_count(); ++t) {
    net::Link* link = &cluster.trunk_link(t);
    for (int d = 0; d < 2; ++d) {
      parts.emplace_back(&link->end_sim(d),
                         [link, d] { clear_one_injector(link->faults(d)); });
    }
  }
  plan.script_parts(when, std::move(parts));
}

// The hard partition: longer than the CLIC channel's full retry budget
// (~1.4 s at the default rto/backoff/cap/max_retries), still healing well
// inside the fault window.
constexpr sim::SimTime kPartitionStart = sim::milliseconds(200.0);
constexpr sim::SimTime kPartitionEnd = sim::milliseconds(2400.0);

void schedule_hard_partition(sim::FaultPlan& plan, os::Cluster& cluster,
                             std::uint64_t seed) {
  const int victim = static_cast<int>(seed % static_cast<std::uint64_t>(
                                                 cluster.size()));
  const std::string name = "carrier " + cluster.link(victim, 0).name();
  for (int t = 0; t < plan.target_count(); ++t) {
    if (plan.target_name(t) == name) {
      plan.fail_between(t, kPartitionStart, kPartitionEnd);
      return;
    }
  }
}

// Destination for message m: round-robin source, hopping offset so every
// ordered pair eventually appears.
int chaos_src(int m, int nodes) { return m % nodes; }
int chaos_dst(int m, int nodes) {
  const int offset = 1 + (m / nodes) % (std::max(nodes - 1, 1));
  return (chaos_src(m, nodes) + offset) % nodes;
}

void collect_fault_telemetry(ChaosReport& r, os::Cluster& cluster) {
  auto tally = [&r](net::Link& link) {
    for (int d = 0; d < 2; ++d) {
      r.link_drops += link.faults(d).dropped();
      r.link_burst_drops += link.faults(d).burst_drops();
      r.link_duplicates += link.faults(d).duplicated();
      r.link_delayed += link.faults(d).delayed();
    }
    r.carrier_drops += link.carrier_drops();
  };
  for (int i = 0; i < cluster.size(); ++i) {
    for (int j = 0; j < cluster.config().nics_per_node; ++j) {
      tally(cluster.link(i, j));
      r.nic_stall_drops += cluster.node(i).nic(j).stall_drops();
    }
  }
  for (int t = 0; t < cluster.trunk_count(); ++t) {
    tally(cluster.trunk_link(t));
  }
  for (int s = 0; s < cluster.switch_count(); ++s) {
    r.switch_port_drops += cluster.switch_at(s).port_down_drops();
    r.switch_tail_drops += cluster.switch_at(s).dropped();
  }
}

bool timers_clean(os::Cluster& cluster) {
  for (int i = 0; i < cluster.size(); ++i) {
    if (cluster.node(i).kernel().timer_wheel().size() != 0) return false;
  }
  return true;
}

void finalize_invariants(ChaosReport& r,
                         const std::vector<MessageState>& states) {
  for (const MessageState& st : states) {
    if (st.resolved) ++r.resolved;
    if (st.resolved && st.ok) ++r.succeeded;
    if (st.resolved && !st.ok) ++r.failed;
    r.delivered += st.delivered;
    // ok ⇒ delivered exactly once. failed ⇒ at most once (the data may
    // have landed with only the acks black-holed). Corrupt or duplicate
    // deliveries are violations outright.
    if (st.corrupt) ++r.invariant_violations;
    if (st.resolved && st.ok && st.delivered != 1) ++r.invariant_violations;
    if (st.resolved && !st.ok && st.delivered > 1) ++r.invariant_violations;
    if (!st.resolved) ++r.invariant_violations;  // hung send
  }
}

ChaosReport run_clic(const ChaosOptions& o) {
  ChaosReport r;
  r.stack = ChaosStack::kClic;
  r.seed = o.seed;
  r.messages = o.messages;

  os::ClusterConfig cc;
  cc.nodes = o.nodes;
  cc.shards = o.shards;
  cc.topology = o.topology;
  clic::Config clc;
  clc.seed = o.seed;
  // Desynchronize retransmission across channels that black-hole together;
  // jitter is off by default to keep the figure baselines bit-identical.
  clc.rto_jitter = 0.25;
  clc.adaptive = o.adaptive;
  ClicBed bed(cc, clc);

  sim::FaultPlan plan(bed.sim, o.seed);
  register_cluster_targets(plan, bed.cluster);
  configure_link_faults(bed.cluster, o);
  schedule_clear_link_faults(plan, bed.cluster, kChaosFaultWindow);
  schedule_hard_partition(plan, bed.cluster, o.seed);

  sim::FaultPlan::Campaign campaign;
  campaign.start = sim::milliseconds(1.0);
  campaign.end = kChaosFaultWindow;
  campaign.outages = o.outages;
  plan.randomize(campaign);

  // One CLIC port per message keeps delivery accounting per-message: a
  // second arrival on a port whose receiver already completed is a
  // duplicate and shows up through poll().
  std::vector<MessageState> states(static_cast<std::size_t>(o.messages));
  std::vector<net::Buffer> payloads;
  payloads.reserve(states.size());
  for (int m = 0; m < o.messages; ++m) {
    payloads.push_back(net::Buffer::pattern(
        o.bytes, o.seed ^ (static_cast<std::uint64_t>(m) * 0x9e3779b9u)));
    bed.module(chaos_dst(m, o.nodes)).bind_port(10 + m);
    bed.module(chaos_src(m, o.nodes)).bind_port(10 + m);
  }

  struct Run {
    static sim::Task tx(clic::ClicModule& mod, int dst, int port,
                        net::Buffer data, MessageState* st) {
      auto status = co_await mod.send(port, dst, port, std::move(data),
                                      clic::SendMode::kConfirmed);
      st->resolved = true;
      st->ok = status.ok;
    }
    static sim::Task rx(clic::ClicModule& mod, int port, net::Buffer expect,
                        MessageState* st) {
      clic::Message got = co_await mod.recv(port);
      if (got.data.size() == expect.size() &&
          got.data.content_equals(expect)) {
        ++st->delivered;
      } else {
        st->corrupt = true;
      }
    }
  };

  for (int m = 0; m < o.messages; ++m) {
    // Three of four messages stagger across the fault window — some hit a
    // healthy cluster, some start mid-outage, some straddle a heal. Every
    // fourth goes out after the window closes, revisiting channels that
    // gave up during the storm: those must resynchronize (kReset) and
    // deliver.
    const bool late = m >= (3 * o.messages) / 4;
    const sim::SimTime start =
        late ? kChaosFaultWindow + sim::milliseconds(10.0) *
                                       static_cast<sim::SimTime>(1 + m)
             : (kChaosFaultWindow * static_cast<sim::SimTime>(m)) /
                   static_cast<sim::SimTime>(std::max(2 * o.messages, 1));
    MessageState* st = &states[static_cast<std::size_t>(m)];
    // Each capture gets its own detached payload copy (made here, on the
    // controlling thread): the tx copy travels to the source shard, the rx
    // copy to the destination shard, and the shared pattern block in
    // `payloads` is never touched off-thread.
    bed.sim_of(chaos_src(m, o.nodes))
        .at(start, [&bed, m, st, nodes = o.nodes,
                    data = payloads[static_cast<std::size_t>(m)]
                               .detached()]() mutable {
          Run::tx(bed.module(chaos_src(m, nodes)), chaos_dst(m, nodes),
                  10 + m, std::move(data), st);
        });
    Run::rx(bed.module(chaos_dst(m, o.nodes)), 10 + m,
            payloads[static_cast<std::size_t>(m)].detached(), st);
  }

  bed.run_until(o.deadline);

  // A duplicate that arrived after the receiver completed is still queued
  // on the port.
  for (int m = 0; m < o.messages; ++m) {
    if (bed.module(chaos_dst(m, o.nodes)).poll(10 + m)) {
      ++states[static_cast<std::size_t>(m)].delivered;
    }
  }

  finalize_invariants(r, states);
  r.quiesced = !bed.pending();
  r.timers_clean = timers_clean(bed.cluster);
  r.outages_scheduled = plan.outages_scheduled();
  r.fault_events = plan.faults_fired();
  r.finished_at = bed.now();
  collect_fault_telemetry(r, bed.cluster);
  for (int i = 0; i < bed.cluster.size(); ++i) {
    for (int peer = 0; peer < bed.cluster.size(); ++peer) {
      const clic::Channel* ch = bed.module(i).channel_to(peer);
      if (ch == nullptr) continue;
      r.retransmits += ch->retransmits();
      r.timeouts += ch->timeouts();
      r.gave_up += ch->gave_up();
      r.resets_accepted += ch->resets_accepted();
    }
  }
  if (o.adaptive) {
    r.adaptive = true;
    bool first = true;
    for (int i = 0; i < bed.cluster.size(); ++i) {
      const clic::ClicModule::AdaptiveStats s =
          bed.module(i).adaptive_stats();
      r.rtt_samples += s.rtt_samples;
      r.window_collapses += s.window_collapses;
      r.srtt_max = std::max(r.srtt_max, s.srtt_max);
      r.rttvar_max = std::max(r.rttvar_max, s.rttvar_max);
      if (s.window_max == 0) continue;  // node instantiated no channels
      if (first) {
        r.window_min = s.window_min;
        r.window_max = s.window_max;
        first = false;
      } else {
        r.window_min = std::min(r.window_min, s.window_min);
        r.window_max = std::max(r.window_max, s.window_max);
      }
    }
  }
  return r;
}

ChaosReport run_tcp(const ChaosOptions& o) {
  ChaosReport r;
  r.stack = ChaosStack::kTcp;
  r.seed = o.seed;
  r.messages = o.messages;

  os::ClusterConfig cc;
  cc.nodes = o.nodes;
  cc.shards = o.shards;
  cc.topology = o.topology;
  TcpBed bed(cc);

  sim::FaultPlan plan(bed.sim, o.seed);
  register_cluster_targets(plan, bed.cluster);
  configure_link_faults(bed.cluster, o);
  schedule_clear_link_faults(plan, bed.cluster, kChaosFaultWindow);
  schedule_hard_partition(plan, bed.cluster, o.seed);

  sim::FaultPlan::Campaign campaign;
  campaign.start = sim::milliseconds(1.0);
  campaign.end = kChaosFaultWindow;
  campaign.outages = o.outages;
  plan.randomize(campaign);

  std::vector<MessageState> states(static_cast<std::size_t>(o.messages));
  std::vector<net::Buffer> payloads;
  payloads.reserve(states.size());
  for (int m = 0; m < o.messages; ++m) {
    payloads.push_back(net::Buffer::pattern(
        o.bytes, o.seed ^ (static_cast<std::uint64_t>(m) * 0x9e3779b9u)));
    bed.tcp[static_cast<std::size_t>(chaos_dst(m, o.nodes))]->listen(5000 +
                                                                     m);
  }

  struct Run {
    static sim::Task tx(tcpip::TcpStack& stack, int dst, int port,
                        net::Buffer data, MessageState* st) {
      tcpip::TcpSocket& s = stack.create_socket();
      const bool up = co_await s.connect(dst, port);
      if (up) {
        (void)co_await s.send(std::move(data));
      }
      s.close();
      st->resolved = true;
      st->ok = up;
    }
    static sim::Task rx(tcpip::TcpStack& stack, int port, net::Buffer expect,
                        MessageState* st) {
      tcpip::TcpSocket* s = co_await stack.accept(port);
      net::Buffer got = co_await s->recv_exact(expect.size());
      if (got.size() == expect.size() && got.content_equals(expect)) {
        ++st->delivered;
      } else {
        st->corrupt = true;
      }
      s->close();
    }
  };

  for (int m = 0; m < o.messages; ++m) {
    // Same wave shape as the CLIC run: a quarter of the streams open
    // against the freshly healed cluster.
    const bool late = m >= (3 * o.messages) / 4;
    const sim::SimTime start =
        late ? kChaosFaultWindow + sim::milliseconds(10.0) *
                                       static_cast<sim::SimTime>(1 + m)
             : (kChaosFaultWindow * static_cast<sim::SimTime>(m)) /
                   static_cast<sim::SimTime>(std::max(2 * o.messages, 1));
    MessageState* st = &states[static_cast<std::size_t>(m)];
    // Detached copies per capture, as in the CLIC run.
    bed.sim_of(chaos_src(m, o.nodes))
        .at(start, [&bed, m, st, nodes = o.nodes,
                    data = payloads[static_cast<std::size_t>(m)]
                               .detached()]() mutable {
          Run::tx(*bed.tcp[static_cast<std::size_t>(chaos_src(m, nodes))],
                  chaos_dst(m, nodes), 5000 + m, std::move(data), st);
        });
    Run::rx(*bed.tcp[static_cast<std::size_t>(chaos_dst(m, o.nodes))],
            5000 + m, payloads[static_cast<std::size_t>(m)].detached(), st);
  }

  bed.run_until(o.deadline);

  finalize_invariants(r, states);
  r.quiesced = !bed.pending();
  r.timers_clean = timers_clean(bed.cluster);
  r.outages_scheduled = plan.outages_scheduled();
  r.fault_events = plan.faults_fired();
  r.finished_at = bed.now();
  collect_fault_telemetry(r, bed.cluster);
  return r;
}

}  // namespace

void register_cluster_targets(sim::FaultPlan& plan, os::Cluster& cluster) {
  // Whether a carrier needs one part or two depends only on whether the
  // cable crosses shards — a leaf-local link whose two ends share a worker
  // shard flips entirely on that shard's simulator.
  auto add_carrier = [&plan](net::Link* link) {
    if (!link->crosses_shards()) {
      std::vector<sim::FaultPlan::Part> part(1);
      part[0].sim = &link->end_sim(0);
      part[0].fail = [link] { link->set_carrier_up(false); };
      part[0].restore = [link] { link->set_carrier_up(true); };
      plan.add_target("carrier " + link->name(), std::move(part));
    } else {
      // Cross-shard link: each carrier half flips on the shard that owns
      // that sending end (switch side is the primary part, so telemetry
      // and logging match the single-shard target exactly).
      std::vector<sim::FaultPlan::Part> parts(2);
      parts[0].sim = &link->end_sim(1);
      parts[0].fail = [link] { link->set_carrier_up_from(1, false); };
      parts[0].restore = [link] { link->set_carrier_up_from(1, true); };
      parts[1].sim = &link->end_sim(0);
      parts[1].fail = [link] { link->set_carrier_up_from(0, false); };
      parts[1].restore = [link] { link->set_carrier_up_from(0, true); };
      plan.add_target("carrier " + link->name(), std::move(parts));
    }
  };
  for (int i = 0; i < cluster.size(); ++i) {
    for (int j = 0; j < cluster.config().nics_per_node; ++j) {
      add_carrier(&cluster.link(i, j));
      hw::Nic* nic = &cluster.node(i).nic(j);
      std::vector<sim::FaultPlan::Part> stall(1);
      stall[0].sim = &cluster.sim_of_node(i);
      stall[0].fail = [nic] { nic->set_stalled(true); };
      stall[0].restore = [nic] { nic->set_stalled(false); };
      plan.add_target(
          "nic-stall n" + std::to_string(i) + "." + std::to_string(j),
          std::move(stall));
    }
  }
  // Inter-switch trunks: a spine uplink dying mid-collective is the
  // cross-tier outage the fabric chaos rows exercise.
  for (int t = 0; t < cluster.trunk_count(); ++t) {
    add_carrier(&cluster.trunk_link(t));
  }
  for (int s = 0; s < cluster.switch_count(); ++s) {
    net::Switch* sw = &cluster.switch_at(s);
    sim::Simulator* owner = &cluster.sim_of_switch(s);
    // The star keeps its historical bare "swport <p>" names; multi-switch
    // fabrics qualify them with the stable plan name.
    const std::string prefix =
        cluster.switch_count() == 1
            ? std::string("swport ")
            : "swport " + cluster.topology().switch_name(s) + ".";
    for (int p = 0; p < sw->ports(); ++p) {
      std::vector<sim::FaultPlan::Part> part(1);
      part[0].sim = owner;
      part[0].fail = [sw, p] { sw->set_port_up(p, false); };
      part[0].restore = [sw, p] { sw->set_port_up(p, true); };
      plan.add_target(prefix + std::to_string(p), std::move(part));
    }
  }
}

bool ChaosReport::liveness_ok() const {
  return resolved == messages && invariant_violations == 0 && quiesced &&
         timers_clean;
}

std::string ChaosReport::summary() const {
  std::ostringstream os;
  os << "chaos stack=" << (stack == ChaosStack::kClic ? "clic" : "tcp")
     << " seed=" << seed << " msgs=" << messages << " resolved=" << resolved
     << " ok=" << succeeded << " failed=" << failed
     << " delivered=" << delivered << " violations=" << invariant_violations
     << " quiesced=" << (quiesced ? 1 : 0)
     << " timers_clean=" << (timers_clean ? 1 : 0)
     << " outages=" << outages_scheduled << " fault_events=" << fault_events
     << " drops=" << link_drops << " bursts=" << link_burst_drops
     << " dups=" << link_duplicates << " delayed=" << link_delayed
     << " carrier=" << carrier_drops << " port_down=" << switch_port_drops
     << " tail=" << switch_tail_drops << " stall=" << nic_stall_drops
     << " retx=" << retransmits << " timeouts=" << timeouts
     << " gave_up=" << gave_up << " resets=" << resets_accepted;
  if (adaptive) {
    // Appended only for adaptive campaigns: the non-adaptive digest stays
    // byte-identical to the fixed-clock harness.
    os << " adaptive=1 rtt_samples=" << rtt_samples
       << " collapses=" << window_collapses << " srtt_ns=" << srtt_max
       << " rttvar_ns=" << rttvar_max << " win=" << window_min << ".."
       << window_max;
  }
  return os.str();
}

ChaosReport run_chaos_campaign(const ChaosOptions& options) {
  ChaosOptions o = options;
  o.nodes = std::max(o.nodes, 2);
  o.messages = std::clamp(o.messages, 1, 200);
  return o.stack == ChaosStack::kClic ? run_clic(o) : run_tcp(o);
}

}  // namespace clicsim::apps

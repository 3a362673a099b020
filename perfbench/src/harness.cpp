#include "harness.hpp"

#include <algorithm>
#include <cstdio>

#include "net/buffer_pool.hpp"

namespace perfbench {

// ---- Trace ------------------------------------------------------------------

void Trace::host_span(const char* name, double t0_s, double t1_s) {
  spans_.push_back({name, 0, 0, (t0_s - origin_s_) * 1e6,
                    (t1_s - t0_s) * 1e6, 0});
}

int Trace::track(const std::string& name) {
  for (std::size_t i = 0; i < tracks_.size(); ++i) {
    if (tracks_[i] == name) return static_cast<int>(i);
  }
  tracks_.push_back(name);
  return static_cast<int>(tracks_.size()) - 1;
}

void Trace::sim_span(int track, int tid, const char* name, SimTime t0,
                     SimTime t1, std::uint64_t id) {
  spans_.push_back({name, 1 + track, tid, cs::sim::to_us(t0),
                    cs::sim::to_us(t1 - t0), id});
}

bool Trace::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  std::fprintf(f,
               "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":0,"
               "\"args\":{\"name\":\"host (wall-clock us)\"}}");
  for (std::size_t i = 0; i < tracks_.size(); ++i) {
    std::fprintf(f,
                 ",\n{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":%zu,"
                 "\"args\":{\"name\":\"sim %s (simulated us)\"}}",
                 i + 1, tracks_[i].c_str());
  }
  for (const Span& s : spans_) {
    std::fprintf(f,
                 ",\n{\"ph\":\"X\",\"name\":\"%s\",\"pid\":%d,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu}}",
                 s.name, s.pid, s.tid, s.ts_us, s.dur_us,
                 static_cast<unsigned long long>(s.id));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

// ---- Counters ---------------------------------------------------------------

namespace {

// Shard-invariant simulated counters, in digest order.
constexpr std::uint64_t Counters::*kInvariant[] = {
    &Counters::timers_fired,     &Counters::timers_cancelled,
    &Counters::sim_ns,           &Counters::switch_flooded,
    &Counters::switch_drops,     &Counters::server_link_busy_ns,
    &Counters::payload_bytes,    &Counters::link_bytes,
    &Counters::nic_frames,       &Counters::nic_irqs,
    &Counters::nic_ring_drops,   &Counters::pci_transactions,
    &Counters::pci_busy_ns,      &Counters::membus_busy_ns,
    &Counters::cpu_busy_ns,      &Counters::niccoll_frames,
    &Counters::niccoll_combines, &Counters::syscalls,
    &Counters::bottom_halves,    &Counters::clic_messages,
    &Counters::clic_retransmits, &Counters::clic_timeouts,
    &Counters::clic_duplicates,  &Counters::clic_window_collapses,
    &Counters::clic_rtt_samples, &Counters::tcp_segments,
    &Counters::tcp_retransmits,  &Counters::ip_datagrams,
    &Counters::ip_fragments,     &Counters::mpi_messages,
    &Counters::mpi_unexpected,   &Counters::mpi_rendezvous,
};

// Summed but layout-dependent (reported, never digested).
constexpr std::uint64_t Counters::*kEngine[] = {
    &Counters::events,           &Counters::shard_windows,
    &Counters::barrier_waits,    &Counters::cross_shard_posts,
    &Counters::pool_heap_allocs, &Counters::pool_reuses,
    &Counters::shared_mints,     &Counters::unpooled_copies,
};

std::uint64_t ns(SimTime t) { return t > 0 ? static_cast<std::uint64_t>(t) : 0; }

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

}  // namespace

void Counters::add(const Counters& o) {
  for (auto field : kInvariant) this->*field += o.*field;
  for (auto field : kEngine) this->*field += o.*field;
  pool_high_water = std::max(pool_high_water, o.pool_high_water);
}

void Counters::digest_into(Digest& d) const {
  for (auto field : kInvariant) d.add(this->*field);
}

std::uint64_t shared_mints_now() {
  return cs::net::detail::shared_data_mints();
}
std::uint64_t unpooled_copies_now() {
  return cs::net::detail::unpooled_data_copies();
}

void absorb_core(Counters& c, cs::apps::BedCore& bed,
                 std::uint64_t mints_before, std::uint64_t copies_before) {
  const SimTime elapsed = bed.now();
  c.events += bed.events_executed();
  c.shard_windows += bed.shards.windows_opened();
  c.barrier_waits += bed.shards.barrier_waits();
  c.cross_shard_posts += bed.shards.cross_shard_posts();
  c.sim_ns += ns(elapsed);

  auto pool = [&c](const cs::net::BufferPool& p) {
    const auto s = p.stats();
    c.pool_heap_allocs += s.data_heap_allocs + s.header_heap_allocs;
    c.pool_reuses += s.data_reuses + s.header_reuses;
    c.pool_high_water = std::max(
        c.pool_high_water, static_cast<std::uint64_t>(std::max<std::int64_t>(
                               s.high_water, 0)));
  };
  pool(bed.pool);
  for (const auto& p : bed.shard_pools) pool(*p);
  c.shared_mints += shared_mints_now() - mints_before;
  c.unpooled_copies += unpooled_copies_now() - copies_before;

  auto& cluster = bed.cluster;
  for (int s = 0; s < cluster.switch_count(); ++s) {
    c.switch_flooded += cluster.switch_at(s).flooded();
    c.switch_drops += cluster.switch_at(s).dropped();
  }
  SimTime pci = 0;
  SimTime mem = 0;
  SimTime cpu = 0;
  const int nics = cluster.config().nics_per_node;
  for (int n = 0; n < cluster.size(); ++n) {
    auto& node = cluster.node(n);
    for (int j = 0; j < nics; ++j) {
      auto& nic = node.nic(j);
      c.nic_frames += nic.rx_frames();
      c.nic_irqs += nic.interrupts_fired();
      c.nic_ring_drops += nic.rx_ring_drops();
      c.link_bytes += static_cast<std::uint64_t>(
          std::max<std::int64_t>(cluster.link(n, j).bytes_sent(0), 0));
    }
    c.pci_transactions += node.pci().transactions();
    pci = std::max(pci, node.pci().busy_time());
    mem = std::max(mem, node.mem().busy_time());
    cpu = std::max(cpu, node.cpu().busy_time());
    c.syscalls += node.kernel().syscalls();
    c.bottom_halves += node.kernel().bottom_halves_run();
    c.timers_fired += node.kernel().timer_wheel().fired();
    c.timers_cancelled += node.kernel().timer_wheel().cancelled();
  }
  c.pci_busy_ns += ns(std::min(pci, elapsed));
  c.membus_busy_ns += ns(std::min(mem, elapsed));
  c.cpu_busy_ns += ns(std::min(cpu, elapsed));
  // Node 0's link (the server in rpc-incast): its busier direction.
  auto& server = cluster.link(0);
  const double busy = std::max(server.utilization(0), server.utilization(1));
  c.server_link_busy_ns += ns(static_cast<SimTime>(
      busy * static_cast<double>(elapsed)));
}

void absorb_clic(Counters& c, cs::apps::ClicBed& bed) {
  const int nodes = bed.cluster.size();
  for (int n = 0; n < nodes; ++n) {
    auto& mod = bed.module(n);
    c.clic_messages += mod.messages_sent();
    for (int peer = 0; peer < nodes; ++peer) {
      if (const auto* ch = mod.channel_to(peer)) {
        c.clic_retransmits += ch->retransmits();
        c.clic_timeouts += ch->timeouts();
        c.clic_duplicates += ch->duplicates();
      }
    }
    const auto a = mod.adaptive_stats();
    c.clic_window_collapses += a.window_collapses;
    c.clic_rtt_samples += a.rtt_samples;
  }
}

void absorb_tcp(Counters& c, cs::apps::TcpBed& bed) {
  for (std::size_t n = 0; n < bed.tcp.size(); ++n) {
    c.tcp_segments += bed.tcp[n]->segments_sent();
    c.ip_datagrams += bed.ip[n]->datagrams_sent();
    c.ip_fragments += bed.ip[n]->fragments_sent();
  }
}

// ---- Metric emission ----------------------------------------------------------

void emit_layers(Metrics& m, const Counters& c, const std::string& suffix) {
  const bool total = suffix.empty();
  auto put = [&](const std::string& name, double v, const char* unit) {
    m[name + suffix] = Metric{v, unit, false};
  };
  auto count = [&](const std::string& name, std::uint64_t v) {
    put(name, static_cast<double>(v), "count");
  };
  const double sim_ns = static_cast<double>(c.sim_ns);
  auto busy = [&](std::uint64_t v) {
    return sim_ns > 0 ? static_cast<double>(v) / sim_ns : 0.0;
  };

  count("sim.events", c.events);
  count("sim.timers_fired", c.timers_fired);
  count("sim.timers_cancelled", c.timers_cancelled);
  count("net.switch_drops", c.switch_drops);
  put("net.server_link_busy_frac", busy(c.server_link_busy_ns), "share");
  put("net.useful_byte_frac", ratio(c.payload_bytes, c.link_bytes), "share");
  count("hw.nic_frames", c.nic_frames);
  count("hw.nic_irqs", c.nic_irqs);
  put("hw.cpu_busy_frac", busy(c.cpu_busy_ns), "share");
  count("os.syscalls", c.syscalls);
  count("os.bottom_halves", c.bottom_halves);
  if (total || suffix == ".clic" || suffix == ".clic-a") {
    count("clic.messages", c.clic_messages);
    count("clic.retransmits", c.clic_retransmits);
    count("clic.timeouts", c.clic_timeouts);
    count("clic.duplicates", c.clic_duplicates);
    put("clic.retx_per_msg", ratio(c.clic_retransmits, c.clic_messages),
        "ratio");
    count("clic.window_collapses", c.clic_window_collapses);
    count("clic.rtt_samples", c.clic_rtt_samples);
  }
  if (total || suffix == ".tcp") {
    count("tcpip.segments", c.tcp_segments);
    count("tcpip.retransmits", c.tcp_retransmits);
  }
  if (!total) return;

  count("sim.shard_windows", c.shard_windows);
  count("sim.barrier_waits", c.barrier_waits);
  count("sim.cross_shard_posts", c.cross_shard_posts);
  put("sim.windows_per_sim_ms",
      sim_ns > 0 ? static_cast<double>(c.shard_windows) / (sim_ns / 1e6) : 0,
      "1/ms");
  count("net.pool_heap_allocs", c.pool_heap_allocs);
  count("net.pool_reuses", c.pool_reuses);
  put("net.pool_hit_frac",
      ratio(c.pool_reuses, c.pool_reuses + c.pool_heap_allocs), "share");
  count("net.pool_high_water", c.pool_high_water);
  count("net.shared_mints", c.shared_mints);
  count("net.unpooled_copies", c.unpooled_copies);
  count("net.switch_flooded", c.switch_flooded);
  put("hw.frames_per_irq", ratio(c.nic_frames, c.nic_irqs), "ratio");
  count("hw.nic_ring_drops", c.nic_ring_drops);
  put("hw.pci_busy_frac", busy(c.pci_busy_ns), "share");
  put("hw.membus_busy_frac", busy(c.membus_busy_ns), "share");
  count("hw.pci_transactions", c.pci_transactions);
  count("hw.niccoll_frames", c.niccoll_frames);
  count("hw.niccoll_combines", c.niccoll_combines);
  count("tcpip.datagrams", c.ip_datagrams);
  count("tcpip.fragments", c.ip_fragments);
  count("mpi.messages", c.mpi_messages);
  count("mpi.unexpected", c.mpi_unexpected);
  count("mpi.rendezvous", c.mpi_rendezvous);
}

}  // namespace perfbench

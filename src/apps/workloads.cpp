#include "apps/workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "apps/chaos.hpp"
#include "sim/fault_plan.hpp"
#include "sim/random.hpp"
#include "sim/task.hpp"

namespace clicsim::apps {

double to_mbps(std::int64_t size, sim::SimTime one_way) {
  if (one_way <= 0) return 0.0;
  return static_cast<double>(size) * 8e3 / static_cast<double>(one_way);
}

namespace {

// Shared ping-pong skeleton: `leg(dst)` sends one message to the peer,
// `take()` blocks for one inbound message. The initiator measures reps
// round trips after one warm-up.
struct PingPongClock {
  sim::SimTime t0 = 0;
  sim::SimTime t1 = 0;
  int reps = 5;

  [[nodiscard]] sim::SimTime one_way() const {
    return (t1 - t0) / (2 * reps);
  }
};

}  // namespace

// --- CLIC -----------------------------------------------------------------------

namespace {
sim::Task clic_pp_initiator(sim::Simulator& sim, clic::Port& port,
                            std::int64_t size, PingPongClock& clock) {
  (void)co_await port.send(1, 1, net::Buffer::zeros(size));
  (void)co_await port.recv();
  clock.t0 = sim.now();
  for (int i = 0; i < clock.reps; ++i) {
    (void)co_await port.send(1, 1, net::Buffer::zeros(size));
    (void)co_await port.recv();
  }
  clock.t1 = sim.now();
}

sim::Task clic_pp_responder(clic::Port& port, std::int64_t size, int reps) {
  for (int i = 0; i < reps + 1; ++i) {
    (void)co_await port.recv();
    (void)co_await port.send(0, 1, net::Buffer::zeros(size));
  }
}
}  // namespace

sim::SimTime clic_one_way(const Scenario& s, std::int64_t size) {
  ClicBed bed(s.cluster, s.clic);
  bed.cluster.set_mtu_all(s.mtu);
  clic::Port a(bed.module(0), 1);
  clic::Port b(bed.module(1), 1);
  PingPongClock clock;
  clock.reps = s.pingpong_reps;
  clic_pp_initiator(bed.sim_of(0), a, size, clock);
  clic_pp_responder(b, size, clock.reps);
  bed.run();
  return clock.one_way();
}

// --- TCP ------------------------------------------------------------------------

namespace {
sim::Task tcp_pp_initiator(sim::Simulator& sim, tcpip::TcpStack& stack,
                           std::int64_t size, PingPongClock& clock) {
  auto& sock = stack.create_socket();
  (void)co_await sock.connect(1, 5000);
  (void)co_await sock.send(net::Buffer::zeros(size));
  (void)co_await sock.recv_exact(size);
  clock.t0 = sim.now();
  for (int i = 0; i < clock.reps; ++i) {
    (void)co_await sock.send(net::Buffer::zeros(size));
    (void)co_await sock.recv_exact(size);
  }
  clock.t1 = sim.now();
}

sim::Task tcp_pp_responder(tcpip::TcpStack& stack, std::int64_t size,
                           int reps) {
  tcpip::TcpSocket* sock = co_await stack.accept(5000);
  for (int i = 0; i < reps + 1; ++i) {
    (void)co_await sock->recv_exact(size);
    (void)co_await sock->send(net::Buffer::zeros(size));
  }
}
}  // namespace

sim::SimTime tcp_one_way(const Scenario& s, std::int64_t size) {
  TcpBed bed(s.cluster, s.tcp);
  bed.cluster.set_mtu_all(s.mtu);
  bed.tcp[1]->listen(5000);
  PingPongClock clock;
  clock.reps = s.pingpong_reps;
  tcp_pp_initiator(bed.sim_of(0), *bed.tcp[0], std::max<std::int64_t>(size, 1),
                   clock);
  tcp_pp_responder(*bed.tcp[1], std::max<std::int64_t>(size, 1), clock.reps);
  bed.run();
  return clock.one_way();
}

// --- MPI ------------------------------------------------------------------------

namespace {
sim::Task mpi_pp_initiator(sim::Simulator& sim, mpi::Communicator& comm,
                           std::int64_t size, PingPongClock& clock) {
  (void)co_await comm.send(1, 7, net::Buffer::zeros(size));
  (void)co_await comm.recv(1, 7);
  clock.t0 = sim.now();
  for (int i = 0; i < clock.reps; ++i) {
    (void)co_await comm.send(1, 7, net::Buffer::zeros(size));
    (void)co_await comm.recv(1, 7);
  }
  clock.t1 = sim.now();
}

sim::Task mpi_pp_responder(mpi::Communicator& comm, std::int64_t size,
                           int reps) {
  for (int i = 0; i < reps + 1; ++i) {
    (void)co_await comm.recv(0, 7);
    (void)co_await comm.send(0, 7, net::Buffer::zeros(size));
  }
}

sim::Task mpi_tcp_pp_all(MpiTcpBed& bed, std::int64_t size,
                         PingPongClock& clock) {
  const bool ok = co_await bed.connect();
  if (!ok) co_return;
  mpi_pp_initiator(bed.sim(), bed.comm(0), size, clock);
  mpi_pp_responder(bed.comm(1), size, clock.reps);
}
}  // namespace

sim::SimTime mpi_clic_one_way(const Scenario& s, std::int64_t size) {
  MpiClicBed bed(s.cluster, s.clic, s.mpi);
  bed.bed.cluster.set_mtu_all(s.mtu);
  PingPongClock clock;
  clock.reps = s.pingpong_reps;
  mpi_pp_initiator(bed.sim(), bed.comm(0), size, clock);
  mpi_pp_responder(bed.comm(1), size, clock.reps);
  // Group-wide run: the CLIC bed shards, and sim().run() alone would
  // silently simulate only shard 0's slice (rank 1 never answers).
  bed.run();
  return clock.one_way();
}

sim::SimTime mpi_tcp_one_way(const Scenario& s, std::int64_t size) {
  MpiTcpBed bed(s.cluster, s.tcp, s.mpi);
  bed.bed.cluster.set_mtu_all(s.mtu);
  PingPongClock clock;
  clock.reps = s.pingpong_reps;
  mpi_tcp_pp_all(bed, size, clock);
  bed.sim().run();
  return clock.one_way();
}

// --- PVM ------------------------------------------------------------------------

namespace {
sim::Task pvm_pp_initiator(sim::Simulator& sim, pvm::PvmTask& task,
                           std::int64_t size, PingPongClock& clock) {
  for (int i = 0; i < clock.reps + 1; ++i) {
    task.initsend();
    (void)co_await task.pack(net::Buffer::zeros(size));
    (void)co_await task.send(1, 7);
    pvm::PvmMessage m = co_await task.recv(1, 7);
    (void)co_await task.unpack(m, size);
    if (i == 0) clock.t0 = sim.now();
  }
  clock.t1 = sim.now();
}

sim::Task pvm_pp_responder(pvm::PvmTask& task, std::int64_t size, int reps) {
  for (int i = 0; i < reps + 1; ++i) {
    pvm::PvmMessage m = co_await task.recv(0, 7);
    (void)co_await task.unpack(m, size);
    task.initsend();
    (void)co_await task.pack(net::Buffer::zeros(size));
    (void)co_await task.send(0, 7);
  }
}

sim::Task pvm_pp_all(PvmBed& bed, std::int64_t size, PingPongClock& clock) {
  const bool ok = co_await bed.connect();
  if (!ok) co_return;
  pvm_pp_initiator(bed.sim(), bed.task(0), size, clock);
  pvm_pp_responder(bed.task(1), size, clock.reps);
}
}  // namespace

sim::SimTime pvm_one_way(const Scenario& s, std::int64_t size) {
  PvmBed bed(s.cluster, s.tcp, s.pvm);
  bed.bed.cluster.set_mtu_all(s.mtu);
  PingPongClock clock;
  clock.reps = s.pingpong_reps;
  pvm_pp_all(bed, size, clock);
  bed.sim().run();
  return clock.one_way();
}

// --- GAMMA ----------------------------------------------------------------------

namespace {
sim::Task gamma_pp_initiator(sim::Simulator& sim, gamma::GammaModule& mod,
                             std::int64_t size, PingPongClock& clock) {
  (void)co_await mod.send(1, 1, net::Buffer::zeros(size));
  (void)co_await mod.recv(1);
  clock.t0 = sim.now();
  for (int i = 0; i < clock.reps; ++i) {
    (void)co_await mod.send(1, 1, net::Buffer::zeros(size));
    (void)co_await mod.recv(1);
  }
  clock.t1 = sim.now();
}

sim::Task gamma_pp_responder(gamma::GammaModule& mod, std::int64_t size,
                             int reps) {
  for (int i = 0; i < reps + 1; ++i) {
    (void)co_await mod.recv(1);
    (void)co_await mod.send(0, 1, net::Buffer::zeros(size));
  }
}
}  // namespace

sim::SimTime gamma_one_way(const Scenario& s, std::int64_t size) {
  GammaBed bed(s.cluster, s.gamma);
  bed.cluster.set_mtu_all(std::min(s.mtu, s.cluster.nic.max_mtu));
  bed.module(0).open_mailbox_port(1);
  bed.module(1).open_mailbox_port(1);
  PingPongClock clock;
  clock.reps = s.pingpong_reps;
  gamma_pp_initiator(bed.sim_of(0), bed.module(0), size, clock);
  gamma_pp_responder(bed.module(1), size, clock.reps);
  bed.run();
  return clock.one_way();
}

// --- VIA ------------------------------------------------------------------------

namespace {
sim::Task via_pp_initiator(sim::Simulator& sim, via::Vi& vi,
                           std::int64_t size, PingPongClock& clock) {
  for (int i = 0; i < clock.reps + 1; ++i) {
    vi.post_recv(size + 64);
    vi.post_send(net::Buffer::zeros(size));
    // Reap the send completion, then poll for the pong.
    (void)co_await vi.poll_wait();
    (void)co_await vi.poll_wait();
    if (i == 0) clock.t0 = sim.now();
  }
  clock.t1 = sim.now();
}

sim::Task via_pp_responder(via::Vi& vi, std::int64_t size, int reps) {
  for (int i = 0; i < reps + 1; ++i) {
    vi.post_recv(size + 64);
    via::Completion c = co_await vi.poll_wait();
    while (c.is_send) c = co_await vi.poll_wait();
    vi.post_send(net::Buffer::zeros(size));
    (void)co_await vi.poll_wait();  // reap send completion
  }
}
}  // namespace

sim::SimTime via_one_way(const Scenario& s, std::int64_t size) {
  ViaBed bed(s.cluster, s.via);
  bed.cluster.set_mtu_all(s.mtu);
  via::Vi& a = bed.provider(0).create_vi();
  via::Vi& b = bed.provider(1).create_vi();
  a.connect(1, b.id());
  b.connect(0, a.id());
  PingPongClock clock;
  clock.reps = s.pingpong_reps;
  via_pp_initiator(bed.sim_of(0), a, size, clock);
  via_pp_responder(b, size, clock.reps);
  bed.run();
  return clock.one_way();
}

// --- Streams ---------------------------------------------------------------------

namespace {
sim::Task clic_stream_tx(clic::Port& port, std::int64_t message,
                         std::int64_t count) {
  for (std::int64_t i = 0; i < count; ++i) {
    (void)co_await port.send(1, 1, net::Buffer::zeros(message));
  }
}

sim::Task clic_stream_rx(sim::Simulator& sim, clic::Port& port,
                         std::int64_t count, sim::SimTime& t_end) {
  for (std::int64_t i = 0; i < count; ++i) {
    (void)co_await port.recv();
  }
  t_end = sim.now();
}
}  // namespace

StreamStats clic_stream(const Scenario& s, std::int64_t message_size,
                        std::int64_t total_bytes) {
  ClicBed bed(s.cluster, s.clic);
  bed.cluster.set_mtu_all(s.mtu);
  clic::Port a(bed.module(0), 1);
  clic::Port b(bed.module(1), 1);
  const std::int64_t count =
      std::max<std::int64_t>(total_bytes / message_size, 1);
  sim::SimTime t_end = 0;
  clic_stream_tx(a, message_size, count);
  clic_stream_rx(bed.sim_of(1), b, count, t_end);
  bed.run();

  StreamStats st;
  st.bytes = message_size * count;
  st.elapsed = t_end;
  st.mbps = static_cast<double>(st.bytes) * 8e3 /
            static_cast<double>(std::max<sim::SimTime>(t_end, 1));
  st.tx_cpu = bed.cluster.node(0).cpu().utilization();
  st.rx_cpu = bed.cluster.node(1).cpu().utilization();
  st.rx_interrupts = bed.cluster.node(1).nic(0).interrupts_fired();
  st.rx_frames = bed.cluster.node(1).nic(0).rx_frames();
  st.rx_ring_drops = bed.cluster.node(1).nic(0).rx_ring_drops();
  return st;
}

namespace {
sim::Task tcp_stream_tx(tcpip::TcpStack& stack, std::int64_t total) {
  auto& sock = stack.create_socket();
  (void)co_await sock.connect(1, 5000);
  (void)co_await sock.send(net::Buffer::zeros(total));
  sock.close();
}

sim::Task tcp_stream_rx(sim::Simulator& sim, tcpip::TcpStack& stack,
                        std::int64_t total, sim::SimTime& t_end) {
  tcpip::TcpSocket* sock = co_await stack.accept(5000);
  (void)co_await sock->recv_exact(total);
  t_end = sim.now();
}
}  // namespace

StreamStats tcp_stream(const Scenario& s, std::int64_t total_bytes) {
  TcpBed bed(s.cluster, s.tcp);
  bed.cluster.set_mtu_all(s.mtu);
  bed.tcp[1]->listen(5000);
  sim::SimTime t_end = 0;
  tcp_stream_tx(*bed.tcp[0], total_bytes);
  tcp_stream_rx(bed.sim_of(1), *bed.tcp[1], total_bytes, t_end);
  bed.run();

  StreamStats st;
  st.bytes = total_bytes;
  st.elapsed = t_end;
  st.mbps = static_cast<double>(total_bytes) * 8e3 /
            static_cast<double>(std::max<sim::SimTime>(t_end, 1));
  st.tx_cpu = bed.cluster.node(0).cpu().utilization();
  st.rx_cpu = bed.cluster.node(1).cpu().utilization();
  st.rx_interrupts = bed.cluster.node(1).nic(0).interrupts_fired();
  st.rx_frames = bed.cluster.node(1).nic(0).rx_frames();
  st.rx_ring_drops = bed.cluster.node(1).nic(0).rx_ring_drops();
  return st;
}

// --- Open-loop traffic (DESIGN.md §4j) --------------------------------------------

namespace {

// Every open-loop message starts with a 16-byte little-endian header of
// four u32 fields; the remainder of the payload is padding. The header is
// echoed by the RPC server, which lets thousands of logical clients
// multiplex one CLIC port / TCP socket per node.
constexpr std::int64_t kWireHeaderBytes = 16;
constexpr int kRpcServerPort = 11;   // CLIC
constexpr int kRpcClientPort = 12;   // CLIC
constexpr int kStreamPort = 13;      // CLIC
constexpr int kRpcTcpPort = 7000;
constexpr int kStreamTcpPort = 7001;

void put_u32(std::vector<std::byte>& v, std::size_t off, std::uint32_t x) {
  for (int i = 0; i < 4; ++i) {
    v[off + static_cast<std::size_t>(i)] =
        static_cast<std::byte>((x >> (8 * i)) & 0xff);
  }
}

std::uint32_t get_u32(std::span<const std::byte> d, std::size_t off) {
  std::uint32_t x = 0;
  for (int i = 0; i < 4; ++i) {
    x |= static_cast<std::uint32_t>(
             std::to_integer<unsigned>(d[off + static_cast<std::size_t>(i)]))
         << (8 * i);
  }
  return x;
}

net::Buffer wire_message(std::int64_t size, std::uint32_t f0, std::uint32_t f1,
                         std::uint32_t f2, std::uint32_t f3) {
  std::vector<std::byte> bytes(
      static_cast<std::size_t>(std::max(size, kWireHeaderBytes)));
  put_u32(bytes, 0, f0);
  put_u32(bytes, 4, f1);
  put_u32(bytes, 8, f2);
  put_u32(bytes, 12, f3);
  return net::Buffer::bytes(std::move(bytes));
}

// Seeded burst-loss campaign under a workload: random carrier / switch-port /
// DMA outages against every flappable element, all healed by `end` so the
// open-loop run always drains (paper CLIC retries forever; TCP retransmits).
void arm_fault_campaign(sim::FaultPlan& plan, os::Cluster& cluster,
                        sim::SimTime end) {
  register_cluster_targets(plan, cluster);
  sim::FaultPlan::Campaign campaign;
  campaign.start = sim::microseconds(200.0);
  campaign.end = end;
  campaign.outages = 6;
  campaign.min_down = sim::microseconds(100.0);
  campaign.max_down = sim::milliseconds(2.0);
  plan.randomize(campaign);
}

constexpr sim::SimTime kFaultWindow = sim::SimTime{10'000'000};  // 10 ms

}  // namespace

std::vector<sim::SimTime> arrival_times(const ArrivalSpec& spec, int count,
                                        std::uint64_t seed, int client) {
  if (count < 0) throw std::invalid_argument("arrival_times: count < 0");
  if (spec.process != ArrivalSpec::Process::kIncast && spec.rate_per_s <= 0) {
    throw std::invalid_argument("arrival_times: rate_per_s <= 0");
  }
  if (spec.process == ArrivalSpec::Process::kBursty &&
      (spec.on_mean_s <= 0 || spec.off_mean_s < 0)) {
    throw std::invalid_argument("arrival_times: bad burst durations");
  }
  if (spec.process == ArrivalSpec::Process::kIncast &&
      spec.incast_period <= 0) {
    throw std::invalid_argument("arrival_times: incast_period <= 0");
  }
  std::vector<sim::SimTime> out;
  out.reserve(static_cast<std::size_t>(count));
  sim::Rng rng(seed + static_cast<std::uint64_t>(client) *
                          0x9e3779b97f4a7c15ull,
               "open-loop-arrivals");
  const auto push = [&](double t_s) {
    sim::SimTime t = spec.start + sim::seconds(t_s);
    if (!out.empty() && t <= out.back()) t = out.back() + 1;
    out.push_back(t);
  };
  switch (spec.process) {
    case ArrivalSpec::Process::kIncast:
      for (int k = 0; k < count; ++k) {
        sim::SimTime t = spec.start + static_cast<sim::SimTime>(k) *
                                          spec.incast_period;
        if (!out.empty() && t <= out.back()) t = out.back() + 1;
        out.push_back(t);
      }
      break;
    case ArrivalSpec::Process::kPoisson: {
      double t = 0.0;
      for (int k = 0; k < count; ++k) {
        t += rng.exponential(1.0 / spec.rate_per_s);
        push(t);
      }
      break;
    }
    case ArrivalSpec::Process::kBursty: {
      double t = 0.0;
      double remaining_on = rng.exponential(spec.on_mean_s);
      for (int k = 0; k < count; ++k) {
        // Memoryless gaps carry across OFF periods: any part of the gap
        // not covered by the current ON burst spills into the next one.
        double gap = rng.exponential(1.0 / spec.rate_per_s);
        while (gap > remaining_on) {
          gap -= remaining_on;
          t += remaining_on + rng.exponential(spec.off_mean_s);
          remaining_on = rng.exponential(spec.on_mean_s);
        }
        t += gap;
        remaining_on -= gap;
        push(t);
      }
      break;
    }
  }
  return out;
}

namespace {

// Per-client bookkeeping, preallocated before the run. Each latency slot
// is written at most once, by the reader coroutine of the owning client's
// node — single-writer per shard, merged in index order afterwards.
struct RpcState {
  std::vector<std::vector<sim::SimTime>> arrivals;  // [client][seq]
  std::vector<std::vector<sim::SimTime>> latency;   // [client][seq]; -1 open
};

struct PendingReq {
  std::uint32_t client = 0;
  std::uint32_t seq = 0;
};

int rpc_node_of(int client, const RpcConfig& cfg) {
  return 1 + client % cfg.client_nodes;
}

void validate_rpc(const RpcConfig& cfg) {
  if (cfg.client_nodes < 1 || cfg.clients_per_node < 1 ||
      cfg.requests_per_client < 1) {
    throw std::invalid_argument("rpc workload: empty client population");
  }
  if (cfg.request_bytes < kWireHeaderBytes ||
      cfg.response_bytes < kWireHeaderBytes) {
    throw std::invalid_argument("rpc workload: payload below wire header");
  }
}

RpcState make_rpc_state(const RpcConfig& cfg) {
  const int clients = cfg.client_nodes * cfg.clients_per_node;
  RpcState st;
  st.arrivals.resize(static_cast<std::size_t>(clients));
  st.latency.resize(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    st.arrivals[static_cast<std::size_t>(c)] =
        arrival_times(cfg.arrivals, cfg.requests_per_client, cfg.seed, c);
    st.latency[static_cast<std::size_t>(c)].assign(
        static_cast<std::size_t>(cfg.requests_per_client), -1);
  }
  return st;
}

RpcResult fold_rpc(const RpcState& st, std::uint64_t events,
                   sim::SimTime finished) {
  RpcResult r;
  std::uint64_t h = sim::kDigestSeed;
  for (std::size_t c = 0; c < st.latency.size(); ++c) {
    for (std::size_t k = 0; k < st.latency[c].size(); ++k) {
      const sim::SimTime lat = st.latency[c][k];
      ++r.requests;
      sim::fnv1a(h, static_cast<std::uint64_t>(c));
      sim::fnv1a(h, static_cast<std::uint64_t>(k));
      sim::fnv1a(h, static_cast<std::uint64_t>(lat));
      if (lat >= 0) {
        r.latency.add(lat);
        ++r.responses;
      } else {
        ++r.in_flight;
      }
    }
  }
  r.finished_at = finished;
  r.events = events;
  // The digest certifies workload-visible outcomes only. Engine event
  // totals are not shard-invariant under a fault campaign: a carrier
  // outage on a link that crosses shards runs its fail and restore hooks
  // as one event per shard-side part, where one shard runs one of each.
  sim::fnv1a(h, static_cast<std::uint64_t>(finished));
  r.digest = h;
  return r;
}

// Opens the feeder coroutines: one per logical client, waking at each
// precomputed arrival and queueing the request on its node's mailbox. The
// per-node writer drains the mailbox through the node's single stack
// endpoint — head-of-line blocking across the node's clients is part of
// the modeled workload (one kernel socket queue), and the queueing it
// causes is visible in the tail because latency runs from the *scheduled*
// arrival.
sim::Task rpc_feeder(sim::Simulator& sim,
                     const std::vector<sim::SimTime>& times,
                     std::uint32_t client, sim::Mailbox<PendingReq>& mbox) {
  for (std::uint32_t k = 0; k < times.size(); ++k) {
    const sim::SimTime t = times[k];
    if (t > sim.now()) co_await sim::Delay{sim, t - sim.now()};
    mbox.push({client, k});
  }
}

struct RpcClicRun {
  static sim::Task server(clic::ClicModule& mod, std::uint64_t total) {
    for (std::uint64_t i = 0; i < total; ++i) {
      clic::Message m = co_await mod.recv(kRpcServerPort);
      const auto d = m.data.data();
      const std::uint32_t client = get_u32(d, 0);
      const std::uint32_t seq = get_u32(d, 4);
      const std::uint32_t resp = get_u32(d, 8);
      (void)co_await mod.send(kRpcServerPort, m.src_node, m.src_port,
                              wire_message(resp, client, seq, resp, 0),
                              clic::SendMode::kAsync);
    }
  }

  static sim::Task writer(clic::ClicModule& mod, const RpcConfig& cfg,
                          sim::Mailbox<PendingReq>& mbox,
                          std::uint64_t count) {
    for (std::uint64_t i = 0; i < count; ++i) {
      const PendingReq rq = co_await mbox.pop();
      (void)co_await mod.send(
          kRpcClientPort, 0, kRpcServerPort,
          wire_message(cfg.request_bytes, rq.client, rq.seq,
                       static_cast<std::uint32_t>(cfg.response_bytes),
                       static_cast<std::uint32_t>(cfg.request_bytes)),
          clic::SendMode::kSync);
    }
  }

  static sim::Task reader(sim::Simulator& sim, clic::ClicModule& mod,
                          RpcState& st, std::uint64_t count) {
    for (std::uint64_t i = 0; i < count; ++i) {
      clic::Message m = co_await mod.recv(kRpcClientPort);
      const auto d = m.data.data();
      const std::uint32_t client = get_u32(d, 0);
      const std::uint32_t seq = get_u32(d, 4);
      st.latency.at(client).at(seq) =
          sim.now() - st.arrivals.at(client).at(seq);
    }
  }
};

}  // namespace

RpcResult rpc_clic(const Scenario& s, const RpcConfig& cfg) {
  validate_rpc(cfg);
  os::ClusterConfig cc = s.cluster;
  cc.nodes = cfg.client_nodes + 1;
  ClicBed bed(cc, s.clic);
  bed.cluster.set_mtu_all(s.mtu);
  RpcState st = make_rpc_state(cfg);

  std::optional<sim::FaultPlan> plan;
  if (cfg.fault_seed != 0) {
    plan.emplace(bed.sim, cfg.fault_seed);
    arm_fault_campaign(*plan, bed.cluster, kFaultWindow);
  }

  bed.module(0).bind_port(kRpcServerPort);
  const auto per_node = static_cast<std::uint64_t>(cfg.clients_per_node) *
                        static_cast<std::uint64_t>(cfg.requests_per_client);
  RpcClicRun::server(bed.module(0),
                     per_node * static_cast<std::uint64_t>(cfg.client_nodes));

  std::vector<std::unique_ptr<sim::Mailbox<PendingReq>>> mboxes;
  for (int n = 1; n <= cfg.client_nodes; ++n) {
    mboxes.push_back(
        std::make_unique<sim::Mailbox<PendingReq>>(bed.sim_of(n)));
    bed.module(n).bind_port(kRpcClientPort);
    RpcClicRun::writer(bed.module(n), cfg, *mboxes.back(), per_node);
    RpcClicRun::reader(bed.sim_of(n), bed.module(n), st, per_node);
  }
  const int clients = cfg.client_nodes * cfg.clients_per_node;
  for (int c = 0; c < clients; ++c) {
    const int n = rpc_node_of(c, cfg);
    rpc_feeder(bed.sim_of(n), st.arrivals[static_cast<std::size_t>(c)],
               static_cast<std::uint32_t>(c), *mboxes[static_cast<std::size_t>(n - 1)]);
  }
  bed.run();
  return fold_rpc(st, bed.events_executed(), bed.now());
}

namespace {

struct RpcTcpRun {
  static sim::Task server_conn(tcpip::TcpStack& stack, std::uint64_t count) {
    tcpip::TcpSocket* sock = co_await stack.accept(kRpcTcpPort);
    for (std::uint64_t i = 0; i < count; ++i) {
      net::Buffer hdr = co_await sock->recv_exact(kWireHeaderBytes);
      if (hdr.size() < kWireHeaderBytes) co_return;  // EOF
      const auto d = hdr.data();
      const std::uint32_t client = get_u32(d, 0);
      const std::uint32_t seq = get_u32(d, 4);
      const std::uint32_t resp = get_u32(d, 8);
      const std::uint32_t req = get_u32(d, 12);
      if (req > kWireHeaderBytes) {
        (void)co_await sock->recv_exact(req - kWireHeaderBytes);
      }
      (void)co_await sock->send(wire_message(resp, client, seq, resp, 0));
    }
  }

  static sim::Task reader(sim::Simulator& sim, tcpip::TcpSocket& sock,
                          RpcState& st, std::uint64_t count) {
    for (std::uint64_t i = 0; i < count; ++i) {
      net::Buffer hdr = co_await sock.recv_exact(kWireHeaderBytes);
      if (hdr.size() < kWireHeaderBytes) co_return;
      const auto d = hdr.data();
      const std::uint32_t client = get_u32(d, 0);
      const std::uint32_t seq = get_u32(d, 4);
      const std::uint32_t resp = get_u32(d, 8);
      if (resp > kWireHeaderBytes) {
        (void)co_await sock.recv_exact(resp - kWireHeaderBytes);
      }
      st.latency.at(client).at(seq) =
          sim.now() - st.arrivals.at(client).at(seq);
    }
  }

  static sim::Task client_node(sim::Simulator& sim, tcpip::TcpStack& stack,
                               const RpcConfig& cfg, RpcState& st,
                               sim::Mailbox<PendingReq>& mbox,
                               std::uint64_t count) {
    auto& sock = stack.create_socket();
    const bool ok = co_await sock.connect(0, kRpcTcpPort);
    if (!ok) co_return;
    reader(sim, sock, st, count);
    for (std::uint64_t i = 0; i < count; ++i) {
      const PendingReq rq = co_await mbox.pop();
      (void)co_await sock.send(
          wire_message(cfg.request_bytes, rq.client, rq.seq,
                       static_cast<std::uint32_t>(cfg.response_bytes),
                       static_cast<std::uint32_t>(cfg.request_bytes)));
    }
  }
};

}  // namespace

RpcResult rpc_tcp(const Scenario& s, const RpcConfig& cfg) {
  validate_rpc(cfg);
  os::ClusterConfig cc = s.cluster;
  cc.nodes = cfg.client_nodes + 1;
  TcpBed bed(cc, s.tcp);
  bed.cluster.set_mtu_all(s.mtu);
  RpcState st = make_rpc_state(cfg);

  std::optional<sim::FaultPlan> plan;
  if (cfg.fault_seed != 0) {
    plan.emplace(bed.sim, cfg.fault_seed);
    arm_fault_campaign(*plan, bed.cluster, kFaultWindow);
  }

  bed.tcp[0]->listen(kRpcTcpPort);
  const auto per_node = static_cast<std::uint64_t>(cfg.clients_per_node) *
                        static_cast<std::uint64_t>(cfg.requests_per_client);
  std::vector<std::unique_ptr<sim::Mailbox<PendingReq>>> mboxes;
  for (int n = 1; n <= cfg.client_nodes; ++n) {
    RpcTcpRun::server_conn(*bed.tcp[0], per_node);
    mboxes.push_back(
        std::make_unique<sim::Mailbox<PendingReq>>(bed.sim_of(n)));
    // connect() drives the SYN path, so the client coroutine starts on its
    // owning shard's clock rather than eagerly at setup (chaos.cpp idiom).
    sim::Mailbox<PendingReq>* mb = mboxes.back().get();
    bed.sim_of(n).at(0, [&bed, &cfg, &st, mb, n, per_node] {
      RpcTcpRun::client_node(bed.sim_of(n),
                             *bed.tcp[static_cast<std::size_t>(n)], cfg, st,
                             *mb, per_node);
    });
  }
  const int clients = cfg.client_nodes * cfg.clients_per_node;
  for (int c = 0; c < clients; ++c) {
    const int n = rpc_node_of(c, cfg);
    rpc_feeder(bed.sim_of(n), st.arrivals[static_cast<std::size_t>(c)],
               static_cast<std::uint32_t>(c), *mboxes[static_cast<std::size_t>(n - 1)]);
  }
  bed.run();
  return fold_rpc(st, bed.events_executed(), bed.now());
}

namespace {

struct FragGeometry {
  int fragments = 0;               // per frame
  std::int64_t payload_bytes = 0;  // per fragment, excluding the header
};

void validate_streaming(const StreamingConfig& cfg) {
  if (cfg.streams < 1 || cfg.frames_per_stream < 1 || cfg.frame_bytes < 1) {
    throw std::invalid_argument("streaming workload: empty stream set");
  }
  if (cfg.fragment_bytes <= kWireHeaderBytes) {
    throw std::invalid_argument("streaming workload: fragment below header");
  }
  if (cfg.cadence <= 0 || cfg.deadline <= 0) {
    throw std::invalid_argument("streaming workload: bad cadence/deadline");
  }
}

FragGeometry frag_geometry(const StreamingConfig& cfg) {
  FragGeometry g;
  g.payload_bytes = cfg.fragment_bytes - kWireHeaderBytes;
  g.fragments = static_cast<int>((cfg.frame_bytes + g.payload_bytes - 1) /
                                 g.payload_bytes);
  return g;
}

std::int64_t frag_wire_size(const StreamingConfig& cfg, const FragGeometry& g,
                            int index) {
  const std::int64_t remaining =
      cfg.frame_bytes - static_cast<std::int64_t>(index) * g.payload_bytes;
  return kWireHeaderBytes + std::min(g.payload_bytes, remaining);
}

// Frame generation times are a pure function of (config, stream): the
// receiver computes the identical schedule without any metadata exchange.
// Each stream gets a seeded phase offset within one cadence so the senders
// don't fire in lockstep (unless seed collisions make them).
sim::SimTime stream_phase(const StreamingConfig& cfg, int stream) {
  sim::Rng rng(cfg.seed + static_cast<std::uint64_t>(stream) *
                              0x9e3779b97f4a7c15ull,
               "stream-phase");
  return cfg.start + rng.uniform_int(0, cfg.cadence - 1);
}

struct StreamClicRun {
  static sim::Task sender(sim::Simulator& sim, clic::ClicModule& mod,
                          const StreamingConfig& cfg, int stream,
                          FragGeometry g) {
    const sim::SimTime t0 = stream_phase(cfg, stream);
    for (int k = 0; k < cfg.frames_per_stream; ++k) {
      const sim::SimTime gen = t0 + static_cast<sim::SimTime>(k) * cfg.cadence;
      if (gen > sim.now()) co_await sim::Delay{sim, gen - sim.now()};
      for (int f = 0; f < g.fragments; ++f) {
        (void)co_await mod.send(
            kStreamPort, 0, kStreamPort,
            wire_message(frag_wire_size(cfg, g, f),
                         static_cast<std::uint32_t>(stream),
                         static_cast<std::uint32_t>(k),
                         static_cast<std::uint32_t>(f),
                         static_cast<std::uint32_t>(g.fragments)),
            clic::SendMode::kSync);
      }
    }
  }

  static sim::Task receiver(clic::ClicModule& mod,
                            std::vector<std::unique_ptr<JitterBuffer>>& jbs,
                            std::uint64_t total_fragments) {
    for (std::uint64_t i = 0; i < total_fragments; ++i) {
      clic::Message m = co_await mod.recv(kStreamPort);
      const auto d = m.data.data();
      const std::uint32_t stream = get_u32(d, 0);
      const std::uint32_t frame = get_u32(d, 4);
      const std::uint32_t frag = get_u32(d, 8);
      (void)jbs.at(stream)->on_fragment(frame, frag);
    }
  }
};

struct StreamTcpRun {
  static sim::Task server_conn(tcpip::TcpStack& stack,
                               std::vector<std::unique_ptr<JitterBuffer>>& jbs,
                               const StreamingConfig& cfg, FragGeometry g) {
    tcpip::TcpSocket* sock = co_await stack.accept(kStreamTcpPort);
    const auto count = static_cast<std::uint64_t>(cfg.frames_per_stream) *
                       static_cast<std::uint64_t>(g.fragments);
    for (std::uint64_t i = 0; i < count; ++i) {
      net::Buffer hdr = co_await sock->recv_exact(kWireHeaderBytes);
      if (hdr.size() < kWireHeaderBytes) co_return;
      const auto d = hdr.data();
      const std::uint32_t stream = get_u32(d, 0);
      const std::uint32_t frame = get_u32(d, 4);
      const std::uint32_t frag = get_u32(d, 8);
      const std::int64_t size =
          frag_wire_size(cfg, g, static_cast<int>(frag));
      if (size > kWireHeaderBytes) {
        (void)co_await sock->recv_exact(size - kWireHeaderBytes);
      }
      (void)jbs.at(stream)->on_fragment(frame, frag);
    }
  }

  static sim::Task sender(sim::Simulator& sim, tcpip::TcpStack& stack,
                          const StreamingConfig& cfg, int stream,
                          FragGeometry g) {
    auto& sock = stack.create_socket();
    const bool ok = co_await sock.connect(0, kStreamTcpPort);
    if (!ok) co_return;
    const sim::SimTime t0 = stream_phase(cfg, stream);
    for (int k = 0; k < cfg.frames_per_stream; ++k) {
      const sim::SimTime gen = t0 + static_cast<sim::SimTime>(k) * cfg.cadence;
      if (gen > sim.now()) co_await sim::Delay{sim, gen - sim.now()};
      for (int f = 0; f < g.fragments; ++f) {
        (void)co_await sock.send(
            wire_message(frag_wire_size(cfg, g, f),
                         static_cast<std::uint32_t>(stream),
                         static_cast<std::uint32_t>(k),
                         static_cast<std::uint32_t>(f),
                         static_cast<std::uint32_t>(g.fragments)));
      }
    }
  }
};

// Builds node 0's jitter buffers with every frame's deadline pre-scheduled.
std::vector<std::unique_ptr<JitterBuffer>> make_jitter_buffers(
    sim::Simulator& rx_sim, const StreamingConfig& cfg,
    const FragGeometry& g) {
  std::vector<std::unique_ptr<JitterBuffer>> jbs;
  for (int s = 0; s < cfg.streams; ++s) {
    auto jb = std::make_unique<JitterBuffer>(rx_sim);
    const sim::SimTime t0 = stream_phase(cfg, s);
    for (int k = 0; k < cfg.frames_per_stream; ++k) {
      const sim::SimTime gen = t0 + static_cast<sim::SimTime>(k) * cfg.cadence;
      jb->expect_frame(static_cast<std::uint32_t>(k), g.fragments, gen,
                       gen + cfg.deadline);
    }
    jbs.push_back(std::move(jb));
  }
  return jbs;
}

StreamingResult fold_streaming(
    const std::vector<std::unique_ptr<JitterBuffer>>& jbs,
    std::uint64_t events, sim::SimTime finished) {
  StreamingResult r;
  std::uint64_t h = sim::kDigestSeed;
  for (const auto& jb : jbs) {  // stream index order
    r.frames += jb->frames_expected();
    r.on_time += jb->frames_on_time();
    r.deadline_misses += jb->deadline_misses();
    r.late_fragments += jb->late_fragments();
    r.duplicate_fragments += jb->duplicate_fragments();
    r.in_flight += jb->pending_frames();
    r.max_depth = std::max(r.max_depth, jb->max_depth());
    r.latency.merge(jb->latency());
    sim::fnv1a(h, jb->frames_on_time());
    sim::fnv1a(h, jb->deadline_misses());
    sim::fnv1a(h, jb->late_fragments());
    sim::fnv1a(h, jb->duplicate_fragments());
    sim::fnv1a(h, static_cast<std::uint64_t>(jb->max_depth()));
    sim::fnv1a(h, jb->latency().count());
    sim::fnv1a(h, static_cast<std::uint64_t>(jb->latency().min()));
    sim::fnv1a(h, static_cast<std::uint64_t>(jb->latency().max()));
    sim::fnv1a(h, static_cast<std::uint64_t>(jb->latency().quantile(0.50)));
    sim::fnv1a(h, static_cast<std::uint64_t>(jb->latency().quantile(0.99)));
    sim::fnv1a(h, static_cast<std::uint64_t>(jb->latency().quantile(0.999)));
  }
  r.finished_at = finished;
  r.events = events;
  // Workload-visible outcomes only; see fold_rpc on engine event totals.
  sim::fnv1a(h, static_cast<std::uint64_t>(finished));
  r.digest = h;
  return r;
}

}  // namespace

StreamingResult streaming_clic(const Scenario& s, const StreamingConfig& cfg) {
  validate_streaming(cfg);
  os::ClusterConfig cc = s.cluster;
  cc.nodes = cfg.streams + 1;
  ClicBed bed(cc, s.clic);
  bed.cluster.set_mtu_all(s.mtu);
  const FragGeometry g = frag_geometry(cfg);

  std::optional<sim::FaultPlan> plan;
  if (cfg.fault_seed != 0) {
    plan.emplace(bed.sim, cfg.fault_seed);
    arm_fault_campaign(*plan, bed.cluster, kFaultWindow);
  }

  auto jbs = make_jitter_buffers(bed.sim_of(0), cfg, g);
  bed.module(0).bind_port(kStreamPort);
  const auto total = static_cast<std::uint64_t>(cfg.streams) *
                     static_cast<std::uint64_t>(cfg.frames_per_stream) *
                     static_cast<std::uint64_t>(g.fragments);
  StreamClicRun::receiver(bed.module(0), jbs, total);
  for (int st = 0; st < cfg.streams; ++st) {
    bed.module(st + 1).bind_port(kStreamPort);
    StreamClicRun::sender(bed.sim_of(st + 1), bed.module(st + 1), cfg, st, g);
  }
  bed.run();
  return fold_streaming(jbs, bed.events_executed(), bed.now());
}

StreamingResult streaming_tcp(const Scenario& s, const StreamingConfig& cfg) {
  validate_streaming(cfg);
  os::ClusterConfig cc = s.cluster;
  cc.nodes = cfg.streams + 1;
  TcpBed bed(cc, s.tcp);
  bed.cluster.set_mtu_all(s.mtu);
  const FragGeometry g = frag_geometry(cfg);

  std::optional<sim::FaultPlan> plan;
  if (cfg.fault_seed != 0) {
    plan.emplace(bed.sim, cfg.fault_seed);
    arm_fault_campaign(*plan, bed.cluster, kFaultWindow);
  }

  auto jbs = make_jitter_buffers(bed.sim_of(0), cfg, g);
  bed.tcp[0]->listen(kStreamTcpPort);
  for (int st = 0; st < cfg.streams; ++st) {
    StreamTcpRun::server_conn(*bed.tcp[0], jbs, cfg, g);
    bed.sim_of(st + 1).at(0, [&bed, &cfg, &g, st] {
      StreamTcpRun::sender(bed.sim_of(st + 1),
                           *bed.tcp[static_cast<std::size_t>(st + 1)], cfg, st,
                           g);
    });
  }
  bed.run();
  return fold_streaming(jbs, bed.events_executed(), bed.now());
}

// --- Sweep helpers ---------------------------------------------------------------

std::vector<std::int64_t> sweep_sizes(std::int64_t lo, std::int64_t hi,
                                      int per_decade) {
  if (lo < 1 || hi < lo || per_decade < 1) {
    throw std::invalid_argument("sweep_sizes: bad range");
  }
  std::vector<std::int64_t> sizes;
  const double step = std::pow(10.0, 1.0 / per_decade);
  double x = static_cast<double>(lo);
  std::int64_t last = 0;
  while (x <= static_cast<double>(hi) * 1.0001) {
    const auto v = static_cast<std::int64_t>(std::llround(x));
    if (v != last) sizes.push_back(v);
    last = v;
    x *= step;
  }
  if (sizes.empty() || sizes.back() < hi) sizes.push_back(hi);
  return sizes;
}

}  // namespace clicsim::apps

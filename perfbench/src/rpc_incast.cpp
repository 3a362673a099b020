// rpc-incast: open loop, one thread. 288 logical clients on 6 nodes send
// 128 B requests to one server (node 0), which answers each with 1 KB, over
// fixed CLIC, adaptive CLIC (clic-a) and TCP. Every client fires in lockstep
// waves every 12 ms over a light Poisson background, so once per wave the
// server's NIC receive ring overflows and requests queue for its CPU. Each
// request is timed from its *scheduled* arrival, so a stalled stack pays
// for the backlog it builds.
//
// The seed sets the wave phase, each client's skew inside a wave and the
// Poisson background. The program only ever sees the precomputed arrival
// schedules.
#include <algorithm>
#include <cstring>
#include <memory>

#include "apps/workloads.hpp"
#include "clic/api.hpp"
#include "harness.hpp"
#include "sim/stats.hpp"
#include "sim/task.hpp"

namespace perfbench {
namespace {

namespace apps = cs::apps;
namespace sim = cs::sim;

constexpr int kClientNodes = 6;
constexpr int kClientsPerNode = 48;
constexpr int kClients = kClientNodes * kClientsPerNode;
constexpr int kWaves = 50;
constexpr int kBackground = 10;  // Poisson requests per client
constexpr int kRequestsPerClient = kWaves + kBackground;
constexpr double kBackgroundRate = 16.0;  // per client, 1/s
constexpr SimTime kWavePeriod = 12'000'000;  // 12 ms
constexpr SimTime kMaxSkew = 20'000;         // 20 us
constexpr SimTime kStart = 100'000;          // 100 us
constexpr std::int64_t kRequestBytes = 128;
constexpr std::int64_t kResponseBytes = 1024;
constexpr std::int64_t kHeaderBytes = 16;
constexpr int kServerPort = 9;
constexpr int kClientPort = 10;
constexpr int kTcpPort = 7000;

struct Pending {
  std::uint32_t client = 0;
  std::uint32_t seq = 0;
};

// Per-request simulated timestamps. latency is always kept; the stage
// stamps (send issued, send resolved, reply received) only when tracing.
struct Book {
  std::vector<std::vector<SimTime>> arrival;  // [client][seq]
  std::vector<std::vector<SimTime>> latency;  // -1 until answered
  std::vector<std::vector<SimTime>> issued, sent, replied;
  bool traced = false;
  std::uint64_t bad_replies = 0;

  void stamp(std::vector<std::vector<SimTime>>& v, const Pending& p,
             SimTime t) {
    if (traced) v[p.client][p.seq] = t;
  }
};

std::vector<std::vector<SimTime>> make_arrivals(std::uint64_t seed) {
  std::vector<std::vector<SimTime>> out(kClients);
  cs::sim::Rng rng(seed, "perfbench-rpc-incast");
  const SimTime phase =
      kStart + static_cast<SimTime>(rng.uniform() *
                                    static_cast<double>(kWavePeriod));
  apps::ArrivalSpec waves;
  waves.process = apps::ArrivalSpec::Process::kIncast;
  waves.incast_period = kWavePeriod;
  apps::ArrivalSpec background;
  background.process = apps::ArrivalSpec::Process::kPoisson;
  background.rate_per_s = kBackgroundRate;
  background.start = kStart;
  for (int c = 0; c < kClients; ++c) {
    waves.start = phase + static_cast<SimTime>(
                              rng.uniform() * static_cast<double>(kMaxSkew));
    auto a = apps::arrival_times(waves, kWaves, seed, c);
    const auto b = apps::arrival_times(background, kBackground, mix(seed), c);
    a.insert(a.end(), b.begin(), b.end());
    std::sort(a.begin(), a.end());
    for (std::size_t k = 1; k < a.size(); ++k) {
      if (a[k] <= a[k - 1]) a[k] = a[k - 1] + 1;
    }
    out[static_cast<std::size_t>(c)] = std::move(a);
  }
  return out;
}

int node_of(int client) { return 1 + client % kClientNodes; }

void put_u32(std::vector<std::byte>& v, std::size_t off, std::uint32_t x) {
  for (int i = 0; i < 4; ++i) {
    v[off + static_cast<std::size_t>(i)] =
        static_cast<std::byte>((x >> (8 * i)) & 0xff);
  }
}

std::uint32_t get_u32(std::span<const std::byte> d, std::size_t off) {
  std::uint32_t x = 0;
  for (int i = 0; i < 4; ++i) {
    x |= std::to_integer<std::uint32_t>(d[off + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  return x;
}

// 16-byte wire header: client, seq, total message bytes.
cs::net::Buffer message(std::int64_t size, const Pending& p) {
  std::vector<std::byte> bytes(static_cast<std::size_t>(size));
  put_u32(bytes, 0, p.client);
  put_u32(bytes, 4, p.seq);
  put_u32(bytes, 8, static_cast<std::uint32_t>(size));
  return cs::net::Buffer::bytes(std::move(bytes));
}

Pending parse(std::span<const std::byte> d) {
  return {get_u32(d, 0), get_u32(d, 4)};
}

// Records one reply; malformed or duplicate replies are counted, not
// trusted.
void on_reply(Book& book, sim::Simulator& s, std::span<const std::byte> d,
              std::int64_t size) {
  const Pending p = parse(d);
  if (p.client >= kClients || p.seq >= kRequestsPerClient ||
      size != kResponseBytes ||
      get_u32(d, 8) != static_cast<std::uint32_t>(kResponseBytes) ||
      book.latency[p.client][p.seq] >= 0) {
    ++book.bad_replies;
    return;
  }
  book.latency[p.client][p.seq] = s.now() - book.arrival[p.client][p.seq];
  book.stamp(book.replied, p, s.now());
}

sim::Task feeder(sim::Simulator& s, const std::vector<SimTime>& times,
                 std::uint32_t client, sim::Mailbox<Pending>& mbox) {
  for (std::uint32_t k = 0; k < times.size(); ++k) {
    if (times[k] > s.now()) co_await sim::Delay{s, times[k] - s.now()};
    mbox.push({client, k});
  }
}

constexpr std::uint64_t kPerNode =
    static_cast<std::uint64_t>(kClientsPerNode) * kRequestsPerClient;

// --- CLIC ----------------------------------------------------------------------

sim::Task clic_server(cs::clic::Port& port, std::uint64_t total) {
  for (std::uint64_t i = 0; i < total; ++i) {
    cs::clic::Message m = co_await port.recv();
    const Pending p = parse(m.data.data());
    (void)co_await port.send_async(m.src_node, m.src_port,
                                   message(kResponseBytes, p));
  }
}

sim::Task clic_writer(sim::Simulator& s, cs::clic::Port& port,
                      sim::Mailbox<Pending>& mbox, Book& book) {
  for (std::uint64_t i = 0; i < kPerNode; ++i) {
    const Pending p = co_await mbox.pop();
    book.stamp(book.issued, p, s.now());
    (void)co_await port.send(0, kServerPort, message(kRequestBytes, p));
    book.stamp(book.sent, p, s.now());
  }
}

sim::Task clic_reader(sim::Simulator& s, cs::clic::Port& port, Book& book) {
  for (std::uint64_t i = 0; i < kPerNode; ++i) {
    cs::clic::Message m = co_await port.recv();
    on_reply(book, s, m.data.data(), m.data.size());
  }
}

// --- TCP -----------------------------------------------------------------------

sim::Task tcp_server_conn(cs::tcpip::TcpStack& stack,
                          std::vector<cs::tcpip::TcpSocket*>& sockets) {
  cs::tcpip::TcpSocket* sock = co_await stack.accept(kTcpPort);
  sockets.push_back(sock);
  for (std::uint64_t i = 0; i < kPerNode; ++i) {
    cs::net::Buffer req = co_await sock->recv_exact(kRequestBytes);
    if (req.size() < kRequestBytes) co_return;
    (void)co_await sock->send(message(kResponseBytes, parse(req.data())));
  }
}

sim::Task tcp_reader(sim::Simulator& s, cs::tcpip::TcpSocket& sock,
                     Book& book) {
  for (std::uint64_t i = 0; i < kPerNode; ++i) {
    cs::net::Buffer rsp = co_await sock.recv_exact(kResponseBytes);
    if (rsp.size() < kHeaderBytes) co_return;
    on_reply(book, s, rsp.data(), rsp.size());
  }
}

sim::Task tcp_client(sim::Simulator& s, cs::tcpip::TcpSocket& sock,
                     sim::Mailbox<Pending>& mbox, Book& book) {
  if (!co_await sock.connect(0, kTcpPort)) co_return;
  tcp_reader(s, sock, book);
  for (std::uint64_t i = 0; i < kPerNode; ++i) {
    const Pending p = co_await mbox.pop();
    book.stamp(book.issued, p, s.now());
    (void)co_await sock.send(message(kRequestBytes, p));
    book.stamp(book.sent, p, s.now());
  }
}

// --- One stack -------------------------------------------------------------------

struct StackResult {
  sim::HdrHistogram latency{3};
  sim::HdrHistogram queue{3}, send{3}, reply{3};
};

void run_stack(const char* name, const std::vector<std::vector<SimTime>>& arr,
               PassResult& out, Trace* trace, Digest& d, StackResult& r) {
  const bool is_tcp = std::strcmp(name, "tcp") == 0;
  apps::Scenario sc;
  sc.cluster.nodes = kClientNodes + 1;
  sc.clic = std::strcmp(name, "clic-a") == 0 ? apps::adaptive_clic_config()
                                              : apps::paper_clic_config();
  Counters& c = out.stacks[name];
  const std::uint64_t mints = shared_mints_now();
  const std::uint64_t copies = unpooled_copies_now();

  Book book;
  book.traced = trace != nullptr;
  std::unique_ptr<apps::ClicBed> clic_bed;
  std::unique_ptr<apps::TcpBed> tcp_bed;
  std::vector<std::unique_ptr<cs::clic::Port>> ports;
  std::vector<std::unique_ptr<sim::Mailbox<Pending>>> mboxes;
  std::vector<cs::tcpip::TcpSocket*> sockets;
  apps::BedCore* core = nullptr;
  {
    Phase p(out.host.build_s, trace, "build");
    if (is_tcp) {
      tcp_bed = std::make_unique<apps::TcpBed>(sc.cluster, sc.tcp);
      core = tcp_bed.get();
      tcp_bed->tcp[0]->listen(kTcpPort);
    } else {
      clic_bed = std::make_unique<apps::ClicBed>(sc.cluster, sc.clic);
      core = clic_bed.get();
      ports.push_back(
          std::make_unique<cs::clic::Port>(clic_bed->module(0), kServerPort));
      for (int n = 1; n <= kClientNodes; ++n) {
        ports.push_back(
            std::make_unique<cs::clic::Port>(clic_bed->module(n), kClientPort));
      }
    }
    core->cluster.set_mtu_all(9000);
    for (int n = 1; n <= kClientNodes; ++n) {
      mboxes.push_back(std::make_unique<sim::Mailbox<Pending>>(core->sim_of(n)));
    }
  }
  {
    Phase p(out.host.arrivals_s, trace, "arrival_times");
    book.arrival = arr;
    book.latency.assign(kClients,
                        std::vector<SimTime>(kRequestsPerClient, -1));
    if (book.traced) {
      book.issued = book.latency;
      book.sent = book.latency;
      book.replied = book.latency;
    }
  }
  {
    const double t0 = host_now_s();
    Phase p(out.host.run_s, trace, "run");
    if (is_tcp) {
      for (int n = 1; n <= kClientNodes; ++n) {
        tcp_server_conn(*tcp_bed->tcp[0], sockets);
        auto* sock = &tcp_bed->tcp[static_cast<std::size_t>(n)]->create_socket();
        sockets.push_back(sock);
        auto* mb = mboxes[static_cast<std::size_t>(n - 1)].get();
        sim::Simulator& s = core->sim_of(n);
        s.at(0, [&s, sock, mb, &book] { tcp_client(s, *sock, *mb, book); });
      }
    } else {
      clic_server(*ports[0], kPerNode * kClientNodes);
      for (int n = 1; n <= kClientNodes; ++n) {
        auto& port = *ports[static_cast<std::size_t>(n)];
        clic_writer(core->sim_of(n), port,
                    *mboxes[static_cast<std::size_t>(n - 1)], book);
        clic_reader(core->sim_of(n), port, book);
      }
    }
    for (int cl = 0; cl < kClients; ++cl) {
      const int n = node_of(cl);
      feeder(core->sim_of(n), book.arrival[static_cast<std::size_t>(cl)],
             static_cast<std::uint32_t>(cl),
             *mboxes[static_cast<std::size_t>(n - 1)]);
    }
    core->run();
    out.run_s_by_stack[name] += host_now_s() - t0;
  }
  {
    Phase p(out.host.collect_s, trace, "collect");
    absorb_core(c, *core, mints, copies);
    if (is_tcp) {
      absorb_tcp(c, *tcp_bed);
      for (const auto* s : sockets) c.tcp_retransmits += s->retransmits();
    } else {
      absorb_clic(c, *clic_bed);
    }
    const int track = trace != nullptr ? trace->track(std::string("rpc-incast ") + name) : 0;
    for (int cl = 0; cl < kClients; ++cl) {
      for (int k = 0; k < kRequestsPerClient; ++k) {
        const SimTime lat = book.latency[static_cast<std::size_t>(cl)]
                                        [static_cast<std::size_t>(k)];
        d.add(static_cast<std::uint64_t>(cl));
        d.add(static_cast<std::uint64_t>(k));
        d.add_signed(lat);
        ++out.attempted;
        if (lat < 0) {
          ++out.failed;
          continue;
        }
        c.payload_bytes += kRequestBytes + kResponseBytes;
        r.latency.add(lat);
        if (!book.traced) continue;
        const auto ci = static_cast<std::size_t>(cl);
        const auto ki = static_cast<std::size_t>(k);
        const SimTime due = book.arrival[ci][ki];
        const SimTime issued = book.issued[ci][ki];
        const SimTime sent = book.sent[ci][ki];
        const SimTime replied = book.replied[ci][ki];
        r.queue.add(issued - due);
        r.send.add(sent - issued);
        r.reply.add(replied - sent);
        const std::uint64_t id =
            static_cast<std::uint64_t>(cl) * kRequestsPerClient +
            static_cast<std::uint64_t>(k);
        trace->sim_span(track, node_of(cl), "queue", due, issued, id);
        trace->sim_span(track, node_of(cl), "send", issued, sent, id);
        trace->sim_span(track, node_of(cl), "reply", sent, replied, id);
      }
    }
    out.check(book.bad_replies == 0,
              std::string("rpc-incast ") + name + ": malformed or duplicate replies");
  }
  {
    Phase p(out.host.teardown_s, trace, "teardown");
    ports.clear();
    mboxes.clear();
    clic_bed.reset();
    tcp_bed.reset();
  }
}

double us(std::int64_t ns) { return static_cast<double>(ns) / 1e3; }

}  // namespace

PassResult rpc_incast(const PassOptions& opt, Trace* trace) {
  PassResult out;
  std::vector<std::vector<SimTime>> arrivals;
  {
    Phase p(out.host.arrivals_s, trace, "arrival_times");
    arrivals = make_arrivals(opt.seed);
  }
  Digest d;
  StackResult all;
  for (const char* name : {"clic", "clic-a", "tcp"}) {
    StackResult r;
    run_stack(name, arrivals, out, trace, d, r);
    const std::string s = name;
    out.check(r.latency.count() > 0 &&
                  r.latency.quantile(0.5) <= r.latency.quantile(0.99) &&
                  r.latency.quantile(0.99) <= r.latency.max(),
              "rpc-incast " + s + ": p50 <= p99 <= max");
    const std::string p50 = s == "clic" ? "clic.p50_us" : "p50_us." + s;
    const std::string p99 = s == "clic" ? "clic.p99_us" : "p99_us." + s;
    out.sim[p50] = {us(r.latency.quantile(0.5)), "us", false};
    out.sim[p99] = {us(r.latency.quantile(0.99)), "us", false};
    out.samples[p50] = r.latency.count();
    out.samples[p99] = r.latency.count();
    if (trace != nullptr) {
      const std::pair<const char*, const sim::HdrHistogram*> stages[] = {
          {"apps.queue_us.p99", &r.queue},
          {"apps.send_us.p99", &r.send},
          {"apps.reply_us.p99", &r.reply}};
      for (const auto& [metric, h] : stages) {
        out.sim[std::string(metric) + "." + s] = {us(h->quantile(0.99)), "us",
                                                  false};
        out.samples[std::string(metric) + "." + s] = h->count();
      }
      all.queue.merge(r.queue);
      all.send.merge(r.send);
      all.reply.merge(r.reply);
    }
  }
  if (trace != nullptr) {
    out.sim["apps.queue_us.p99"] = {us(all.queue.quantile(0.99)), "us", false};
    out.sim["apps.send_us.p99"] = {us(all.send.quantile(0.99)), "us", false};
    out.sim["apps.reply_us.p99"] = {us(all.reply.quantile(0.99)), "us", false};
    out.samples["apps.queue_us.p99"] = all.queue.count();
  }
  out.check(out.failed == 0, "rpc-incast: every request answered");
  for (const auto& [name, c] : out.stacks) c.digest_into(d);
  out.digest = d.h;
  return out;
}

}  // namespace perfbench

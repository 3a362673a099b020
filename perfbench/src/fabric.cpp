// fabric-collectives: closed loop. 1024 MPI ranks on a 2-level fat-tree
// run barrier, bcast and allreduce (1 KB) over CLIC host trees (clic-host)
// and over the NIC-resident collective engines (clic-nic), on
// PassOptions::shards PDES shards. Each collective starts on every rank at
// a common gate and takes until the last rank completes.
//
// The seed picks the bcast root and the payload contents.
#include <algorithm>
#include <memory>

#include "harness.hpp"
#include "sim/task.hpp"

namespace perfbench {
namespace {

namespace apps = cs::apps;
namespace sim = cs::sim;

constexpr int kRanks = 1024;
constexpr std::int64_t kBytes = 1024;

struct Slot {
  SimTime done = -1;
  bool ok = false;  // payload check passed on this rank
};

sim::Task barrier_rank(cs::mpi::Communicator& comm, sim::Simulator& s,
                       Slot* slot) {
  slot->ok = co_await comm.barrier();
  slot->done = s.now();
}

sim::Task bcast_rank(cs::mpi::Communicator& comm, sim::Simulator& s, int root,
                     std::uint64_t pattern, std::uint64_t expect, Slot* slot) {
  // Minted on the rank's own shard (and pool); only the root's carries data.
  cs::net::Buffer data = comm.rank() == root
                             ? cs::net::Buffer::pattern(kBytes, pattern)
                             : cs::net::Buffer::zeros(0);
  const cs::net::Buffer got = co_await comm.bcast(root, std::move(data));
  slot->ok = got.size() == kBytes && got.checksum() == expect;
  slot->done = s.now();
}

sim::Task allreduce_rank(cs::mpi::Communicator& comm, sim::Simulator& s,
                         std::uint64_t pattern, Slot* slot) {
  const cs::net::Buffer got = co_await comm.allreduce_sum(
      cs::net::Buffer::pattern(kBytes, pattern + static_cast<std::uint64_t>(comm.rank())));
  slot->ok = got.size() == kBytes;
  slot->done = s.now();
}

struct OpResult {
  SimTime latency = -1;  // gate -> last rank
  SimTime spread = 0;    // first -> last rank completion
  int incomplete = 0;
};

template <typename Start>
OpResult run_op(apps::MpiClicBed& bed, const char* op, int track,
                Trace* trace, Digest& d, Start start) {
  std::vector<Slot> slots(kRanks);
  const SimTime gate = bed.now() + 1'000'000;  // 1 ms
  for (int r = 0; r < kRanks; ++r) {
    Slot* slot = &slots[static_cast<std::size_t>(r)];
    bed.sim_of(r).at(gate, [&bed, r, slot, start] { start(bed, r, slot); });
  }
  bed.run();
  OpResult res;
  SimTime first = -1;
  SimTime last = -1;
  for (int r = 0; r < kRanks; ++r) {
    const Slot& s = slots[static_cast<std::size_t>(r)];
    d.add_signed(s.done);
    if (s.done < 0 || !s.ok) {
      ++res.incomplete;
      continue;
    }
    first = first < 0 ? s.done : std::min(first, s.done);
    last = std::max(last, s.done);
    if (trace != nullptr) {
      trace->sim_span(track, r, op, gate, s.done, static_cast<std::uint64_t>(r));
    }
  }
  if (res.incomplete == 0) {
    res.latency = last - gate;
    res.spread = last - first;
  }
  return res;
}

struct Contender {
  const char* name;
  bool nic;
};

}  // namespace

PassResult fabric_collectives(const PassOptions& opt, Trace* trace) {
  PassResult out;
  Digest d;
  const int root = static_cast<int>(mix(opt.seed) % kRanks);
  const std::uint64_t pattern = mix(opt.seed ^ 0xC011ull);
  const std::uint64_t expect = cs::net::Buffer::pattern(kBytes, pattern).checksum();

  for (const Contender& ct : {Contender{"clic-host", false},
                              Contender{"clic-nic", true}}) {
    Counters& c = out.stacks[ct.name];
    const std::uint64_t mints = shared_mints_now();
    const std::uint64_t copies = unpooled_copies_now();
    std::unique_ptr<apps::MpiClicBed> bed;
    {
      Phase p(out.host.build_s, trace, "build");
      cs::os::ClusterConfig cc;
      cc.nodes = kRanks;
      cc.shards = opt.shards;
      cc.topology = cs::os::TopologySpec::fat_tree();
      cs::mpi::Config mc;
      // Host trees, not CLIC's unreliable Ethernet broadcast (as in
      // bench/collective_scale).
      mc.use_native_bcast = false;
      bed = std::make_unique<apps::MpiClicBed>(cc, cs::clic::Config{}, mc,
                                               ct.nic);
    }
    const int track =
        trace != nullptr ? trace->track(std::string("fabric ") + ct.name) : 0;
    OpResult ops[3];
    {
      const double t0 = host_now_s();
      Phase p(out.host.run_s, trace, "run");
      ops[0] = run_op(*bed, "barrier", track, trace, d,
                      [](apps::MpiClicBed& b, int r, Slot* s) {
                        barrier_rank(b.comm(r), b.sim_of(r), s);
                      });
      ops[1] = run_op(*bed, "bcast", track, trace, d,
                      [root, pattern, expect](apps::MpiClicBed& b, int r,
                                              Slot* s) {
                        bcast_rank(b.comm(r), b.sim_of(r), root, pattern,
                                   expect, s);
                      });
      ops[2] = run_op(*bed, "allreduce", track, trace, d,
                      [pattern](apps::MpiClicBed& b, int r, Slot* s) {
                        allreduce_rank(b.comm(r), b.sim_of(r), pattern, s);
                      });
      out.run_s_by_stack[ct.name] += host_now_s() - t0;
    }
    {
      Phase p(out.host.collect_s, trace, "collect");
      absorb_core(c, bed->bed, mints, copies);
      absorb_clic(c, bed->bed);
      for (int r = 0; r < kRanks; ++r) {
        auto& comm = bed->comm(r);
        c.mpi_messages += comm.messages_sent();
        c.mpi_unexpected += comm.unexpected_messages();
        c.mpi_rendezvous += comm.rendezvous_sends();
      }
      for (const auto& e : bed->engines) {
        c.niccoll_frames += e->frames_sent();
        c.niccoll_combines += e->combines();
      }
      SimTime total = 0;
      SimTime spread = 0;
      for (const OpResult& op : ops) {
        out.attempted += kRanks;
        out.failed += static_cast<std::uint64_t>(op.incomplete);
        total += std::max<SimTime>(op.latency, 0);
        spread += op.spread;
      }
      // Payload each collective delivers: bcast and allreduce hand every
      // non-root rank kBytes.
      c.payload_bytes += 2 * static_cast<std::uint64_t>(kRanks - 1) * kBytes;
      const std::string coll = std::string("coll_us.") + ct.name;
      out.sim[coll] = {cs::sim::to_us(total), "us", false};
      out.samples[coll] = 3 * kRanks;
      if (!ct.nic) {
        out.sim["apps.rank_spread_us"] = {cs::sim::to_us(spread), "us", false};
      }
    }
    {
      Phase p(out.host.teardown_s, trace, "teardown");
      bed.reset();
    }
  }
  out.check(out.failed == 0,
            "fabric-collectives: every rank completes every collective");
  for (const auto& [name, c] : out.stacks) c.digest_into(d);
  out.digest = d.h;
  return out;
}

}  // namespace perfbench

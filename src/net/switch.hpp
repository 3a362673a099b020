// Store-and-forward Ethernet switch.
//
// MAC learning on ingress; unicast frames forward to the learned port or
// flood when unknown; broadcast/multicast frames flood every port except the
// ingress. Output queues are bounded in frames (tail drop), matching the
// "finite buffering capabilities" the paper cites as a reason applications
// need a reliability layer.
//
// The MAC table is dense for the cluster's own NICs: after
// size_station_table(nodes, nics_per_node), the MacAddr::of_nic address of
// each of those NICs owns one int slot, so learning and lookup are one
// indexed store or load, and a 1024-node fabric costs 4 bytes per
// (switch, NIC) instead of a hash node. Any other unicast address (and
// every address on a switch whose table was never sized) lives in a hash
// map that stays empty, and allocates nothing, until such a frame appears.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/frame.hpp"
#include "net/link.hpp"
#include "sim/simulator.hpp"

namespace clicsim::net {

struct SwitchParams {
  sim::SimTime forwarding_latency = sim::microseconds(1.0);
  int output_queue_frames = 128;  // per-port bound, in frames
  // Cut-through forwarding: egress serialization overlaps ingress, so a
  // frame adds ~forwarding_latency instead of a full store-and-forward
  // serialization. Store-and-forward (false) verifies the FCS first.
  bool cut_through = true;
};

class Switch {
 public:
  Switch(sim::Simulator& sim, int ports, SwitchParams params,
         std::string name);

  // Wires switch port `port` to `link` end `link_end`. The other link end
  // belongs to a NIC (or another switch).
  void connect(int port, Link& link, int link_end);

  [[nodiscard]] int ports() const { return static_cast<int>(ports_.size()); }

  // Port kill/restore (fault orchestration): a downed port neither accepts
  // ingress frames nor forwards egress frames; both are counted.
  void set_port_up(int port, bool up) {
    ports_.at(static_cast<std::size_t>(port))->up = up;
  }
  [[nodiscard]] bool port_up(int port) const {
    return ports_.at(static_cast<std::size_t>(port))->up;
  }

  [[nodiscard]] std::uint64_t forwarded() const { return forwarded_; }
  [[nodiscard]] std::uint64_t flooded() const { return flooded_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  [[nodiscard]] std::uint64_t bad_fcs() const { return bad_fcs_; }
  [[nodiscard]] std::uint64_t port_down_drops() const {
    return port_down_drops_;
  }
  // Tail drops charged to one egress port (uplink congestion shows up here
  // long before the global dropped() counter tells you where).
  [[nodiscard]] std::uint64_t dropped_on(int port) const {
    return ports_.at(static_cast<std::size_t>(port))->drops;
  }

  // Flood pruning (the fabric's spanning tree): a port with flooding
  // disabled never receives flooded copies, but unicast frames with a
  // learned or static table entry still egress through it. The topology
  // builder disables non-tree inter-switch edges on both ends so a
  // broadcast reaches every node exactly once and can never loop.
  void set_flood_enabled(int port, bool enabled) {
    ports_.at(static_cast<std::size_t>(port))->flood = enabled;
  }
  [[nodiscard]] bool flood_enabled(int port) const {
    return ports_.at(static_cast<std::size_t>(port))->flood;
  }

  // Gives NICs 0..nics_per_node-1 of nodes 0..nodes-1 a dense table slot
  // each, all unknown (-1). Call before learning any of them.
  void size_station_table(int nodes, int nics_per_node);

  // The port a MAC was learned on; -1 when unknown.
  [[nodiscard]] int learned_port(const MacAddr& mac) const {
    const int slot = station_slot(mac);
    return slot >= 0 ? stations_[static_cast<std::size_t>(slot)]
                     : foreign_port(mac);
  }

  // Static table entry (equivalent to the gratuitous learning frames real
  // hosts emit at link-up; keeps rarely-transmitting NICs — e.g. the
  // secondary cards of a bonded pair — from causing unknown-unicast
  // flooding). Ingress learning writes the same entry.
  void learn(const MacAddr& mac, int port) {
    const int slot = station_slot(mac);
    if (slot >= 0) {
      stations_[static_cast<std::size_t>(slot)] = port;
    } else {
      foreign_[mac] = port;
    }
  }

 private:
  struct Port : FrameSink {
    Switch* owner = nullptr;
    int index = -1;
    Link* link = nullptr;
    int link_end = -1;
    int queued = 0;
    bool up = true;
    bool flood = true;
    std::uint64_t drops = 0;

    void frame_arrived(Frame frame) override;
  };

  // The dense slot of a cluster NIC address; -1 for any other address.
  [[nodiscard]] int station_slot(const MacAddr& mac) const {
    int node = 0;
    int nic = 0;
    if (!mac.nic_id(node, nic) || node >= station_nodes_ ||
        nic >= station_nics_) {
      return -1;
    }
    return node * station_nics_ + nic;
  }
  [[nodiscard]] int foreign_port(const MacAddr& mac) const;

  void ingress(int port, Frame frame);
  void flood_from(int port, Frame& frame);
  void egress(int port, const Frame& frame);

  sim::Simulator* sim_;
  SwitchParams params_;
  std::string name_;
  std::vector<std::unique_ptr<Port>> ports_;
  int station_nodes_ = 0;
  int station_nics_ = 0;
  std::vector<int> stations_;  // node * station_nics_ + nic -> port
  std::unordered_map<MacAddr, int, MacAddrHash> foreign_;
  std::uint64_t forwarded_ = 0;
  std::uint64_t flooded_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t bad_fcs_ = 0;
  std::uint64_t port_down_drops_ = 0;
};

}  // namespace clicsim::net

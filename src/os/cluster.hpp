// Topology builder: N nodes wired into the fabric a TopologySpec declares —
// one star switch (the legacy shape), a leaf-spine fabric, a ring of
// switches, or a 2-level fat-tree (see os/topology.hpp).
//
// Every NIC j of node i connects to node i's owning switch at port
// local_index(i)*nics_per_node + j (for the single star this is switch port
// i*nics_per_node + j). MAC addresses encode (node, nic) and every switch
// is pre-loaded with static routes for every NIC — multi-hop unicast works
// from t=0 with no unknown-unicast flood storm. Inter-switch trunks carry a
// spanning-tree flag: non-tree edges have flooding disabled on both end
// ports, so broadcasts reach every node exactly once and cannot loop.
//
// Sharded builds (`shards` > 1 through the ShardGroup constructor): a
// node-bearing switch co-resides on the shard of its node group, so
// leaf-local traffic never crosses a shard boundary — only trunk frames pay
// the mailbox + Frame::detach hop. Spine switches (trunk-only) live on
// shard 0. The legacy single star keeps its PR 5 placement: switch on shard
// 0, nodes spread contiguously over shards 1..K-1. Every cross-shard link
// (node-to-switch or trunk) is declared as a PDES channel with lookahead =
// delivery floor + propagation, validated positive at build time.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "hw/params.hpp"
#include "net/link.hpp"
#include "net/switch.hpp"
#include "os/node.hpp"
#include "os/topology.hpp"
#include "sim/shard.hpp"
#include "sim/simulator.hpp"

namespace clicsim::os {

struct ClusterConfig {
  int nodes = 2;
  int nics_per_node = 1;
  // Worker shards for intra-scenario PDES (1 = classic single-threaded
  // run). Only honoured by the ShardGroup constructor; testbeds clamp it
  // to [1, nodes + switches].
  int shards = 1;
  TopologySpec topology;
  hw::HostParams host;
  hw::PciParams pci;
  hw::NicProfile nic = hw::NicProfile::smc9462();
  net::LinkParams link;
  net::SwitchParams sw;
};

class Cluster {
 public:
  Cluster(sim::Simulator& sim, ClusterConfig config);

  // Sharded topology: group.shards() must equal 1 (equivalent to the
  // plain constructor) or be >= 2, in which case switches and nodes are
  // placed as described in the file comment.
  Cluster(sim::ShardGroup& group, ClusterConfig config);

  [[nodiscard]] int size() const { return static_cast<int>(nodes_.size()); }
  [[nodiscard]] Node& node(int i) { return *nodes_.at(i); }
  [[nodiscard]] const TopologyPlan& topology() const { return *plan_; }

  // Switch access. ethernet_switch() is the single star switch (id 0) —
  // still the right handle for legacy single-switch scenarios.
  [[nodiscard]] int switch_count() const {
    return static_cast<int>(switches_.size());
  }
  [[nodiscard]] net::Switch& switch_at(int s) {
    return *switches_.at(static_cast<std::size_t>(s));
  }
  [[nodiscard]] net::Switch& ethernet_switch() { return *switches_.at(0); }
  [[nodiscard]] net::Switch& switch_of_node(int i) {
    return switch_at(plan_->leaf_of_node(i));
  }

  [[nodiscard]] net::Link& link(int node, int nic = 0) {
    return *links_.at(static_cast<std::size_t>(
        node * config_.nics_per_node + nic));
  }
  // Inter-switch trunk cables, in TopologyPlan::trunks() order.
  [[nodiscard]] int trunk_count() const {
    return static_cast<int>(trunk_links_.size());
  }
  [[nodiscard]] net::Link& trunk_link(int t) {
    return *trunk_links_.at(static_cast<std::size_t>(t));
  }

  [[nodiscard]] const ClusterConfig& config() const { return config_; }

  // Shard placement (all zero for non-sharded clusters).
  [[nodiscard]] int shard_of_node(int i) const {
    return node_shards_.at(static_cast<std::size_t>(i));
  }
  [[nodiscard]] int shard_of_switch(int s) const {
    return switch_shards_.at(static_cast<std::size_t>(s));
  }
  [[nodiscard]] int switch_shard() const { return shard_of_switch(0); }
  [[nodiscard]] sim::Simulator& sim_of_node(int i) {
    return nodes_.at(static_cast<std::size_t>(i))->sim();
  }
  [[nodiscard]] sim::Simulator& sim_of_switch(int s) {
    return group_ != nullptr ? group_->shard(shard_of_switch(s)) : *sim_;
  }
  // The simulator that owns switch 0 (the home simulator for the star).
  [[nodiscard]] sim::Simulator& switch_sim() { return sim_of_switch(0); }

  [[nodiscard]] static net::MacAddr mac_of(int node, int nic = 0) {
    return net::MacAddr::of_nic(node, nic);
  }

  // Sets the MTU on every NIC in the cluster (jumbo on/off sweeps).
  void set_mtu_all(std::int64_t mtu);

  // Adjusts interrupt coalescing on every NIC.
  void set_coalescing_all(sim::SimTime usecs, int frames);

 private:
  void build(sim::Simulator& home);

  sim::Simulator* sim_;
  sim::ShardGroup* group_ = nullptr;
  ClusterConfig config_;
  std::optional<TopologyPlan> plan_;
  std::vector<int> node_shards_;
  std::vector<int> switch_shards_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<net::Link>> links_;
  std::vector<std::unique_ptr<net::Link>> trunk_links_;
  std::vector<std::unique_ptr<net::Switch>> switches_;
};

}  // namespace clicsim::os

// CLIC_MODULE: the kernel-resident protocol engine (section 3.1).
//
// Send: a system call enters the kernel; the module builds the 12-byte CLIC
// header over a level-1 Ethernet header, segments the message to the wire
// MTU, and hands SK_BUFF-equivalents to the *unmodified* driver. Data moves
// by one of the four paths of Figure 1 (path 2 — scatter/gather DMA from
// user memory, "0-copy" — is the Gigabit default; path 4 is the Fast
// Ethernet heritage). If the card's ring is full the module stages the data
// in system memory and the driver sends it later, exactly as described.
//
// Receive: the driver's ISR + bottom half hand packets up; the module
// ack-processes them on the per-peer reliable channel, reassembles
// messages, and either copies straight into the memory of a process blocked
// in recv (then wakes it through the scheduler) or leaves the packet in
// system memory until a receive arrives. Remote writes land in registered
// regions without any receive call. Intra-node messages short-circuit
// through kernel memory — a capability the paper contrasts against
// user-level interfaces that cannot address local processes.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <unordered_map>

#include "clic/channel.hpp"
#include "clic/config.hpp"
#include "clic/header.hpp"
#include "net/buffer.hpp"
#include "os/address.hpp"
#include "os/driver.hpp"
#include "os/node.hpp"
#include "sim/task.hpp"

namespace clicsim::clic {

struct Message {
  int src_node = -1;
  std::uint8_t src_port = 0;
  std::uint8_t dst_port = 0;
  PacketType type = PacketType::kUser;
  net::HeaderBlob meta;  // upper-layer header (e.g. an MPI envelope)
  net::Buffer data;
};

enum class SendMode {
  kAsync,      // returns once the message is queued in the kernel
  kSync,       // returns when every packet's DMA descriptor completed
  kConfirmed,  // returns when the peer acknowledged reception
};

// Why a send resolved the way it did. kTimedOut is the bounded-failure
// outcome: the reliable channel exhausted its retry budget (peer down,
// black-holed path) and abandoned the message instead of hanging forever.
enum class SendError : std::uint8_t {
  kNone = 0,
  kTimedOut = 1,  // retry budget exhausted, message abandoned
};

struct SendStatus {
  bool ok = true;
  SendError error = SendError::kNone;
};

class ClicModule : public os::ProtocolHandler, private ChannelOps {
 public:
  ClicModule(os::Node& node, Config config, const os::AddressMap& addresses);
  ~ClicModule() override;

  ClicModule(const ClicModule&) = delete;
  ClicModule& operator=(const ClicModule&) = delete;

  // --- User primitives (each entered through a system call) ---------------

  void bind_port(int port);

  // Closes a port: queued messages are discarded and later traffic to the
  // port is dropped (the protection behaviour); blocked receivers complete
  // with an empty message from src_node -1.
  void unbind_port(int port);

  [[nodiscard]] sim::Future<SendStatus> send(
      int src_port, int dst_node, int dst_port, net::Buffer data,
      SendMode mode = SendMode::kSync, PacketType type = PacketType::kUser,
      net::HeaderBlob meta = {});

  [[nodiscard]] sim::Future<Message> recv(int port);

  // Non-blocking receive probe (the "module does nothing and returns" path).
  [[nodiscard]] bool poll(int port) const;

  // Ethernet broadcast/multicast datagram to `dst_port` on every node
  // (unreliable; upper layers add confirmation where needed).
  [[nodiscard]] sim::Future<SendStatus> broadcast(int src_port, int dst_port,
                                                  net::Buffer data,
                                                  net::HeaderBlob meta = {});

  // Ethernet multicast groups (section 5: CLIC exploits the data-link
  // layer's multicast capability): members join a group id; multicast()
  // sends one datagram that only member NICs accept.
  void join_group(int group_id);
  void leave_group(int group_id);
  [[nodiscard]] sim::Future<SendStatus> multicast(int group_id, int src_port,
                                                  int dst_port,
                                                  net::Buffer data,
                                                  net::HeaderBlob meta = {});

  // --- Remote write (asynchronous receive) --------------------------------

  void register_region(int region_id, std::int64_t capacity);
  [[nodiscard]] sim::Future<SendStatus> remote_write(
      int dst_node, int region_id, net::Buffer data,
      SendMode mode = SendMode::kConfirmed);
  [[nodiscard]] std::int64_t region_bytes(int region_id) const;
  [[nodiscard]] net::Buffer region_contents(int region_id) const;
  [[nodiscard]] sim::Trigger& region_trigger(int region_id);

  // --- Kernel-function packets ---------------------------------------------
  void register_kernel_fn(int fn_id, std::function<void(Message)> fn);

  // --- os::ProtocolHandler --------------------------------------------------
  void packet_received(net::Frame frame, bool from_isr) override;

  // --- Introspection ----------------------------------------------------------
  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] os::Node& node() { return *node_; }
  [[nodiscard]] Channel* channel_to(int peer);
  [[nodiscard]] std::uint64_t messages_sent() const { return messages_sent_; }
  [[nodiscard]] std::uint64_t messages_received() const {
    return messages_received_;
  }
  [[nodiscard]] std::int64_t bytes_sent() const { return bytes_sent_; }
  [[nodiscard]] std::int64_t bytes_received() const {
    return bytes_received_;
  }
  [[nodiscard]] std::uint64_t intra_node_messages() const {
    return intra_node_;
  }

  // Aggregate adaptive telemetry across every instantiated channel (all
  // zeros when Config::adaptive is off). Sums and min/max are
  // order-invariant, so the unordered channel map cannot perturb them.
  struct AdaptiveStats {
    std::uint64_t rtt_samples = 0;
    std::uint64_t window_collapses = 0;
    sim::SimTime srtt_max = 0;    // largest final smoothed RTT
    sim::SimTime rttvar_max = 0;  // largest final RTT variance
    int window_min = 0;           // smallest window any channel fell to
    int window_max = 0;           // largest window any channel opened
  };
  [[nodiscard]] AdaptiveStats adaptive_stats() const;

 private:
  struct PortState {
    std::deque<Message> ready;                  // in system memory
    std::deque<sim::Future<Message>> waiting;   // blocked receivers
  };

  struct Region {
    std::int64_t capacity = 0;
    net::BufferChain data;
    std::unique_ptr<sim::Trigger> trigger;
  };

  // One message on its way out. send() walks its fragments through the
  // module one at a time; a datagram emits them all at once. The message is
  // freed once its walk ended and every DMA or ack callback it handed out
  // came back.
  struct Outgoing {
    std::deque<Packet> packets;  // fragments still to walk
    int dst_node = -1;
    SendMode mode = SendMode::kAsync;
    sim::Future<SendStatus> result;
    int callbacks = 0;      // DMA or ack callbacks not yet fired
    bool walking = true;
    bool aborted = false;   // the channel gave up on a fragment
    bool finished = false;  // result already resolved
  };
  using OutgoingIt = std::list<Outgoing>::iterator;

  // ChannelOps
  void emit_data(int peer, Packet& packet) override;
  void emit_ack(int peer, const ClicHeader& header) override;
  void deliver(int peer, Packet packet) override;
  os::Kernel& kernel() override { return node_->kernel(); }

  sim::Simulator& sim() { return node_->sim(); }
  Channel& channel(int peer);
  PortState& port_state(int port);
  [[nodiscard]] std::int64_t chunk_bytes() const;

  // Splits `data` into wire-MTU fragments, numbered from 0; the first one
  // carries `meta`.
  [[nodiscard]] std::deque<Packet> segment(PacketType type, int src_port,
                                           int dst_port,
                                           const net::Buffer& data,
                                           const net::HeaderBlob& meta) const;

  // Prepares `packet`'s copy semantics (Figure 1) and returns the CPU time
  // the chosen TX path costs.
  [[nodiscard]] sim::SimTime prepare_packet_data(Packet& packet);

  void walk(OutgoingIt msg);
  void hand_to_channel(OutgoingIt msg);
  void settle(OutgoingIt msg);
  void resolve(Outgoing& msg, bool ok);

  sim::Future<SendStatus> datagram_to(net::MacAddr dst, int src_port,
                                      int dst_port, net::Buffer data,
                                      net::HeaderBlob meta);
  void send_intra_node(int src_port, int dst_port, net::Buffer data,
                       PacketType type, net::HeaderBlob meta,
                       sim::Future<SendStatus> result);
  void reassemble(int peer, const ClicHeader& header, net::HeaderBlob upper,
                  net::Buffer payload);
  void dispatch(Message message, sim::CpuPriority prio,
                std::shared_ptr<os::CopyChain> chain = nullptr,
                std::int64_t copied = 0);
  void complete_recv(sim::Future<Message> future, Message message,
                     sim::CpuPriority prio, bool wake_process,
                     std::shared_ptr<os::CopyChain> chain = nullptr,
                     std::int64_t copied = 0);

  os::Node* node_;
  Config config_;
  const os::AddressMap* addresses_;

  // A message being reassembled. When a process is already blocked in recv
  // on the destination port, each arriving packet's payload is copied to
  // user memory immediately (Figure 3: "_MODULE moves the data to the user
  // memory of that process"), so copies overlap later packets' DMA.
  struct Reassembly {
    net::BufferChain chain;
    net::HeaderBlob meta;  // upper header from the first fragment
    std::shared_ptr<os::CopyChain> copy;
    std::int64_t copied = 0;
  };

  std::unordered_map<int, std::unique_ptr<Channel>> channels_;
  std::unordered_map<int, PortState> ports_;
  std::unordered_map<std::uint64_t, Reassembly> reassembly_;
  std::unordered_map<int, Region> regions_;
  std::unordered_map<int, std::function<void(Message)>> kernel_fns_;
  std::list<Outgoing> outgoing_;

  int rr_nic_ = 0;
  sim::CpuPriority rx_prio_ = sim::CpuPriority::kSoftirq;

  std::uint64_t messages_sent_ = 0;
  std::uint64_t messages_received_ = 0;
  std::int64_t bytes_sent_ = 0;
  std::int64_t bytes_received_ = 0;
  std::uint64_t intra_node_ = 0;
};

}  // namespace clicsim::clic

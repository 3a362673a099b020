#include "clic/module.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "sim/log.hpp"

namespace clicsim::clic {

namespace {

// Reassembly key: one in-flight message per (peer, src_port, dst_port) —
// the module serializes each port pair's fragments on the in-order channel.
std::uint64_t reassembly_key(int peer, std::uint8_t src_port,
                             std::uint8_t dst_port, bool broadcast) {
  return (static_cast<std::uint64_t>(broadcast) << 40) |
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(peer))
          << 16) |
         (static_cast<std::uint64_t>(src_port) << 8) | dst_port;
}

}  // namespace

ClicModule::ClicModule(os::Node& node, Config config,
                       const os::AddressMap& addresses)
    : node_(&node), config_(config), addresses_(&addresses) {
  for (int i = 0; i < node_->nic_count(); ++i) {
    node_->driver(i).add_protocol(net::kEtherTypeClic, this);
    node_->driver(i).set_direct_dispatch(config_.direct_dispatch);
  }
}

ClicModule::~ClicModule() = default;

void ClicModule::bind_port(int port) { ports_[port]; }

void ClicModule::unbind_port(int port) {
  auto it = ports_.find(port);
  if (it == ports_.end()) return;
  auto waiting = std::move(it->second.waiting);
  ports_.erase(it);
  for (auto& future : waiting) {
    Message closed;
    closed.src_node = -1;
    future.set(std::move(closed));
  }
}

bool ClicModule::poll(int port) const {
  auto it = ports_.find(port);
  return it != ports_.end() && !it->second.ready.empty();
}

ClicModule::PortState& ClicModule::port_state(int port) {
  auto it = ports_.find(port);
  if (it == ports_.end()) {
    throw std::logic_error("ClicModule: port not bound");
  }
  return it->second;
}

Channel& ClicModule::channel(int peer) {
  auto it = channels_.find(peer);
  if (it == channels_.end()) {
    // The ChannelOps base is private; the upcast is only accessible here.
    ChannelOps& ops = *this;
    it = channels_.emplace(peer, std::make_unique<Channel>(config_, ops, peer))
             .first;
  }
  return *it->second;
}

Channel* ClicModule::channel_to(int peer) {
  auto it = channels_.find(peer);
  return it == channels_.end() ? nullptr : it->second.get();
}

ClicModule::AdaptiveStats ClicModule::adaptive_stats() const {
  AdaptiveStats stats;
  bool first = true;
  for (const auto& [peer, ch] : channels_) {
    stats.rtt_samples += ch->rtt().samples();
    stats.window_collapses += ch->window_collapses();
    stats.srtt_max = std::max(stats.srtt_max, ch->rtt().srtt());
    stats.rttvar_max = std::max(stats.rttvar_max, ch->rtt().rttvar());
    if (first) {
      stats.window_min = ch->window_min();
      stats.window_max = ch->window_max();
      first = false;
    } else {
      stats.window_min = std::min(stats.window_min, ch->window_min());
      stats.window_max = std::max(stats.window_max, ch->window_max());
    }
  }
  return stats;
}

std::int64_t ClicModule::chunk_bytes() const {
  if (config_.use_nic_fragmentation &&
      node_->nic(0).profile().on_nic_fragmentation) {
    return config_.nic_frag_super_bytes - kClicHeaderBytes;
  }
  return node_->nic(0).mtu() - kClicHeaderBytes;
}

// --- Send path ---------------------------------------------------------------

std::deque<Packet> ClicModule::segment(PacketType type, int src_port,
                                       int dst_port, const net::Buffer& data,
                                       const net::HeaderBlob& meta) const {
  const std::int64_t chunk = chunk_bytes();
  std::deque<Packet> packets;
  std::int64_t offset = 0;
  do {
    // The upper-layer header rides on the first fragment and counts
    // against its payload budget.
    const bool first = packets.empty();
    const std::int64_t budget =
        first ? std::max<std::int64_t>(chunk - meta.wire_bytes(), 1) : chunk;
    const std::int64_t len = std::min(budget, data.size() - offset);
    Packet p;
    p.header.type = type;
    p.header.src_port = static_cast<std::uint8_t>(src_port);
    p.header.dst_port = static_cast<std::uint8_t>(dst_port);
    // Datagrams keep this number; the channel renumbers unicast fragments.
    p.header.seq = static_cast<std::uint32_t>(packets.size());
    if (first) {
      p.header.flags |= flags::kFirstFragment;
      p.upper = meta;
    }
    if (offset + len >= data.size()) p.header.flags |= flags::kLastFragment;
    p.payload = len > 0 ? data.slice(offset, len) : net::Buffer::zeros(0);
    packets.push_back(std::move(p));
    offset += len;
  } while (offset < data.size());
  return packets;
}

sim::Future<SendStatus> ClicModule::send(int src_port, int dst_node,
                                         int dst_port, net::Buffer data,
                                         SendMode mode, PacketType type,
                                         net::HeaderBlob meta) {
  sim::Future<SendStatus> result(sim());
  ++messages_sent_;
  bytes_sent_ += data.size();

  if (dst_node == node_->id()) {
    send_intra_node(src_port, dst_port, std::move(data), type,
                    std::move(meta), result);
    return result;
  }

  kernel().syscall([this, src_port, dst_node, dst_port,
                    data = std::move(data), mode, type,
                    meta = std::move(meta), result]() mutable {
    auto packets = segment(type, src_port, dst_port, data, meta);
    if (mode == SendMode::kConfirmed) {
      packets.back().header.flags |= flags::kAckRequested;
    }
    walk(outgoing_.insert(outgoing_.end(), Outgoing{std::move(packets),
                                                     dst_node, mode,
                                                     std::move(result)}));
  });
  return result;
}

// Per-fragment kernel processing: CLIC_MODULE header build + data-path
// preparation, then the fragment enters the reliable channel. Fragments are
// walked one at a time, so emission overlaps DMA of earlier ones.
void ClicModule::walk(OutgoingIt msg) {
  if (msg->aborted || msg->packets.empty()) {
    // The walk ends after the last fragment, or early once the channel
    // abandoned one (retry budget exhausted): submitting the rest would
    // hand the peer a message with a hole.
    msg->walking = false;
    settle(msg);
    return;
  }
  node_->cpu().run(sim::CpuPriority::kKernel, config_.module_tx_cost,
                   [this, msg] {
                     const sim::SimTime cost =
                         prepare_packet_data(msg->packets.front());
                     node_->cpu().run(sim::CpuPriority::kKernel, cost,
                                      [this, msg] { hand_to_channel(msg); });
                   });
}

void ClicModule::hand_to_channel(OutgoingIt msg) {
  Packet p = std::move(msg->packets.front());
  msg->packets.pop_front();
  Channel::SendCallback on_result;
  if (msg->mode == SendMode::kSync) {
    ++msg->callbacks;
    p.on_descriptor_done = [this, msg] {
      --msg->callbacks;
      settle(msg);
    };
  } else if (msg->mode == SendMode::kConfirmed) {
    // Every fragment reports back: the send succeeds once all are acked
    // (cumulative acks report the last fragment last), and any abandoned
    // fragment fails it at once and stops the rest of the walk.
    ++msg->callbacks;
    on_result = [this, msg](bool ok) {
      --msg->callbacks;
      if (!ok) {
        msg->aborted = true;
        if (!msg->finished) resolve(*msg, false);
      }
      settle(msg);
    };
  }
  channel(msg->dst_node).send(std::move(p), std::move(on_result));
  walk(msg);
}

// Resolves a message whose walk ended and whose callbacks all came back
// (async: at once; sync: after the last DMA; confirmed: on the last ack),
// then frees it.
void ClicModule::settle(OutgoingIt msg) {
  if (msg->walking || msg->callbacks > 0) return;
  if (!msg->finished) resolve(*msg, true);
  outgoing_.erase(msg);
}

void ClicModule::resolve(Outgoing& msg, bool ok) {
  msg.finished = true;
  kernel().syscall_return([result = msg.result, ok]() mutable {
    result.set(SendStatus{ok, ok ? SendError::kNone : SendError::kTimedOut});
  });
}

sim::SimTime ClicModule::prepare_packet_data(Packet& packet) {
  auto& cpu = node_->cpu();
  TxPath path = config_.tx_path;
  if (path == TxPath::kZeroCopy && !node_->nic(0).profile().scatter_gather) {
    path = TxPath::kOneCopy;  // card cannot DMA from scattered user pages
  }

  switch (path) {
    case TxPath::kZeroCopy:
      // Path 2: the SK_BUFF points at user memory; no CPU copy at all.
      packet.user_memory = true;
      packet.sg_fragments = 2;  // header block + user data
      return 0;

    case TxPath::kOneCopy: {
      // Path 3: one copy into a kernel buffer, DMA from there.
      const std::int64_t n = packet.payload.size();
      node_->mem().copy_pressure(n);
      packet.sg_fragments = 1;
      return cpu.copy_cost(n);
    }

    case TxPath::kTwoCopy: {
      // Path 4 (Fast Ethernet CLIC): kernel buffer plus a staging copy
      // towards the card's output buffer.
      const std::int64_t n = packet.payload.size();
      node_->mem().copy_pressure(n);
      node_->mem().copy_pressure(n);
      packet.sg_fragments = 1;
      return 2 * cpu.copy_cost(n);
    }

    case TxPath::kDirectPio: {
      // Path 1: the CPU itself pushes the bytes across PCI (programmed
      // I/O) — extremely slow per byte, which is why nobody uses it.
      packet.pio = true;
      const std::int64_t wire = packet.payload.size() + kClicHeaderBytes +
                                net::kEthHeaderBytes + net::kEthFcsBytes;
      const sim::SimTime pio_time =
          node_->pci().transaction_time(wire, /*efficiency=*/0.15);
      node_->pci().transfer(pio_time);
      return pio_time;
    }
  }
  return 0;
}

void ClicModule::emit_data(int peer, Packet& packet) {
  // Snapshot everything needed for the asynchronous emission; the stored
  // Packet in the channel keeps the authoritative copy for retransmission.
  const int nic_index =
      (!config_.channel_bonding || node_->nic_count() == 1)
          ? 0
          : (rr_nic_ = (rr_nic_ + 1) % node_->nic_count());

  const auto& peer_macs = addresses_->macs_of(peer);
  os::SkBuff skb;
  skb.dst = peer_macs[static_cast<std::size_t>(nic_index) % peer_macs.size()];
  skb.src = node_->mac(nic_index);
  skb.ethertype = net::kEtherTypeClic;
  skb.header = net::HeaderBlob::of(
      WireHeader{packet.header, packet.upper},
      kClicHeaderBytes + packet.upper.wire_bytes());
  skb.payload = packet.payload;
  skb.sg_fragments = packet.sg_fragments;
  skb.references_user_memory = packet.user_memory;

  auto on_done = packet.on_descriptor_done;
  const bool pio = packet.pio;

  node_->cpu().run(
      sim::CpuPriority::kKernel, config_.driver_tx_cost,
      [this, nic_index, skb = std::move(skb), on_done = std::move(on_done),
       pio]() mutable {
        auto& driver = node_->driver(nic_index);
        if (pio) {
          driver.nic().post_tx_pio(std::move(skb).to_frame());
          if (on_done) on_done();
          return;
        }
        if (driver.nic().tx_ring_full() && skb.references_user_memory) {
          // Ring full: the module stages the data in system memory so the
          // user buffer is released, and the driver sends it later
          // (section 3.1). The copy overlaps other packets' DMA.
          const std::int64_t n = skb.payload.size();
          node_->mem().copy_pressure(n);
          skb.references_user_memory = false;
          skb.sg_fragments = 1;
          node_->cpu().run(sim::CpuPriority::kKernel,
                           node_->cpu().copy_cost(n),
                           [this, nic_index, skb = std::move(skb),
                            on_done = std::move(on_done)]() mutable {
                             node_->driver(nic_index).xmit_or_queue(
                                 std::move(skb), std::move(on_done));
                           });
          return;
        }
        driver.xmit_or_queue(std::move(skb), std::move(on_done));
      });
}

void ClicModule::emit_ack(int peer, const ClicHeader& header) {
  os::SkBuff skb;
  skb.dst = addresses_->macs_of(peer)[0];
  skb.src = node_->mac(0);
  skb.ethertype = net::kEtherTypeClic;
  skb.header = net::HeaderBlob::of(WireHeader{header, {}}, kClicHeaderBytes);
  skb.payload = net::Buffer::zeros(0);

  // Pure acks are emitted inline from the receive context that owed them
  // (the bottom half), ahead of the remaining packet backlog.
  node_->cpu().run_next(rx_prio_, config_.ack_tx_cost,
                        [this, skb = std::move(skb)]() mutable {
                          node_->driver(0).xmit_or_queue(std::move(skb));
                        });
}

// --- Intra-node path ----------------------------------------------------------

void ClicModule::send_intra_node(int src_port, int dst_port,
                                 net::Buffer data, PacketType type,
                                 net::HeaderBlob meta,
                                 sim::Future<SendStatus> result) {
  ++intra_node_;
  kernel().syscall([this, src_port, dst_port, data = std::move(data), type,
                    meta = std::move(meta), result]() mutable {
    // One copy user -> system memory; the receive side copies system ->
    // user as with any queued message. No NIC involved.
    node_->cpu().run(sim::CpuPriority::kKernel, config_.module_tx_cost);
    node_->copy_data(sim::CpuPriority::kKernel, data.size(),
            [this, src_port, dst_port, data = std::move(data), type,
             meta = std::move(meta), result]() mutable {
              Message m;
              m.src_node = node_->id();
              m.src_port = static_cast<std::uint8_t>(src_port);
              m.dst_port = static_cast<std::uint8_t>(dst_port);
              m.type = type;
              m.meta = std::move(meta);
              m.data = std::move(data);
              ++messages_received_;
              bytes_received_ += m.data.size();
              dispatch(std::move(m), sim::CpuPriority::kKernel);
              kernel().syscall_return(
                  [result]() mutable { result.set({true}); });
            });
  });
}

// --- Broadcast ------------------------------------------------------------------

sim::Future<SendStatus> ClicModule::broadcast(int src_port, int dst_port,
                                              net::Buffer data,
                                              net::HeaderBlob meta) {
  return datagram_to(net::MacAddr::broadcast(), src_port, dst_port,
                     std::move(data), std::move(meta));
}

void ClicModule::join_group(int group_id) {
  for (int i = 0; i < node_->nic_count(); ++i) {
    node_->nic(i).join_multicast(
        net::MacAddr::multicast(static_cast<std::uint32_t>(group_id)));
  }
}

void ClicModule::leave_group(int group_id) {
  for (int i = 0; i < node_->nic_count(); ++i) {
    node_->nic(i).leave_multicast(
        net::MacAddr::multicast(static_cast<std::uint32_t>(group_id)));
  }
}

sim::Future<SendStatus> ClicModule::multicast(int group_id, int src_port,
                                              int dst_port, net::Buffer data,
                                              net::HeaderBlob meta) {
  return datagram_to(
      net::MacAddr::multicast(static_cast<std::uint32_t>(group_id)),
      src_port, dst_port, std::move(data), std::move(meta));
}

sim::Future<SendStatus> ClicModule::datagram_to(net::MacAddr dst,
                                                int src_port, int dst_port,
                                                net::Buffer data,
                                                net::HeaderBlob meta) {
  sim::Future<SendStatus> result(sim());
  ++messages_sent_;
  bytes_sent_ += data.size();

  kernel().syscall([this, dst, src_port, dst_port, data = std::move(data),
                    meta = std::move(meta), result]() mutable {
    auto packets =
        segment(PacketType::kBroadcast, src_port, dst_port, data, meta);
    // No channel and no walk: every fragment goes to the driver at once,
    // and the send completes when the last one's DMA does.
    const auto msg = outgoing_.insert(
        outgoing_.end(), Outgoing{{}, -1, SendMode::kSync, std::move(result)});
    msg->walking = false;
    msg->callbacks = static_cast<int>(packets.size());
    for (auto& p : packets) {
      os::SkBuff skb;
      skb.dst = dst;
      skb.src = node_->mac(0);
      skb.ethertype = net::kEtherTypeClic;
      skb.header = net::HeaderBlob::of(
          WireHeader{p.header, p.upper},
          kClicHeaderBytes + p.upper.wire_bytes());
      skb.payload = std::move(p.payload);
      skb.sg_fragments = node_->nic(0).profile().scatter_gather ? 2 : 1;

      node_->cpu().run(
          sim::CpuPriority::kKernel,
          config_.module_tx_cost + config_.driver_tx_cost,
          [this, msg, skb = std::move(skb)]() mutable {
            node_->driver(0).xmit_or_queue(std::move(skb), [this, msg] {
              --msg->callbacks;
              settle(msg);
            });
          });
    }
  });
  return result;
}

// --- Remote write ----------------------------------------------------------------

void ClicModule::register_region(int region_id, std::int64_t capacity) {
  auto& r = regions_[region_id];
  r.capacity = capacity;
  if (!r.trigger) r.trigger = std::make_unique<sim::Trigger>(sim());
}

sim::Future<SendStatus> ClicModule::remote_write(int dst_node, int region_id,
                                                 net::Buffer data,
                                                 SendMode mode) {
  return send(/*src_port=*/0, dst_node, /*dst_port=*/region_id,
              std::move(data), mode, PacketType::kRemoteWrite);
}

std::int64_t ClicModule::region_bytes(int region_id) const {
  auto it = regions_.find(region_id);
  return it == regions_.end() ? 0 : it->second.data.size();
}

net::Buffer ClicModule::region_contents(int region_id) const {
  auto it = regions_.find(region_id);
  if (it == regions_.end()) return net::Buffer::zeros(0);
  return it->second.data.flatten();
}

sim::Trigger& ClicModule::region_trigger(int region_id) {
  auto it = regions_.find(region_id);
  if (it == regions_.end()) {
    throw std::logic_error("ClicModule: region not registered");
  }
  return *it->second.trigger;
}

// --- Kernel functions ---------------------------------------------------------

void ClicModule::register_kernel_fn(int fn_id,
                                    std::function<void(Message)> fn) {
  kernel_fns_[fn_id] = std::move(fn);
}

// --- Receive path -----------------------------------------------------------------

void ClicModule::packet_received(net::Frame frame, bool from_isr) {
  const auto prio =
      from_isr ? sim::CpuPriority::kInterrupt : sim::CpuPriority::kSoftirq;
  const auto* wire = frame.header.get<WireHeader>();
  if (wire == nullptr) return;
  if (!addresses_->knows(frame.src)) return;
  const int peer = addresses_->node_of(frame.src);

  node_->cpu().run(prio, config_.module_rx_cost,
                   [this, peer, h = wire->clic, upper = wire->upper,
                    payload = std::move(frame.payload), prio]() mutable {
                     rx_prio_ = prio;
                     if (h.type == PacketType::kBroadcast) {
                       // Datagrams bypass the reliable channel.
                       reassemble(peer, h, std::move(upper),
                                  std::move(payload));
                       return;
                     }
                     channel(peer).packet_in(h, std::move(upper),
                                             std::move(payload));
                   });
}

void ClicModule::deliver(int peer, Packet packet) {
  reassemble(peer, packet.header, std::move(packet.upper),
             std::move(packet.payload));
}

void ClicModule::reassemble(int peer, const ClicHeader& header,
                            net::HeaderBlob upper, net::Buffer payload) {
  // Channel traffic arrives in order and complete, so its bytes count per
  // fragment; a datagram counts only once whole (nothing resends a lost
  // fragment).
  const bool reliable = header.type != PacketType::kBroadcast;
  const std::int64_t frag_bytes = payload.size();
  if (reliable) bytes_received_ += frag_bytes;
  const std::uint64_t key =
      reassembly_key(peer, header.src_port, header.dst_port, !reliable);
  auto& re = reassembly_[key];
  if (header.flags & flags::kFirstFragment) {
    re.chain.clear();
    re.meta = std::move(upper);
    re.copy.reset();
    re.copied = 0;
  }
  re.chain.append(std::move(payload));

  // If a process is already blocked in recv on this port, the module copies
  // each channel packet straight to its user memory as it arrives — the
  // copy then overlaps the DMA of later packets.
  const bool to_port = reliable && header.type != PacketType::kRemoteWrite &&
                       header.type != PacketType::kKernelFn;
  if (to_port && frag_bytes > 0) {
    auto pit = ports_.find(header.dst_port);
    if (pit != ports_.end() && !pit->second.waiting.empty()) {
      if (!re.copy) {
        re.copy = std::make_shared<os::CopyChain>(*node_, rx_prio_);
      }
      re.copy->add(frag_bytes);
      re.copied += frag_bytes;
    }
  }

  if (!(header.flags & flags::kLastFragment)) return;

  Message m;
  m.src_node = peer;
  m.src_port = header.src_port;
  m.dst_port = header.dst_port;
  m.type = header.type;
  m.meta = std::move(re.meta);
  m.data = re.chain.flatten();
  auto copy = std::move(re.copy);
  const std::int64_t copied = re.copied;
  reassembly_.erase(key);
  ++messages_received_;
  if (!reliable) bytes_received_ += m.data.size();
  dispatch(std::move(m), rx_prio_, std::move(copy), copied);
}

// --- Dispatch / receive ---------------------------------------------------------

void ClicModule::dispatch(Message message, sim::CpuPriority prio,
                          std::shared_ptr<os::CopyChain> chain,
                          std::int64_t copied) {
  if (message.type == PacketType::kRemoteWrite) {
    auto it = regions_.find(message.dst_port);
    if (it == regions_.end()) return;  // unregistered region: protection drop
    Region& region = it->second;
    if (region.data.size() + message.data.size() > region.capacity) return;

    // The module moves the data straight into the registered user region —
    // no receive call involved (step 7 of Figure 3).
    const int region_id = message.dst_port;
    node_->copy_data(
        prio, message.data.size(),
        [this, region_id, data = std::move(message.data)]() mutable {
          auto rit = regions_.find(region_id);
          if (rit == regions_.end()) return;
          rit->second.data.append(std::move(data));
          rit->second.trigger->fire();
        });
    return;
  }
  if (message.type == PacketType::kKernelFn) {
    auto it = kernel_fns_.find(message.dst_port);
    if (it != kernel_fns_.end()) it->second(std::move(message));
    return;
  }

  auto it = ports_.find(message.dst_port);
  if (it == ports_.end()) {
    CLICSIM_LOG(sim(), sim::LogLevel::kDebug, "clic")
        << "drop to unbound port " << int{message.dst_port};
    return;  // protection: nothing listens on this port
  }
  PortState& ps = it->second;
  if (!ps.waiting.empty()) {
    auto future = std::move(ps.waiting.front());
    ps.waiting.pop_front();
    complete_recv(std::move(future), std::move(message), prio,
                  /*wake_process=*/true, std::move(chain), copied);
    return;
  }
  // No receive posted: the packet stays in system memory until one arrives.
  ps.ready.push_back(std::move(message));
}

void ClicModule::complete_recv(sim::Future<Message> future, Message message,
                               sim::CpuPriority prio, bool wake_process,
                               std::shared_ptr<os::CopyChain> chain,
                               std::int64_t copied) {
  if (!chain) chain = std::make_shared<os::CopyChain>(*node_, prio);
  chain->add(message.data.size() - copied);
  chain->finish([this, chain, future = std::move(future),
                 message = std::move(message), wake_process]() mutable {
    auto& cpu = node_->cpu();
    if (wake_process) {
      cpu.run(sim::CpuPriority::kKernel, cpu.params().process_wakeup,
              [this, future = std::move(future),
               message = std::move(message)]() mutable {
                node_->cpu().run(sim::CpuPriority::kUser,
                                 node_->cpu().params().context_switch,
                                 [future = std::move(future),
                                  message = std::move(message)]() mutable {
                                   future.set(std::move(message));
                                 });
              });
    } else {
      kernel().syscall_return([future = std::move(future),
                               message = std::move(message)]() mutable {
        future.set(std::move(message));
      });
    }
  });
}

sim::Future<Message> ClicModule::recv(int port) {
  sim::Future<Message> future(sim());
  kernel().syscall([this, port, future]() mutable {
    PortState& ps = port_state(port);
    if (!ps.ready.empty()) {
      Message m = std::move(ps.ready.front());
      ps.ready.pop_front();
      complete_recv(std::move(future), std::move(m),
                    sim::CpuPriority::kKernel, /*wake_process=*/false);
      return;
    }
    ps.waiting.push_back(std::move(future));
  });
  return future;
}

}  // namespace clicsim::clic

#include "hw/nic.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace clicsim::hw {

Nic::Nic(sim::Simulator& sim, NicProfile profile, PciBus& pci, MemoryBus& mem,
         InterruptController& intc, int irq, net::MacAddr mac,
         std::string name)
    : sim_(&sim),
      profile_(std::move(profile)),
      dma_(sim, pci, mem, profile_),
      intc_(&intc),
      irq_(irq),
      mac_(mac),
      name_(std::move(name)),
      mtu_(profile_.max_mtu),
      coalesce_usecs_(profile_.coalesce_usecs),
      coalesce_frames_(profile_.coalesce_frames) {}

void Nic::attach_link(net::Link& link, int end) {
  link_ = &link;
  link_end_ = end;
  link.attach(end, this);
}

void Nic::set_mtu(std::int64_t mtu) {
  if (mtu < 64 || mtu > profile_.max_mtu) {
    throw std::invalid_argument("Nic::set_mtu: outside card capability");
  }
  mtu_ = mtu;
}

void Nic::set_coalescing(sim::SimTime usecs, int frames) {
  coalesce_usecs_ = std::max<sim::SimTime>(usecs, 0);
  coalesce_frames_ = std::max(frames, 1);
}

bool Nic::post_tx(TxRequest request) {
  if (link_ == nullptr) {
    throw std::logic_error("Nic::post_tx: no link attached");
  }
  const bool oversize = request.frame.payload_bytes() > mtu_;
  if (oversize && !profile_.on_nic_fragmentation) {
    throw std::logic_error(
        "Nic::post_tx: frame exceeds MTU and card cannot fragment");
  }
  if (request.sg_fragments > 1 && !profile_.scatter_gather) {
    throw std::logic_error(
        "Nic::post_tx: scatter/gather list on a card without S/G support");
  }
  if (tx_in_flight_ >= profile_.tx_ring) return false;

  ++tx_in_flight_;
  const std::int64_t dma_bytes = request.frame.frame_bytes();
  tx_inflight_.push_back(TxInFlight{std::move(request.frame),
                                    std::move(request.on_descriptor_done)});
  dma_.transfer(dma_bytes, request.sg_fragments,
                [this] { tx_dma_complete(); });
  return true;
}

void Nic::tx_dma_complete() {
  TxInFlight tx = std::move(tx_inflight_.front());
  tx_inflight_.pop_front();
  --tx_in_flight_;
  if (tx.done) tx.done();
  sim_->after(profile_.tx_fifo_latency,
              [this, frame = std::move(tx.frame)]() mutable {
                transmit_wire_frames(std::move(frame));
              });
}

void Nic::post_tx_pio(net::Frame frame) {
  if (link_ == nullptr) {
    throw std::logic_error("Nic::post_tx_pio: no link attached");
  }
  sim_->after(profile_.tx_fifo_latency,
              [this, frame = std::move(frame)]() mutable {
                transmit_wire_frames(std::move(frame));
              });
}

void Nic::fw_transmit(net::Frame frame) {
  if (link_ == nullptr) {
    throw std::logic_error("Nic::fw_transmit: no link attached");
  }
  transmit_wire_frames(std::move(frame));
}

void Nic::transmit_wire_frames(net::Frame frame) {
  if (stalled_) {
    // The TX FIFO is wedged: the frame is lost inside the card.
    ++stall_drops_;
    return;
  }
  if (frame.payload_bytes() <= mtu_) {
    ++tx_frames_;
    sim::SimTime credit = 0;
    if (profile_.early_transmit) {
      credit = std::max<sim::SimTime>(
          link_->transmission_time(frame) - profile_.early_tx_tail, 0);
    }
    link_->send(link_end_, std::move(frame), {}, credit);
    return;
  }

  // Firmware fragmentation: split the payload into MTU-sized wire frames.
  // Fragment 0 carries the original upper-protocol header; all fragments
  // carry the 8-byte firmware header. Firmware processing time is charged
  // per fragment and does not touch the host CPU.
  const std::uint64_t id = next_frag_id_++;
  const std::int64_t total = frame.payload.size();
  const std::int64_t first_room =
      mtu_ - kNicFragHeaderBytes - frame.header.wire_bytes();
  const std::int64_t rest_room = mtu_ - kNicFragHeaderBytes;
  if (first_room <= 0 || rest_room <= 0) {
    throw std::logic_error("Nic: MTU too small for fragmentation headers");
  }

  std::vector<std::pair<std::int64_t, std::int64_t>> ranges;  // offset, len
  std::int64_t off = 0;
  ranges.emplace_back(0, std::min(first_room, total));
  off = ranges.back().second;
  while (off < total) {
    const std::int64_t len = std::min(rest_room, total - off);
    ranges.emplace_back(off, len);
    off += len;
  }

  const auto count = static_cast<std::int32_t>(ranges.size());
  sim::SimTime firmware_clock = 0;
  for (std::int32_t i = 0; i < count; ++i) {
    NicFragHeader fh;
    fh.id = id;
    fh.index = i;
    fh.count = count;
    fh.total_payload = total;
    if (i == 0) fh.inner = frame.header;

    net::Frame wire;
    wire.dst = frame.dst;
    wire.src = frame.src;
    wire.ethertype = frame.ethertype;
    wire.payload = frame.payload.slice(ranges[static_cast<std::size_t>(i)].first,
                                       ranges[static_cast<std::size_t>(i)].second);
    const std::int64_t hdr_bytes =
        kNicFragHeaderBytes + (i == 0 ? frame.header.wire_bytes() : 0);
    wire.header = net::HeaderBlob::of(std::move(fh), hdr_bytes);

    firmware_clock += sim::transfer_time(wire.payload.size(),
                                         profile_.nic_proc_bytes_per_s);
    ++tx_frames_;
    sim_->after(firmware_clock, [this, wire = std::move(wire)]() mutable {
      link_->send(link_end_, std::move(wire));
    });
  }
}

void Nic::frame_arrived(net::Frame frame) {
  if (stalled_) {
    // A wedged card posts no RX buffers: the wire-side frame is lost.
    ++stall_drops_;
    return;
  }
  if (!frame.fcs_ok) {
    ++rx_bad_fcs_;
    return;
  }
  if (!(frame.dst == mac_) && !frame.dst.is_multicast()) {
    return;  // not for us (flooded unknown unicast)
  }
  if (frame.dst.is_multicast() && !frame.dst.is_broadcast() &&
      multicast_groups_.count(frame.dst) == 0) {
    return;  // multicast group we have not joined
  }
  if (fw_sink_ && frame.ethertype == fw_ethertype_) {
    // Firmware-terminated protocol (NIC-resident collectives): consumed
    // inside the card after per-byte firmware processing.
    const sim::SimTime proc = sim::transfer_time(
        frame.payload.size(), profile_.nic_proc_bytes_per_s);
    sim_->after(proc, [this, frame = std::move(frame)]() mutable {
      fw_sink_(std::move(frame));
    });
    return;
  }
  if (frame.payload_bytes() > mtu_) {
    // Jumbo interoperability: the receiver must also run the larger MTU.
    ++rx_oversize_drops_;
    return;
  }
  if (frame.header.get<NicFragHeader>() != nullptr) {
    if (!profile_.on_nic_fragmentation) {
      ++rx_frag_drops_;
      return;
    }
    handle_frag_frame(std::move(frame));
    return;
  }
  accept_rx(std::move(frame));
}

void Nic::handle_frag_frame(net::Frame frame) {
  const auto* fh = frame.header.get<NicFragHeader>();
  auto& re = reassembly_[fh->id];
  if (re.parts.empty()) {
    re.parts.resize(static_cast<std::size_t>(fh->count));
    re.src = frame.src;
    re.ethertype = frame.ethertype;
  }
  if (fh->index == 0) re.inner = fh->inner;
  auto& slot = re.parts[static_cast<std::size_t>(fh->index)];
  if (slot.size() == 0) {
    slot = frame.payload;
    ++re.received;
  }

  // Firmware reassembly cost per fragment.
  const sim::SimTime proc = sim::transfer_time(
      frame.payload.size(), profile_.nic_proc_bytes_per_s);

  if (re.received < fh->count) {
    (void)proc;  // partial fragments cost firmware time only
    return;
  }

  net::BufferChain chain;
  for (auto& p : re.parts) chain.append(std::move(p));
  net::Frame whole;
  whole.dst = mac_;
  whole.src = re.src;
  whole.ethertype = re.ethertype;
  whole.header = re.inner;
  whole.payload = chain.flatten();
  reassembly_.erase(fh->id);

  sim_->after(proc, [this, whole = std::move(whole)]() mutable {
    // Reassembled packets bypass the per-frame MTU check: the host sees one
    // large packet, which is the feature's entire point.
    accept_rx(std::move(whole));
  });
}

void Nic::accept_rx(net::Frame frame) {
  if (rx_ring_used_ >= profile_.rx_ring) {
    ++rx_ring_drops_;
    return;
  }
  ++rx_ring_used_;
  const std::int64_t bytes = frame.frame_bytes();
  // Early receive DMA: the card moves data to the host ring while the frame
  // is still arriving off the wire, so at frame-complete only the residual
  // lag of the (slower) PCI transfer remains.
  const sim::SimTime credit =
      link_ != nullptr
          ? sim::transmission_time(frame.wire_bytes(),
                                   link_->params().bits_per_s)
          : 0;
  sim_->after(profile_.rx_fifo_latency, [this, bytes, credit,
                                         frame = std::move(frame)]() mutable {
    dma_.transfer(
        bytes, 1,
        [this, frame = std::move(frame)]() mutable {
          ++rx_frames_;
          if (rx_bypass_) {
            --rx_ring_used_;  // user descriptor, not a ring slot
            rx_bypass_(std::move(frame));
            return;
          }
          rx_queue_.push_back(std::move(frame));
          coalesce_on_frame();
        },
        credit);
  });
}

std::optional<net::Frame> Nic::rx_pop() {
  if (rx_queue_.empty()) return std::nullopt;
  net::Frame f = std::move(rx_queue_.front());
  rx_queue_.pop_front();
  --rx_ring_used_;
  return f;
}

void Nic::coalesce_on_frame() {
  ++pending_frames_;
  if (coalesce_frames_ <= 1 || coalesce_usecs_ <= 0) {
    fire_interrupt();
    return;
  }
  if (pending_frames_ >= coalesce_frames_) {
    fire_interrupt();
    return;
  }
  // Fire immediately when the line has been quiet for a full coalescing
  // window (keeps single-packet latency low); otherwise batch.
  const sim::SimTime due = last_fire_ + coalesce_usecs_;
  if (last_fire_ < 0 || due <= sim_->now()) {
    fire_interrupt();
    return;
  }
  if (coalesce_timer_ == sim::kNoEvent) {
    coalesce_timer_ = sim_->at(due, [this] {
      coalesce_timer_ = sim::kNoEvent;
      if (pending_frames_ > 0) fire_interrupt();
    });
  }
}

void Nic::fire_interrupt() {
  pending_frames_ = 0;
  sim_->cancel(coalesce_timer_);  // a no-op when no hold-off is armed
  coalesce_timer_ = sim::kNoEvent;
  last_fire_ = sim_->now();
  ++irqs_fired_;
  intc_->raise(irq_);
}

}  // namespace clicsim::hw

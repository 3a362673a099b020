// Gigabit Ethernet NIC model.
//
// Transmit: the driver posts a frame described by a scatter/gather list;
// the card bus-masters the bytes across PCI into its TX FIFO and serializes
// onto the attached link. Receive: frames DMA autonomously into pre-posted
// host ring buffers; the card raises its interrupt line under a coalescing
// policy (N frames or T microseconds, firing immediately when the line has
// been idle — the adaptive behaviour of period drivers).
//
// Capabilities per NicProfile: jumbo MTU, scatter/gather (0-copy), dynamic
// coalescing, and optional firmware fragmentation/reassembly — the paper's
// "future work" feature from Gilfeather & Underwood [11]: the host hands
// the card a packet larger than the wire MTU, firmware splits it, and the
// peer's firmware reassembles before a single DMA + interrupt to the host.
//
// Interoperability caveats the paper notes are modelled: a frame whose
// payload exceeds the receiver's configured MTU is dropped (jumbo must be
// enabled on both ends), and fragmented wire frames are dropped by cards
// without the fragmentation feature.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "hw/buses.hpp"
#include "hw/interrupt.hpp"
#include "hw/params.hpp"
#include "net/frame.hpp"
#include "net/link.hpp"
#include "sim/inline_function.hpp"
#include "sim/ring_queue.hpp"
#include "sim/simulator.hpp"

namespace clicsim::hw {

// Wire header prepended by firmware fragmentation (8 bytes on fragment >0;
// fragment 0 also carries the original upper-protocol header).
struct NicFragHeader {
  std::uint64_t id = 0;
  std::int32_t index = 0;
  std::int32_t count = 0;
  std::int64_t total_payload = 0;
  net::HeaderBlob inner;  // upper-protocol header of the original packet

  // Cross-shard confinement hook (see net::Frame::detach).
  void detach_shared() { inner = inner.detached(); }
};
inline constexpr std::int64_t kNicFragHeaderBytes = 8;

class Nic : public net::FrameSink {
 public:
  struct TxRequest {
    net::Frame frame;
    int sg_fragments = 1;  // scatter/gather elements describing host memory
    // Fires when the descriptor completes (host buffers reusable). 120 bytes
    // of inline room: the driver's completion wrapper captures `this` plus a
    // full-size sim::Action and must not spill to the heap per frame.
    sim::InlineFunction<120> on_descriptor_done;
  };

  Nic(sim::Simulator& sim, NicProfile profile, PciBus& pci, MemoryBus& mem,
      InterruptController& intc, int irq, net::MacAddr mac, std::string name);

  void attach_link(net::Link& link, int end);

  // --- Driver-facing API -------------------------------------------------

  // Posts a frame for transmission. Returns false when the TX ring is full
  // (the driver requeues — CLIC then stages data in system memory).
  bool post_tx(TxRequest request);

  [[nodiscard]] bool tx_ring_full() const {
    return tx_in_flight_ >= profile_.tx_ring;
  }

  // Programmed-I/O transmit (Figure 1, path 1): the host CPU has already
  // pushed the bytes across PCI itself (the caller charges that CPU time
  // and PCI occupancy); the card only forwards the frame from its FIFO.
  void post_tx_pio(net::Frame frame);

  // Pops the next received frame from the host-visible RX ring.
  std::optional<net::Frame> rx_pop();
  [[nodiscard]] int rx_pending() const {
    return static_cast<int>(rx_queue_.size());
  }

  // Dynamic coalescing adjustment (usecs == 0 / frames <= 1 disables).
  void set_coalescing(sim::SimTime usecs, int frames);

  // Kernel-bypass receive (user-level NICs a la VIA): DMAed frames go
  // straight to `sink` — the card wrote them into registered user memory —
  // instead of the ring + interrupt path.
  void set_rx_bypass(std::function<void(net::Frame)> sink) {
    rx_bypass_ = std::move(sink);
  }

  // Multicast filter (the card's hash table): broadcast always passes;
  // other group addresses only after join_multicast().
  void join_multicast(const net::MacAddr& group) {
    multicast_groups_.insert(group);
  }
  void leave_multicast(const net::MacAddr& group) {
    multicast_groups_.erase(group);
  }

  // Configured MTU (payload bytes per wire frame); <= profile.max_mtu.
  void set_mtu(std::int64_t mtu);
  [[nodiscard]] std::int64_t mtu() const { return mtu_; }

  // --- Firmware-resident protocols (hw/nic_collective) --------------------

  // Terminates `ethertype` inside the card: matching RX frames are handed
  // to `sink` after the firmware's per-byte processing charge — they never
  // consume a ring slot, host DMA, or interrupt. One ethertype per card.
  void set_fw_sink(std::uint16_t ethertype,
                   std::function<void(net::Frame)> sink) {
    fw_ethertype_ = ethertype;
    fw_sink_ = std::move(sink);
  }

  // Firmware-originated transmit: the bytes are already in card memory, so
  // the frame enters the wire path directly (no descriptor, no PCI DMA).
  // Stall faults still apply — a wedged card loses the frame in its FIFO.
  void fw_transmit(net::Frame frame);

  [[nodiscard]] sim::Simulator& sim() const { return *sim_; }

  // Fault orchestration: a stalled card is wedged — frames arriving off the
  // wire are lost (no buffer posting) and frames reaching the TX FIFO never
  // make it onto the wire. Host-side rings and descriptors keep working, so
  // drivers stay oblivious, exactly like a real firmware hang. resume()
  // (set_stalled(false)) brings the card back; recovery is the protocol's
  // problem.
  void set_stalled(bool stalled) { stalled_ = stalled; }
  [[nodiscard]] bool stalled() const { return stalled_; }
  [[nodiscard]] std::uint64_t stall_drops() const { return stall_drops_; }

  [[nodiscard]] const net::MacAddr& mac() const { return mac_; }
  [[nodiscard]] const NicProfile& profile() const { return profile_; }
  [[nodiscard]] int irq() const { return irq_; }

  // --- Statistics ---------------------------------------------------------
  [[nodiscard]] std::uint64_t tx_frames() const { return tx_frames_; }
  [[nodiscard]] std::uint64_t rx_frames() const { return rx_frames_; }
  [[nodiscard]] std::uint64_t rx_ring_drops() const { return rx_ring_drops_; }
  [[nodiscard]] std::uint64_t rx_bad_fcs() const { return rx_bad_fcs_; }
  [[nodiscard]] std::uint64_t rx_oversize_drops() const {
    return rx_oversize_drops_;
  }
  [[nodiscard]] std::uint64_t rx_frag_drops() const { return rx_frag_drops_; }
  [[nodiscard]] std::uint64_t interrupts_fired() const { return irqs_fired_; }

  // net::FrameSink
  void frame_arrived(net::Frame frame) override;

 private:
  void transmit_wire_frames(net::Frame frame);
  void tx_dma_complete();
  void accept_rx(net::Frame frame);
  void coalesce_on_frame();
  void fire_interrupt();
  void handle_frag_frame(net::Frame frame);

  sim::Simulator* sim_;
  NicProfile profile_;
  DmaEngine dma_;
  InterruptController* intc_;
  int irq_;
  net::MacAddr mac_;
  std::string name_;
  net::Link* link_ = nullptr;
  int link_end_ = -1;

  std::int64_t mtu_;
  bool stalled_ = false;
  std::uint64_t stall_drops_ = 0;
  int tx_in_flight_ = 0;
  int rx_ring_used_ = 0;
  sim::RingQueue<net::Frame> rx_queue_;  // recycled slots: no deque churn
  std::function<void(net::Frame)> rx_bypass_;
  std::function<void(net::Frame)> fw_sink_;
  std::uint16_t fw_ethertype_ = 0;
  std::unordered_set<net::MacAddr, net::MacAddrHash> multicast_groups_;

  // Frames whose descriptor DMA is in flight, in posting order. PCI and
  // memory-bus service are FIFO, so DMA completions arrive in posting order
  // too and the completion event needs to capture only `this`.
  struct TxInFlight {
    net::Frame frame;
    sim::InlineFunction<120> done;
  };
  sim::RingQueue<TxInFlight> tx_inflight_;

  // Coalescing state. The hold-off timer is a cancellable event, disarmed
  // whenever an interrupt fires before it.
  sim::SimTime coalesce_usecs_;
  int coalesce_frames_;
  int pending_frames_ = 0;
  sim::SimTime last_fire_ = -1;
  sim::EventId coalesce_timer_ = sim::kNoEvent;

  // Firmware reassembly state.
  struct Reassembly {
    std::vector<net::Buffer> parts;
    int received = 0;
    net::HeaderBlob inner;
    net::MacAddr src;
    std::uint16_t ethertype = 0;
  };
  std::unordered_map<std::uint64_t, Reassembly> reassembly_;
  std::uint64_t next_frag_id_ = 1;

  std::uint64_t tx_frames_ = 0;
  std::uint64_t rx_frames_ = 0;
  std::uint64_t rx_ring_drops_ = 0;
  std::uint64_t rx_bad_fcs_ = 0;
  std::uint64_t rx_oversize_drops_ = 0;
  std::uint64_t rx_frag_drops_ = 0;
  std::uint64_t irqs_fired_ = 0;
};

}  // namespace clicsim::hw

// The per-node-pair reliable channel: sliding window, cumulative
// acknowledgements with piggybacking, retransmission on timeout, in-order
// delivery with an out-of-order reorder buffer (needed under channel
// bonding, which stripes packets across NICs).
//
// One send/ack/timeout state machine serves both reliability modes. The
// paper's fixed clock is the adaptive machine with a full window, no
// pacing, a flat (or `rto_backoff`) ladder and no RTT samples; only four
// policy points branch on the mode (DESIGN.md §4k).
//
// Bounded-failure semantics: consecutive retransmission timeouts back off
// geometrically (with deterministic jitter) and are budgeted — after
// `Config::max_retries` expiries with no ack progress the channel gives up,
// resolving every outstanding send as failed instead of retrying forever.
// The next data packet then carries a reset flag so a peer that recovers
// later resynchronizes its receive sequence past the abandoned gap.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>

#include "clic/config.hpp"
#include "clic/header.hpp"
#include "clic/rtt.hpp"
#include "net/buffer.hpp"
#include "os/kernel.hpp"
#include "sim/random.hpp"

namespace clicsim::clic {

// One CLIC packet plus its simulation-side bookkeeping.
struct Packet {
  ClicHeader header;
  net::HeaderBlob upper;  // upper-layer header (first fragment only)
  net::Buffer payload;
  bool user_memory = false;  // payload still references user pages (0-copy)
  bool pio = false;          // Figure 1 path 1: CPU pushes the bytes itself
  int sg_fragments = 1;
  // Fires once, when the packet's first DMA descriptor completes.
  std::function<void()> on_descriptor_done;
};

// How the channel reaches the module's transmit machinery and delivery path.
class ChannelOps {
 public:
  virtual ~ChannelOps() = default;

  // Hands a data packet to the driver of the right NIC (charges driver
  // cost; sets the piggybacked ack before building the frame).
  virtual void emit_data(int peer, Packet& packet) = 0;

  // Emits a pure acknowledgement (minimum-size internal packet).
  virtual void emit_ack(int peer, const ClicHeader& header) = 0;

  // In-order data arrival.
  virtual void deliver(int peer, Packet packet) = 0;

  virtual os::Kernel& kernel() = 0;
};

class Channel {
 public:
  Channel(const Config& config, ChannelOps& ops, int peer);

  // --- Transmit side --------------------------------------------------------

  // Fires with true when the packet is cumulatively acknowledged, with
  // false when the channel exhausts its retry budget and abandons it.
  using SendCallback = std::function<void(bool acked)>;

  // Queues `packet` (sequence number assigned here); transmits immediately
  // when the window allows.
  void send(Packet packet, SendCallback on_result = {});

  // Current cumulative ack to piggyback on outgoing data; marks owed acks
  // as satisfied.
  std::uint32_t take_piggyback_ack();

  // --- Receive side ---------------------------------------------------------

  // Processes any incoming packet for this peer (data, dup, out-of-order,
  // or pure ack).
  void packet_in(const ClicHeader& header, net::HeaderBlob upper,
                 net::Buffer payload);

  // --- Introspection ----------------------------------------------------------
  [[nodiscard]] int in_flight() const { return in_flight_; }
  [[nodiscard]] std::size_t pending() const {
    return window_ == nullptr
               ? 0
               : window_->size() - static_cast<std::size_t>(in_flight_);
  }
  [[nodiscard]] std::uint64_t retransmits() const { return retransmits_; }
  [[nodiscard]] std::uint64_t duplicates() const { return duplicates_; }
  [[nodiscard]] std::uint64_t out_of_order() const { return out_of_order_; }
  [[nodiscard]] std::uint64_t acks_sent() const { return acks_sent_; }
  [[nodiscard]] std::uint32_t rx_next() const { return rx_next_; }

  // Degradation counters (fault telemetry).
  [[nodiscard]] std::uint64_t timeouts() const { return timeouts_; }
  [[nodiscard]] int backoff_level() const { return backoff_level_; }
  [[nodiscard]] std::uint64_t gave_up() const { return gave_up_; }
  [[nodiscard]] std::uint64_t resets_accepted() const {
    return resets_accepted_;
  }
  // The RTO the next expiry would be armed with (before jitter).
  [[nodiscard]] sim::SimTime current_rto() const;

  // Adaptive-mode telemetry (all zero/defaults unless Config::adaptive).
  [[nodiscard]] const RttEstimator& rtt() const { return rtt_; }
  [[nodiscard]] int cwnd() const;  // current effective in-flight limit
  [[nodiscard]] int window_min() const { return window_min_; }
  [[nodiscard]] int window_max() const { return window_max_; }
  [[nodiscard]] std::uint64_t window_collapses() const {
    return window_collapses_;
  }

 private:
  struct Unacked {
    Packet packet;
    SendCallback on_result;
    sim::SimTime sent_at = 0;     // RTT-sample timestamp
    bool retransmitted = false;   // Karn's rule: never sample
  };

  void transmit(Packet& packet);
  void pump();  // paced, window-limited release of the waiting entries
  void process_ack(std::uint32_t ack);
  void arm_rto();
  void rto_expired();
  void give_up();
  void note_ack_owed(bool immediate);
  void send_pure_ack();

  void grow_window();     // slow start below ssthresh, +1/cwnd above
  void collapse_window();  // timeout response: ssthresh = inflight/2
  // Resends up to `budget` of the oldest unacked packets (never a waiting
  // one: those have not been sent yet).
  void retransmit_window(int budget);

  const Config* config_;
  ChannelOps* ops_;
  int peer_;

  // Reliability policy, resolved once from Config::adaptive. Fixed mode
  // opens the full window at once, never paces, and grows its RTO by
  // `rto_backoff`; adaptive mode starts at cwnd_init, paces, and doubles.
  const int init_window_;         // start, collapse and idle-restart cwnd
  const sim::SimTime pace_gap_;   // minimum spacing between releases
  const double ladder_factor_;    // RTO growth per consecutive expiry
  // The four policy differences: RTT sampling (and with it, backoff that
  // resets on a valid sample rather than on progress), the window-collapse
  // plus go-back-N loss response, and immediate acks for gaps.
  const bool sample_rtt_;
  const bool go_back_n_;
  const bool ack_gaps_at_once_;

  // TX state. The retransmit timer is a cancellable kernel timer (a
  // simulator event): fresh ack progress cancels and re-arms it.
  std::uint32_t next_seq_ = 0;
  // The send window, in sequence order: entries [0, in_flight_) have been
  // transmitted and await their cumulative ack, the rest wait for window
  // space or the pacing gap. The first send() creates it, so a channel
  // that only receives allocates nothing. It is a chunked deque rather
  // than a contiguous ring because one large message can queue thousands
  // of fragments behind a 64-packet window (DESIGN.md §4k).
  std::unique_ptr<std::deque<Unacked>> window_;
  int in_flight_ = 0;
  os::Kernel::TimerId rto_timer_ = os::Kernel::kInvalidTimer;
  int backoff_level_ = 0;       // consecutive expiries with no progress
  bool pending_reset_ = false;  // next data packet carries flags::kReset
  sim::Rng rto_rng_;            // deterministic jitter stream

  // Window and estimator state (DESIGN.md §4k). cwnd_pkts_ is fractional
  // so congestion avoidance can add 1/cwnd per ack; the effective window
  // is its integer part clamped to [1, window_packets]. In fixed mode it
  // sits at window_packets for good.
  RttEstimator rtt_;
  double cwnd_pkts_;
  int ssthresh_;
  // Loss recovery (NewReno-style): an RTO enters recovery and resends a
  // window of the oldest unacked packets; each partial ack (progress short
  // of recover_point_) immediately resends the next window instead of
  // waiting out another full RTO — a burst of consecutive losses heals in
  // ~one RTO plus a few RTTs rather than one RTO *per packet*. No RTT
  // samples are taken during recovery: cumulative acks that fill a gap
  // report ack-delay, not path RTT, and would poison the estimator.
  bool in_recovery_ = false;
  std::uint32_t recover_point_ = 0;
  sim::SimTime last_activity_ = 0;  // last transmit or ack progress
                                    // (feeds RFC 2861 idle restart)
  sim::SimTime pace_next_ = 0;  // earliest next paced transmission
  os::Kernel::TimerId pace_timer_ = os::Kernel::kInvalidTimer;
  int window_min_ = 0;
  int window_max_ = 0;
  std::uint64_t window_collapses_ = 0;

  // RX state.
  std::uint32_t rx_next_ = 0;
  std::map<std::uint32_t, Packet> reorder_;
  int acks_owed_ = 0;
  os::Kernel::TimerId ack_timer_ = os::Kernel::kInvalidTimer;

  std::uint64_t retransmits_ = 0;
  std::uint64_t duplicates_ = 0;
  std::uint64_t out_of_order_ = 0;
  std::uint64_t acks_sent_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t gave_up_ = 0;
  std::uint64_t resets_accepted_ = 0;
};

}  // namespace clicsim::clic

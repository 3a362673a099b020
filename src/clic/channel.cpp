#include "clic/channel.hpp"

#include <algorithm>
#include <utility>

namespace clicsim::clic {

Channel::Channel(const Config& config, ChannelOps& ops, int peer)
    : config_(&config),
      ops_(&ops),
      peer_(peer),
      init_window_(config.adaptive ? std::max(1, config.cwnd_init)
                                   : config.window_packets),
      pace_gap_(config.adaptive ? config.pacing_gap : 0),
      // Adaptive mode doubles per expiry (classic RFC 6298 backoff);
      // rto_backoff shapes the fixed-clock ladder only (1.0 = flat).
      ladder_factor_(config.adaptive ? 2.0
                                     : std::max(1.0, config.rto_backoff)),
      sample_rtt_(config.adaptive),
      go_back_n_(config.adaptive),
      ack_gaps_at_once_(config.adaptive),
      rto_rng_(config.seed ^ (static_cast<std::uint64_t>(
                                  static_cast<std::uint32_t>(peer)) *
                              0x9e3779b97f4a7c15ULL),
               "clic-rto"),
      cwnd_pkts_(static_cast<double>(init_window_)),
      ssthresh_(config.window_packets) {
  if (config.adaptive) window_min_ = window_max_ = cwnd();
}

int Channel::cwnd() const {
  return std::clamp(static_cast<int>(cwnd_pkts_), 1, config_->window_packets);
}

void Channel::send(Packet packet, SendCallback on_result) {
  packet.header.seq = next_seq_++;
  if (pending_reset_) {
    // First data after a give-up: tell the peer to skip the abandoned gap.
    packet.header.flags |= flags::kReset;
    pending_reset_ = false;
  }
  // Every send goes through the one release path so the window and the
  // pacing gap apply uniformly. In fixed mode a waiting entry means a full
  // window, so a new packet goes out at once exactly when nothing waits
  // ahead of it.
  if (window_ == nullptr) window_ = std::make_unique<std::deque<Unacked>>();
  window_->push_back(Unacked{std::move(packet), std::move(on_result)});
  pump();
}

void Channel::pump() {
  if (window_ == nullptr) return;  // nothing was ever sent
  const sim::SimTime now = ops_->kernel().sim().now();
  const auto waiting = [this] {
    return window_->size() > static_cast<std::size_t>(in_flight_);
  };
  // Congestion-window validation (RFC 2861): a window that was opened by a
  // previous burst says nothing about the path *now*. After an idle gap
  // longer than the RTO, restart from cwnd_init and let slow start re-probe
  // — under periodic incast this is what stops every wave from blasting the
  // stale window of the previous one into the same shallow queue. A fixed
  // window never moves off init_window_, so it never restarts.
  if (cwnd_pkts_ > static_cast<double>(init_window_) && in_flight_ == 0 &&
      waiting() && last_activity_ > 0 &&
      now - last_activity_ > current_rto()) {
    cwnd_pkts_ = static_cast<double>(init_window_);
  }
  while (waiting() && in_flight_ < cwnd()) {
    if (now < pace_next_) {
      // Too soon after the previous release: wake up exactly at the pace
      // boundary. One timer at a time — the wake re-enters this pump.
      if (pace_timer_ == os::Kernel::kInvalidTimer) {
        pace_timer_ = ops_->kernel().add_timer(pace_next_ - now, [this] {
          pace_timer_ = os::Kernel::kInvalidTimer;
          pump();
        });
      }
      break;
    }
    Unacked& entry = (*window_)[static_cast<std::size_t>(in_flight_)];
    entry.sent_at = now;
    last_activity_ = now;
    transmit(entry.packet);
    ++in_flight_;
    pace_next_ = now + pace_gap_;
  }
  if (in_flight_ > 0) arm_rto();
}

void Channel::grow_window() {
  const int limit = config_->window_packets;
  if (cwnd_pkts_ >= static_cast<double>(limit)) return;
  if (static_cast<int>(cwnd_pkts_) < ssthresh_) {
    cwnd_pkts_ += 1.0;  // slow start: one packet per acked packet
  } else {
    cwnd_pkts_ += 1.0 / cwnd_pkts_;  // congestion avoidance: ~+1 per RTT
  }
  cwnd_pkts_ = std::min(cwnd_pkts_, static_cast<double>(limit));
  window_max_ = std::max(window_max_, cwnd());
}

void Channel::collapse_window() {
  ++window_collapses_;
  ssthresh_ = std::max(cwnd() / 2, 2);
  cwnd_pkts_ = static_cast<double>(init_window_);
  window_min_ = std::min(window_min_, cwnd());
}

void Channel::retransmit_window(int budget) {
  // A budget of 1 is selective repeat of the head: the reorder buffer on
  // the far side keeps later arrivals. Loss recovery resends a whole
  // window back-to-back instead: after an incast burst drops a run of
  // consecutive packets, resending only the head heals one sequence number
  // per RTO — N losses cost N×RTO. Resending a window per round (and a
  // further window on every partial ack) heals the whole run in ~one RTO.
  const int count = std::min(budget, in_flight_);
  for (int i = 0; i < count; ++i) {
    Unacked& entry = (*window_)[static_cast<std::size_t>(i)];
    entry.retransmitted = true;  // Karn: its ack yields no sample
    // Retransmission must not re-trigger the caller's descriptor callback.
    entry.packet.on_descriptor_done = {};
    ++retransmits_;
    transmit(entry.packet);
  }
}

void Channel::transmit(Packet& packet) {
  packet.header.ack = take_piggyback_ack();
  ops_->emit_data(peer_, packet);
}

std::uint32_t Channel::take_piggyback_ack() {
  acks_owed_ = 0;
  // Cancel any pending delayed pure ack — this packet carries it.
  if (ack_timer_ != os::Kernel::kInvalidTimer) {
    ops_->kernel().cancel_timer(ack_timer_);
    ack_timer_ = os::Kernel::kInvalidTimer;
  }
  return rx_next_;
}

void Channel::process_ack(std::uint32_t ack) {
  bool advanced = false;
  bool sampled = false;
  while (in_flight_ > 0 && window_->front().packet.header.seq < ack) {
    // Off the window before the callback runs: it may send() again.
    Unacked entry = std::move(window_->front());
    window_->pop_front();
    --in_flight_;
    // Karn's rule: only packets transmitted exactly once yield samples — a
    // retransmitted packet's ack is ambiguous about which copy it acks.
    // Packets that waited in the peer's reorder buffer still sample: their
    // ack delay includes loss-recovery wait, which overestimates — raising
    // the RTO exactly when the path is struggling.
    if (sample_rtt_ && !entry.retransmitted) {
      rtt_.sample(ops_->kernel().sim().now() - entry.sent_at);
      sampled = true;
    }
    grow_window();
    if (entry.on_result) entry.on_result(true);
    advanced = true;
  }
  if (!advanced) return;
  last_activity_ = ops_->kernel().sim().now();
  // Fresh progress restarts the retransmission clock. The second half of
  // Karn's algorithm governs the backoff: with RTT sampling on, the
  // backed-off RTO is RETAINED until a never-retransmitted packet is acked
  // (a valid sample). During heavy recovery every ack covers retransmitted
  // packets, so resetting on mere progress would pin the RTO below the
  // true (queue-inflated) RTT and every window would time out spuriously
  // forever; retaining the backoff lets the RTO double past the real RTT,
  // after which a clean exchange samples it and re-bases the estimator.
  // Without samples the fixed clock resets on any progress.
  if (sampled || !sample_rtt_) backoff_level_ = 0;
  if (rto_timer_ != os::Kernel::kInvalidTimer) {
    ops_->kernel().cancel_timer(rto_timer_);
    rto_timer_ = os::Kernel::kInvalidTimer;
  }
  if (in_recovery_) {
    if (ack >= recover_point_) {
      in_recovery_ = false;  // the whole loss episode is acknowledged
    } else {
      // NewReno-style partial ack: the cumulative ack advanced but stopped
      // short of the recovery point, so the next packets in the run are
      // also missing. Resend the next window now instead of idling until
      // another RTO expires.
      retransmit_window(cwnd());
    }
  }
  if (in_flight_ > 0) arm_rto();
  pump();
}

sim::SimTime Channel::current_rto() const {
  // The estimator replaces the configured clock as the ladder's base once
  // it has a sample; fixed mode never samples, so its base stays `rto`.
  double rto = static_cast<double>(
      rtt_.primed() ? rtt_.rto(config_->rto_min, config_->rto_max)
                    : config_->rto);
  for (int i = 0; i < backoff_level_; ++i) {
    rto *= ladder_factor_;
    if (rto >= static_cast<double>(config_->rto_max)) break;
  }
  return std::min<sim::SimTime>(static_cast<sim::SimTime>(rto),
                                config_->rto_max);
}

void Channel::arm_rto() {
  if (rto_timer_ != os::Kernel::kInvalidTimer) return;
  sim::SimTime rto = current_rto();
  if (config_->rto_jitter > 0.0) {
    // Deterministic jitter in ±rto_jitter, from the per-channel stream.
    const double spread =
        config_->rto_jitter * (2.0 * rto_rng_.uniform() - 1.0);
    rto = std::max<sim::SimTime>(
        1, static_cast<sim::SimTime>(static_cast<double>(rto) *
                                     (1.0 + spread)));
  }
  rto_timer_ = ops_->kernel().add_timer(rto, [this] { rto_expired(); });
}

void Channel::rto_expired() {
  rto_timer_ = os::Kernel::kInvalidTimer;
  if (in_flight_ == 0) {
    backoff_level_ = 0;
    return;
  }
  ++timeouts_;
  if (backoff_level_ >= config_->max_retries) {
    give_up();
    return;
  }
  ++backoff_level_;
  if (go_back_n_) {
    // Timeout response: halve ssthresh, collapse the window, and enter
    // loss recovery — everything up to next_seq_ is suspect, so resend a
    // window of it and let partial acks clock out the rest.
    collapse_window();
    in_recovery_ = true;
    recover_point_ = next_seq_;
  }
  retransmit_window(in_recovery_ ? cwnd() : 1);
  arm_rto();
}

void Channel::give_up() {
  // Retry budget exhausted with zero ack progress: resolve every
  // outstanding send as failed rather than retrying forever. The sequence
  // space moves past the abandoned packets; the next data packet carries
  // kReset so a peer that comes back resynchronizes.
  ++gave_up_;
  backoff_level_ = 0;
  pending_reset_ = true;
  // Channel resync point: the path (and peer state) that produced the
  // samples may be gone. Forget the estimator, restart the window, and
  // drop any scheduled paced release — there is nothing left to pace.
  rtt_.reset();
  cwnd_pkts_ = static_cast<double>(init_window_);
  ssthresh_ = config_->window_packets;
  in_recovery_ = false;
  recover_point_ = 0;
  pace_next_ = 0;
  last_activity_ = 0;
  if (pace_timer_ != os::Kernel::kInvalidTimer) {
    ops_->kernel().cancel_timer(pace_timer_);
    pace_timer_ = os::Kernel::kInvalidTimer;
  }
  // The window is detached first: a callback may immediately send() again.
  const auto window = std::move(window_);
  const int sent = std::exchange(in_flight_, 0);
  for (std::size_t i = 0; i < window->size(); ++i) {
    Unacked& entry = (*window)[i];
    if (static_cast<int>(i) >= sent && entry.packet.on_descriptor_done) {
      // Window-blocked packets were never handed to the driver; release
      // any sync sender waiting on their DMA so it does not block forever
      // on a descriptor that will never be posted.
      entry.packet.on_descriptor_done();
    }
    if (entry.on_result) entry.on_result(false);
  }
}

void Channel::packet_in(const ClicHeader& header, net::HeaderBlob upper,
                        net::Buffer payload) {
  process_ack(header.ack);
  if (header.flags & flags::kPureAck) return;

  if ((header.flags & flags::kReset) && header.seq > rx_next_) {
    // The sender abandoned [rx_next_, seq) during an outage; adopt its new
    // base (forward only — a duplicated or reordered reset must not rewind).
    ++resets_accepted_;
    rx_next_ = header.seq;
    while (!reorder_.empty() && reorder_.begin()->first < rx_next_) {
      reorder_.erase(reorder_.begin());
    }
  }

  const bool wants_immediate_ack = (header.flags & flags::kAckRequested) != 0;

  if (header.seq < rx_next_) {
    // Duplicate (our ack was lost): re-ack right away so the sender stops.
    ++duplicates_;
    note_ack_owed(/*immediate=*/true);
    return;
  }

  if (header.seq > rx_next_) {
    ++out_of_order_;
    Packet p;
    p.header = header;
    p.upper = std::move(upper);
    p.payload = std::move(payload);
    reorder_.emplace(header.seq, std::move(p));
    // Adaptive mode acks a gap immediately: during loss recovery the
    // sender's retransmissions are clocked by arriving acks (each partial
    // ack releases the next window), so a promptly reported gap-fill is
    // what keeps recovery at RTT timescale instead of ack-delay timescale.
    note_ack_owed(wants_immediate_ack || ack_gaps_at_once_);
    return;
  }

  // In-order: deliver, then drain any consecutive buffered packets.
  Packet p;
  p.header = header;
  p.upper = std::move(upper);
  p.payload = std::move(payload);
  ++rx_next_;
  ops_->deliver(peer_, std::move(p));
  while (!reorder_.empty() && reorder_.begin()->first == rx_next_) {
    auto node = reorder_.extract(reorder_.begin());
    ++rx_next_;
    ops_->deliver(peer_, std::move(node.mapped()));
  }
  note_ack_owed(wants_immediate_ack);
}

void Channel::note_ack_owed(bool immediate) {
  ++acks_owed_;
  if (immediate || acks_owed_ >= config_->ack_every) {
    send_pure_ack();
    return;
  }
  if (ack_timer_ == os::Kernel::kInvalidTimer) {
    ack_timer_ = ops_->kernel().add_timer(config_->ack_delay, [this] {
      ack_timer_ = os::Kernel::kInvalidTimer;
      if (acks_owed_ > 0) send_pure_ack();
    });
  }
}

void Channel::send_pure_ack() {
  acks_owed_ = 0;
  if (ack_timer_ != os::Kernel::kInvalidTimer) {
    ops_->kernel().cancel_timer(ack_timer_);
    ack_timer_ = os::Kernel::kInvalidTimer;
  }
  ++acks_sent_;
  ClicHeader h;
  h.type = PacketType::kInternal;
  h.flags = flags::kPureAck;
  h.ack = rx_next_;
  ops_->emit_ack(peer_, h);
}

}  // namespace clicsim::clic

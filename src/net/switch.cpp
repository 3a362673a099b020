#include "net/switch.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace clicsim::net {

Switch::Switch(sim::Simulator& sim, int ports, SwitchParams params,
               std::string name)
    : sim_(&sim), params_(params), name_(std::move(name)) {
  if (ports < 1) throw std::invalid_argument("Switch: need >= 1 port");
  ports_.reserve(static_cast<std::size_t>(ports));
  for (int i = 0; i < ports; ++i) {
    auto p = std::make_unique<Port>();
    p->owner = this;
    p->index = i;
    ports_.push_back(std::move(p));
  }
}

void Switch::connect(int port, Link& link, int link_end) {
  auto& p = *ports_.at(static_cast<std::size_t>(port));
  p.link = &link;
  p.link_end = link_end;
  link.attach(link_end, &p);
}

void Switch::Port::frame_arrived(Frame frame) {
  owner->ingress(index, std::move(frame));
}

void Switch::size_station_table(int nodes, int nics_per_node) {
  if (nodes < 0 || nics_per_node < 1 || nics_per_node > 256) {
    throw std::invalid_argument("Switch: bad station table shape");
  }
  station_nodes_ = nodes;
  station_nics_ = nics_per_node;
  stations_.assign(static_cast<std::size_t>(nodes) *
                       static_cast<std::size_t>(nics_per_node),
                   -1);
}

int Switch::foreign_port(const MacAddr& mac) const {
  auto it = foreign_.find(mac);
  return it == foreign_.end() ? -1 : it->second;
}

void Switch::ingress(int port, Frame frame) {
  // A killed port is electrically dead: frames arriving on it vanish.
  if (!ports_[static_cast<std::size_t>(port)]->up) {
    ++port_down_drops_;
    return;
  }

  // Store-and-forward switches verify the FCS and discard bad frames.
  if (!frame.fcs_ok && !params_.cut_through) {
    ++bad_fcs_;
    return;
  }

  if (!frame.src.is_multicast()) learn(frame.src, port);

  if (frame.dst.is_multicast()) {  // includes broadcast
    flood_from(port, frame);
    return;
  }

  const int out = learned_port(frame.dst);
  if (out == port) return;  // destination is behind the ingress port
  if (out >= 0) {
    ++forwarded_;
    egress(out, frame);
    return;
  }
  // Unknown unicast: flood.
  flood_from(port, frame);
}

void Switch::flood_from(int port, Frame& frame) {
  // Copy-on-write fan-out: if any flooded copy will cross a shard boundary
  // (where Frame::detach would deep-copy the payload per crossing), convert
  // the payload to a shared-immutable block once — every per-port copy and
  // every boundary crossing then aliases that one block, so a flood costs
  // O(1) payload copies instead of O(ports). Sharing is host-side memory
  // management only; simulated times and contents are unchanged, keeping
  // sharded runs bit-identical to --shards 1.
  if (!frame.payload.is_shared()) {
    for (const auto& p : ports_) {
      if (p->index != port && p->link != nullptr && p->flood &&
          p->link->crosses_shards()) {
        frame.payload = frame.payload.shared();
        break;
      }
    }
  }
  for (const auto& p : ports_) {
    if (p->index != port && p->link != nullptr && p->flood) {
      ++flooded_;
      egress(p->index, frame);
    }
  }
}

void Switch::egress(int port, const Frame& frame) {
  auto& p = *ports_[static_cast<std::size_t>(port)];
  if (!p.up) {
    ++port_down_drops_;
    return;
  }
  if (p.queued >= params_.output_queue_frames) {
    ++dropped_;
    ++p.drops;
    return;
  }
  ++p.queued;
  sim_->after(params_.forwarding_latency, [this, port, frame]() {
    auto& out = *ports_[static_cast<std::size_t>(port)];
    // Cut-through: the egress wire started re-serializing while the frame
    // was still arriving on the ingress port, so delivery leads by almost
    // the full transmission time (occupancy is charged in full).
    const sim::SimTime credit =
        params_.cut_through
            ? std::max<sim::SimTime>(
                  out.link->transmission_time(frame) -
                      params_.forwarding_latency,
                  0)
            : 0;
    out.link->send(out.link_end, frame, [&out] { --out.queued; }, credit);
  });
}

}  // namespace clicsim::net

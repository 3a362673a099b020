#include "hw/nic_collective.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace clicsim::hw {

namespace {

// Lowest set bit of the relative rank; for the root (relative 0) the
// smallest power of two covering the whole job, so children_of yields every
// power-of-two offset below n — the host binomial tree's shape exactly.
int low_bit_span(int relative, int n) {
  if (relative != 0) return relative & -relative;
  int span = 1;
  while (span < n) span <<= 1;
  return span;
}

}  // namespace

NicCollectiveEngine::NicCollectiveEngine(Nic& nic, int rank,
                                         MacTable rank_macs,
                                         Params params)
    : nic_(&nic),
      sim_(&nic.sim()),
      rank_(rank),
      macs_(std::move(rank_macs)),
      params_(params) {
  if (macs_ == nullptr || macs_->empty() || rank_ < 0 || rank_ >= size()) {
    throw std::invalid_argument("NicCollectiveEngine: bad rank/job size");
  }
  nic_->set_fw_sink(kCollectiveEtherType,
                    [this](net::Frame f) { on_frame(std::move(f)); });
}

int NicCollectiveEngine::parent_of(int root) const {
  const int rel = relative(root);
  if (rel == 0) return -1;
  const int parent_rel = rel & (rel - 1);  // clear the lowest set bit
  return (parent_rel + root) % size();
}

std::vector<int> NicCollectiveEngine::children_of(int root) const {
  const int rel = relative(root);
  const int n = size();
  std::vector<int> out;
  // Largest subtree first, matching the host tree's send order.
  for (int m = low_bit_span(rel, n) >> 1; m > 0; m >>= 1) {
    if (rel + m < n) out.push_back((rel + m + root) % n);
  }
  return out;
}

void NicCollectiveEngine::barrier(std::uint32_t seq,
                                  std::function<void()> done) {
  post_up(CollOp::kBarrier, 0, seq, net::Buffer::zeros(0),
          [done = std::move(done)](net::Buffer) { done(); });
}

void NicCollectiveEngine::allreduce(std::uint32_t seq,
                                    net::Buffer contribution,
                                    std::function<void(net::Buffer)> done) {
  if (contribution.size() + kCollHeaderBytes > nic_->mtu()) {
    throw std::invalid_argument(
        "NicCollectiveEngine: contribution exceeds one wire MTU");
  }
  post_up(CollOp::kAllreduce, 0, seq, std::move(contribution),
          std::move(done));
}

void NicCollectiveEngine::bcast(std::uint32_t seq, int root,
                                net::Buffer payload,
                                std::function<void(net::Buffer)> done) {
  if (payload.size() + kCollHeaderBytes > nic_->mtu()) {
    throw std::invalid_argument(
        "NicCollectiveEngine: payload exceeds one wire MTU");
  }
  Op& st = ops_[key(CollOp::kBcast, root, seq)];
  st.host_posted = true;
  st.done = std::move(done);
  if (rank_ == root) {
    st.payload = std::move(payload);
    release(CollOp::kBcast, root, seq, st);
  } else if (st.released) {
    // The down frame beat the host's descriptor (firmware cut-through kept
    // forwarding regardless).
    finish(CollOp::kBcast, root, seq, st);
  }
}

void NicCollectiveEngine::post_up(CollOp op, int root, std::uint32_t seq,
                                  net::Buffer data,
                                  std::function<void(net::Buffer)> done) {
  Op& st = ops_[key(op, root, seq)];
  st.host_posted = true;
  st.done = std::move(done);
  st.acc_bytes = std::max(st.acc_bytes, data.size());
  advance_up(op, root, seq, st);
}

void NicCollectiveEngine::advance_up(CollOp op, int root, std::uint32_t seq,
                                     Op& op_state) {
  if (!op_state.host_posted) return;
  if (op_state.up_seen <
      static_cast<int>(children_of(root).size())) {
    return;
  }
  if (rank_ != root) {
    // Subtree complete: one combined contribution continues toward the
    // root; this rank now waits for the down wave.
    send_frame(parent_of(root), op, 0, root, seq,
               op == CollOp::kAllreduce
                   ? net::Buffer::zeros(op_state.acc_bytes)
                   : net::Buffer::zeros(0));
    return;
  }
  if (op == CollOp::kAllreduce) {
    op_state.payload = net::Buffer::zeros(op_state.acc_bytes);
  }
  release(op, root, seq, op_state);
}

void NicCollectiveEngine::release(CollOp op, int root, std::uint32_t seq,
                                  Op& op_state) {
  op_state.released = true;
  for (int child : children_of(root)) {
    send_frame(child, op, 1, root, seq, op_state.payload);
  }
  if (op_state.host_posted) finish(op, root, seq, op_state);
}

void NicCollectiveEngine::finish(CollOp op, int root, std::uint32_t seq,
                                 Op& op_state) {
  // Detach the completion from the map before running it: the callback may
  // immediately post the next collective and touch ops_.
  auto done = std::move(op_state.done);
  net::Buffer result = std::move(op_state.payload);
  ops_.erase(key(op, root, seq));
  ++ops_completed_;
  if (done) done(std::move(result));
}

void NicCollectiveEngine::send_frame(int dst_rank, CollOp op,
                                     std::uint8_t phase, int root,
                                     std::uint32_t seq, net::Buffer payload) {
  CollHeader h;
  h.op = static_cast<std::uint8_t>(op);
  h.phase = phase;
  h.root = static_cast<std::uint16_t>(root);
  h.seq = seq;

  net::Frame f;
  f.dst = macs_->at(static_cast<std::size_t>(dst_rank));
  f.src = nic_->mac();
  f.ethertype = kCollectiveEtherType;
  f.header = net::HeaderBlob::of(std::move(h), kCollHeaderBytes);
  f.payload = std::move(payload);

  ++frames_sent_;
  sim_->after(params_.fw_op_latency, [this, f = std::move(f)]() mutable {
    nic_->fw_transmit(std::move(f));
  });
}

void NicCollectiveEngine::on_frame(net::Frame frame) {
  const auto* h = frame.header.get<CollHeader>();
  if (h == nullptr) return;
  const auto op = static_cast<CollOp>(h->op);
  const int root = h->root;
  const std::uint32_t seq = h->seq;
  Op& st = ops_[key(op, root, seq)];

  if (h->phase == 0) {
    // Fan-in: combine the child's contribution in firmware.
    ++st.up_seen;
    ++combines_;
    st.acc_bytes = std::max(st.acc_bytes, frame.payload.size());
    advance_up(op, root, seq, st);
    return;
  }

  // Fan-out: forward down the tree immediately (cut-through — the local
  // host's descriptor, if any, is serviced independently).
  st.payload = std::move(frame.payload);
  release(op, root, seq, st);
}

}  // namespace clicsim::hw

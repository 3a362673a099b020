// Ethernet framing: MAC addresses, ethertypes, frames and the type-erased
// protocol-header blob that rides on a frame.
//
// Protocol headers are modelled structurally (typed C++ structs) rather than
// as serialized bytes; each header declares the number of on-wire bytes it
// represents so frame sizes and transmission times stay faithful.
#pragma once

#include <array>
#include <cstdint>
#include <new>
#include <string>
#include <typeinfo>
#include <utility>

#include "net/buffer.hpp"

namespace clicsim::net {

struct MacAddr {
  std::array<std::uint8_t, 6> octets{};

  // Locally-administered unicast address for cluster node `id`.
  static MacAddr node(std::uint32_t id);
  // The address of NIC `nic` (0..255) on cluster node `node` (< 2^24),
  // node(node << 8 | nic): how os::Cluster numbers every NIC.
  static MacAddr of_nic(int node, int nic) {
    return MacAddr::node(static_cast<std::uint32_t>(node) << 8 |
                         static_cast<std::uint32_t>(nic));
  }
  // The (node, nic) an of_nic() address was built from; false for every
  // other address.
  [[nodiscard]] bool nic_id(int& node, int& nic) const {
    if (octets[0] != 0x02 || octets[1] != 0x00) return false;
    node = octets[2] << 16 | octets[3] << 8 | octets[4];
    nic = octets[5];
    return true;
  }
  static MacAddr broadcast();
  // Multicast group address (01:xx:...) for group `id`.
  static MacAddr multicast(std::uint32_t id);

  [[nodiscard]] bool is_broadcast() const;
  [[nodiscard]] bool is_multicast() const {
    return (octets[0] & 0x01) != 0;
  }
  [[nodiscard]] std::string str() const;

  friend bool operator==(const MacAddr&, const MacAddr&) = default;
};

struct MacAddrHash {
  std::size_t operator()(const MacAddr& m) const {
    std::size_t h = 1469598103934665603ULL;
    for (auto o : m.octets) {
      h ^= o;
      h *= 1099511628211ULL;
    }
    return h;
  }
};

// Ethertypes: IP as standardized; CLIC and GAMMA use experimental values
// (the real CLIC also registers its own packet type with dev_add_pack).
inline constexpr std::uint16_t kEtherTypeIp = 0x0800;
inline constexpr std::uint16_t kEtherTypeClic = 0x88B5;
inline constexpr std::uint16_t kEtherTypeGamma = 0x88B6;

// Type-erased protocol header carried by a frame (e.g. clic::ClicHeader,
// tcpip::Ipv4Header). Tracks the on-wire byte count it represents.
//
// The header object lives in an intrusively refcounted record recycled by
// the simulation's net::BufferPool — building one per emitted frame (the
// hot path: every data packet, ack and retransmission constructs a fresh
// wire header) costs no heap allocation in steady state.
class HeaderBlob {
 public:
  HeaderBlob() = default;

  template <typename T>
  static HeaderBlob of(T header, std::int64_t wire_bytes) {
    static_assert(alignof(T) <= alignof(detail::HeaderRec),
                  "over-aligned protocol headers are not supported");
    detail::HeaderRec* rec = detail::acquire_header_rec(sizeof(T));
    new (rec->payload()) T(std::move(header));
    rec->destroy = [](void* p) { static_cast<T*>(p)->~T(); };
    // Deep copy into an unpooled record, for frames crossing a shard
    // boundary (see Frame::detach). Headers that embed refcounted parts
    // (a nested HeaderBlob or Buffer) expose detach_shared() to confine
    // those too; plain structs need nothing beyond the copy.
    rec->clone = [](const detail::HeaderRec* src) -> detail::HeaderRec* {
      detail::HeaderRec* copy = detail::acquire_header_rec_unpooled(sizeof(T));
      new (copy->payload()) T(*static_cast<const T*>(src->payload()));
      copy->destroy = src->destroy;
      copy->clone = src->clone;
      copy->type = src->type;
      if constexpr (requires(T& t) { t.detach_shared(); }) {
        static_cast<T*>(copy->payload())->detach_shared();
      }
      return copy;
    };
    rec->type = &typeid(T);
    HeaderBlob b;
    b.rec_ = detail::HeaderRef::adopt(rec);
    b.wire_bytes_ = wire_bytes;
    return b;
  }

  template <typename T>
  [[nodiscard]] const T* get() const {
    if (!rec_ || *rec_->type != typeid(T)) return nullptr;
    return static_cast<const T*>(rec_->payload());
  }

  [[nodiscard]] std::int64_t wire_bytes() const { return wire_bytes_; }
  [[nodiscard]] bool empty() const { return !rec_; }

  // Copy backed by a fresh unpooled record (deep, including any nested
  // blobs/buffers via the header's detach_shared hook): safe to release on
  // a different thread than the original. Empty blobs return themselves.
  [[nodiscard]] HeaderBlob detached() const {
    if (!rec_) return *this;
    HeaderBlob b;
    b.rec_ = detail::HeaderRef::adopt(rec_->clone(rec_.get()));
    b.wire_bytes_ = wire_bytes_;
    return b;
  }

 private:
  detail::HeaderRef rec_;
  std::int64_t wire_bytes_ = 0;
};

// Ethernet constants (level-1 header, as used by CLIC: 6+6+2 bytes).
inline constexpr std::int64_t kEthHeaderBytes = 14;
inline constexpr std::int64_t kEthFcsBytes = 4;
inline constexpr std::int64_t kEthMinPayload = 46;
inline constexpr std::int64_t kEthMtuStandard = 1500;
inline constexpr std::int64_t kEthMtuJumbo = 9000;
// Preamble + SFD + inter-frame gap, charged per frame on the wire.
inline constexpr std::int64_t kEthWireOverhead = 20;

struct Frame {
  MacAddr dst;
  MacAddr src;
  std::uint16_t ethertype = 0;
  HeaderBlob header;  // upper-protocol header riding in the payload area
  Buffer payload;     // user data portion
  bool fcs_ok = true; // cleared by corruption injection; receivers drop

  // Bytes inside the Ethernet payload area (upper header + data).
  [[nodiscard]] std::int64_t payload_bytes() const {
    return header.wire_bytes() + payload.size();
  }

  // Frame size from destination MAC through FCS (payload padded to 46).
  [[nodiscard]] std::int64_t frame_bytes() const;

  // Bytes occupying the wire, including preamble/SFD/IFG.
  [[nodiscard]] std::int64_t wire_bytes() const {
    return frame_bytes() + kEthWireOverhead;
  }

  // Severs all sharing with pool-backed storage, called once per frame at
  // a shard boundary so pooled blocks and their non-atomic refcounts are
  // touched by exactly one thread on each side of the crossing. The header
  // becomes a self-owned heap copy (small, and its blob record is pooled);
  // the payload — where the bytes are — converts to a shared-immutable
  // block instead of deep-copying: one mint per distinct payload, atomic
  // refcount, safe to alias and release across threads, and a payload
  // already shared (the copy-on-write flood path, or a unicast detached
  // at an earlier hop) passes through with zero copies.
  void detach() {
    header = header.detached();
    payload = payload.shared();
  }
};

// Anything that accepts delivered frames: a NIC's receive side, a switch
// port, a monitoring tap.
class FrameSink {
 public:
  virtual ~FrameSink() = default;
  virtual void frame_arrived(Frame frame) = 0;
};

}  // namespace clicsim::net

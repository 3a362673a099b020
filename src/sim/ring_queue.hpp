// A FIFO over a recycled circular slot array: the deque replacement for the
// packet-path rings (driver TX queue, kernel bottom halves, NIC RX ring and
// TX in-flight list) and the CPU's per-priority run queues.
//
// std::deque allocates a map and a chunk before it holds anything, and
// frees and reallocates chunks every few hundred push/pop cycles as the
// ring wraps. RingQueue allocates nothing until the first push, then grows
// its slot array by doubling from one slot (so the capacity is always a
// power of two) and never touches the allocator again: steady-state frame
// traffic is allocation-free, and a queue that only ever holds a couple of
// items (most of a 1024-node cluster's CPUs) costs a couple of slots. Fully
// deterministic: growth depends only on the queue's own history.
//
// T must be default-constructible and move-assignable. pop_front() resets
// the vacated slot to T{} so resources held by the element (pooled buffers,
// header records, closures) are released eagerly, exactly as a deque's
// element destruction would.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace clicsim::sim {

template <typename T>
class RingQueue {
 public:
  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] std::size_t size() const { return count_; }

  [[nodiscard]] T& front() { return slots_[head_]; }
  [[nodiscard]] const T& front() const { return slots_[head_]; }

  void push_back(T value) {
    if (count_ == slots_.size()) grow();
    slots_[index_of(count_)] = std::move(value);
    ++count_;
  }

  template <typename... Args>
  void emplace_back(Args&&... args) {
    push_back(T(std::forward<Args>(args)...));
  }

  // Inserts ahead of the current front.
  void push_front(T value) {
    if (count_ == slots_.size()) grow();
    head_ = (head_ - 1) & mask();
    slots_[head_] = std::move(value);
    ++count_;
  }

  void pop_front() {
    slots_[head_] = T{};  // release the element's resources now
    head_ = (head_ + 1) & mask();
    --count_;
  }

  void clear() {
    while (!empty()) pop_front();
  }

 private:
  [[nodiscard]] std::size_t mask() const { return slots_.size() - 1; }
  [[nodiscard]] std::size_t index_of(std::size_t i) const {
    return (head_ + i) & mask();
  }

  void grow() {
    std::vector<T> bigger(slots_.empty() ? 1 : slots_.size() * 2);
    for (std::size_t i = 0; i < count_; ++i) {
      bigger[i] = std::move(slots_[index_of(i)]);
    }
    slots_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace clicsim::sim

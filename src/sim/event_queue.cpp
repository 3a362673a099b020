#include "sim/event_queue.hpp"

#include <stdexcept>

namespace clicsim::sim {

std::uint32_t EventQueue::acquire_slot_slow() {
  const auto slot = static_cast<std::uint32_t>(ids_.size());
  if (slot > kSlotMask) {
    throw std::length_error("EventQueue: more than 2^24 pending events");
  }
  if ((slot >> kChunkBits) == chunks_.size()) {
    chunks_.push_back(std::make_unique<Action[]>(kChunkSize));
  }
  ids_.push_back(kNoEvent);
  return slot;
}

bool EventQueue::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id & kSlotMask);
  if (id == kNoEvent || slot >= ids_.size() || ids_[slot] != id) return false;
  ids_[slot] = kNoEvent;
  ++dead_;
  slot_ref(slot) = nullptr;  // the captures die now, not at the deadline
  drop_dead();
  return true;
}

void EventQueue::drop_dead() {
  while (!heap_.empty() && is_dead(heap_[0])) {
    free_.push_back(static_cast<std::uint32_t>(heap_[0].id & kSlotMask));
    pop_top();
    --dead_;
  }
  if (dead_ <= size() + kDeadSlack) return;
  // Compact: keep the live handles, recycle the orphans' slots and heapify
  // in place. The (time, seq) order is total, so the rebuilt heap pops in
  // exactly the order the old one would have.
  std::size_t n = 0;
  for (const Handle& h : heap_) {
    if (is_dead(h)) {
      free_.push_back(static_cast<std::uint32_t>(h.id & kSlotMask));
    } else {
      heap_[n++] = h;
    }
  }
  heap_.resize(n);
  dead_ = 0;
  for (std::size_t i = n > 1 ? (n - 2) / 4 + 1 : 0; i-- > 0;) {
    sift_down(i, heap_[i]);
  }
}

}  // namespace clicsim::sim

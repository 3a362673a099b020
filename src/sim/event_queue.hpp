// Deterministic time-ordered event queue with cancellation.
//
// Events scheduled for the same instant execute in insertion order (a
// monotonically increasing sequence number breaks ties), which makes every
// simulation run bit-reproducible for a given seed and parameter set.
//
// Layout: the heap orders 16-byte POD handles {time, seq|slot} in an
// index-based 4-ary min-heap, while the callbacks live in a recycling slab
// addressed by the handle's slot bits. Sift operations therefore move two
// machine words per level instead of entries carrying a type-erased
// callable, and slab slots are reused through a free list so a simulation
// in steady state performs no allocation per event.
//
// Cancellation: the packed {seq|slot} word doubles as the event's id, and
// each slot remembers the id it currently holds. cancel() destroys the
// closure at once and forgets the id; the orphaned heap handle is dropped
// when it reaches the top, and the heap is rebuilt without orphans once they
// outnumber the live events (plus kDeadSlack), so protocol timers that are
// restarted on every ack keep the queue bounded. The top of the heap is
// always a live event, so a cancelled event never runs, never advances the
// clock and is never seen by empty()/size()/next_time().
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/inline_function.hpp"
#include "sim/time.hpp"

namespace clicsim::sim {

// Identifies one scheduled event for cancel(); never reused within a queue.
using EventId = std::uint64_t;
inline constexpr EventId kNoEvent = 0;

class EventQueue {
 public:
  using Action = sim::Action;

  // Schedules `f` at absolute time `t`. The callable is constructed
  // directly in its slab slot, so a lambda is never materialized as an
  // intermediate Action and relocated.
  template <typename F>
  EventId push(SimTime t, F&& f) {
    const std::uint32_t slot = acquire_slot();
    slot_ref(slot) = std::forward<F>(f);
    const EventId id = (next_seq_++ << kSlotBits) | slot;
    ids_[slot] = id;
    heap_.emplace_back();  // hole; sift_up fills it
    sift_up(heap_.size() - 1, Handle{t, id});
    return id;
  }

  // Destroys a pending event's closure so it never runs. Returns false when
  // the event already ran (or is running) or was already cancelled.
  bool cancel(EventId id);

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size() - dead_; }

  // Time of the earliest pending event; kNever when empty.
  [[nodiscard]] SimTime next_time() const {
    return heap_.empty() ? kNever : heap_[0].time;
  }

  // Removes the earliest event and runs its callback *in place* in the
  // slab — the simulator's dispatch path. Skipping the move-out saves a
  // relocation + destruction per event; it is safe because slab chunks
  // never move, so callbacks pushed from inside the running callback cannot
  // invalidate its storage. Precondition: !empty().
  void run_earliest() {
    const auto slot = static_cast<std::uint32_t>(heap_[0].id & kSlotMask);
    pop_top();
    // The event's id is spent before it runs: cancelling it from inside its
    // own callback (or later) reports false.
    ids_[slot] = kNoEvent;
    if (dead_ != 0) drop_dead();

    // The slot is recycled only after the callback returns, so a push from
    // inside the callback cannot overwrite the executing closure.
    Action& action = slot_ref(slot);
    action();
    action = nullptr;
    free_.push_back(slot);
  }

  // Slab slots ever created: the queue's storage high-water mark. Orphans
  // keep their slot until dropped, so this stays within about
  // 2 * size() + kDeadSlack however many events are cancelled.
  [[nodiscard]] std::size_t slots() const { return ids_.size(); }
  static constexpr std::size_t kDeadSlack = 64;

 private:
  // 16-byte heap handle. The low kSlotBits of `id` address the slab slot
  // holding the callback; the high bits carry the insertion sequence.
  // Sequence numbers are unique, so comparing the packed word compares the
  // sequence (slot bits can never decide), which keeps the same-time
  // tie-break a single integer comparison. The packing bounds one queue at
  // 2^40 (~10^12) lifetime events and 2^24 concurrently held slots.
  struct Handle {
    SimTime time;
    EventId id;
  };
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1ull << kSlotBits) - 1;

  static bool earlier(const Handle& a, const Handle& b) {
#ifdef __SIZEOF_INT128__
    // Branch-free lexicographic (time, seq) compare: fold the handle into
    // one signed 128-bit key. Event times are effectively random, so the
    // short-circuit form mispredicts on nearly every sift step; the folded
    // compare is a cmp/sbb pair with no branch at all.
    const auto ka = (static_cast<__int128>(a.time) << 64) |
                    static_cast<unsigned __int128>(a.id);
    const auto kb = (static_cast<__int128>(b.time) << 64) |
                    static_cast<unsigned __int128>(b.id);
    return ka < kb;
#else
    return a.time < b.time || (a.time == b.time && a.id < b.id);
#endif
  }

  // The slab is chunked so slots have stable addresses: growth appends a
  // chunk instead of reallocating (which would relocate every pending
  // callback — and dangle the one executing in place in run_earliest).
  static constexpr unsigned kChunkBits = 8;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkBits;

  [[nodiscard]] Action& slot_ref(std::uint32_t slot) {
    return chunks_[slot >> kChunkBits][slot & (kChunkSize - 1)];
  }

  std::uint32_t acquire_slot() {
    if (!free_.empty()) {
      const std::uint32_t slot = free_.back();
      free_.pop_back();
      return slot;
    }
    return acquire_slot_slow();
  }
  std::uint32_t acquire_slot_slow();  // grows the slab (cold path)

  // A handle is live while its slot still holds its id. A cancelled
  // event's slot is not recycled until its handle leaves the heap, so a
  // mismatch can only mean "cancelled".
  [[nodiscard]] bool is_dead(const Handle& h) const {
    return ids_[h.id & kSlotMask] != h.id;
  }

  void pop_top() {
    const Handle last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0, last);
  }

  // Restores the invariants after a cancellation or a pop: the top handle
  // is live, and orphans number at most size() + kDeadSlack.
  void drop_dead();

  void sift_up(std::size_t i, Handle h) {
    Handle* a = heap_.data();
    while (i > 0) {
      const std::size_t parent = (i - 1) >> 2;
      if (!earlier(h, a[parent])) break;
      a[i] = a[parent];
      i = parent;
    }
    a[i] = h;
  }

  void sift_down(std::size_t i, Handle h) {
    const std::size_t n = heap_.size();
    Handle* a = heap_.data();
    for (;;) {
      const std::size_t first = (i << 2) + 1;
      std::size_t best;
      if (first + 3 < n) {
        // Full fan-out: pairwise min keeps the scan short-circuit-free.
        const std::size_t b0 = first + (earlier(a[first + 1], a[first]) ? 1 : 0);
        const std::size_t b1 =
            first + 2 + (earlier(a[first + 3], a[first + 2]) ? 1 : 0);
        best = earlier(a[b1], a[b0]) ? b1 : b0;
      } else if (first < n) {
        best = first;
        for (std::size_t c = first + 1; c < n; ++c) {
          if (earlier(a[c], a[best])) best = c;
        }
      } else {
        break;
      }
      if (!earlier(a[best], h)) break;
      a[i] = a[best];
      i = best;
    }
    a[i] = h;
  }

  std::vector<Handle> heap_;  // 4-ary min-heap of handles
  std::vector<std::unique_ptr<Action[]>> chunks_;  // slab, by slot
  std::vector<EventId> ids_;         // id held by each slot; kNoEvent if none
  std::vector<std::uint32_t> free_;  // recycled slab slots
  std::size_t dead_ = 0;             // cancelled handles still in heap_
  std::uint64_t next_seq_ = 1;       // from 1, so no id equals kNoEvent
};

}  // namespace clicsim::sim

// The event queue at the heart of the discrete-event engine.
//
// The queue is an indexed 4-ary min-heap over *intrusive* events, plus a
// one-event front slot: an Event carries its own deadline, FIFO sequence
// number, and heap slot, so scheduling, O(log n) cancellation, and in-place
// reschedule never allocate. Most events are scheduled earlier than
// everything already pending (a link's serialization-done, the next hop of
// a packet); those wait in the front slot and dispatch without a sift.
// Components that fire the same logical event repeatedly (retransmission
// timers, pacers, link transmissions) embed an Event subclass — usually via
// sim::Timer — and reuse it for the lifetime of the component.
//
// A thin `schedule(Time, std::function)` shim remains for tests, examples,
// and one-shot experiment setup (see docs/architecture.md, "Event & memory
// model", for when the shim is acceptable). Shim events are drawn from a
// slab of recycled FunctionEvent nodes owned by the queue, so even the shim
// does not malloc per event in steady state — only when the number of
// simultaneously-pending shim events reaches a new high-water mark.
//
// lint: hot-path — per-event code; no per-event allocation or type erasure.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "sim/annotations.h"
#include "sim/function_ref.h"
#include "sim/time.h"

namespace halfback::sim {

class EventQueue;
class FunctionEvent;

/// Base class for intrusive events.
///
/// An Event is scheduled into at most one EventQueue at a time. The queue
/// does not own it: the embedding component does, and must keep it alive
/// while queued (destroying a queued Event removes it from its queue
/// first). Dispatch removes the event from the queue *before* calling
/// fire(), so a callback may immediately reschedule the same object.
class Event {
 public:
  Event() = default;
  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;
  virtual ~Event();

  /// True while the event sits in a queue awaiting dispatch.
  bool queued() const { return heap_index_ != kNotQueued; }

  /// Absolute dispatch time; meaningful only while queued().
  Time deadline() const { return at_; }

 protected:
  /// Dispatch hook. Called with the event already removed from the queue.
  virtual void fire() = 0;

 private:
  friend class EventQueue;
  static constexpr std::size_t kNotQueued = static_cast<std::size_t>(-1);
  static constexpr std::size_t kInFront = kNotQueued - 1;  ///< in the front slot

  Time at_;
  std::uint64_t seq_ = 0;            ///< FIFO tie-break, fresh per (re)schedule
  std::size_t heap_index_ = kNotQueued;
  EventQueue* queue_ = nullptr;      ///< the queue holding us, while queued
};

/// Cancellable handle to an event scheduled through the std::function shim.
///
/// EventHandle is a weak reference: cancelling after the event fired (or was
/// already cancelled) is a no-op. A default-constructed handle refers to
/// nothing. Handles must not outlive the queue that issued them.
class EventHandle {
 public:
  EventHandle() = default;

  /// Prevent the event from firing. Safe to call at any time while the
  /// issuing queue is alive.
  void cancel();

  /// True if the event is still scheduled to fire.
  bool pending() const;

 private:
  friend class EventQueue;
  EventHandle(FunctionEvent* node, std::uint64_t token)
      : node_{node}, token_{token} {}

  FunctionEvent* node_ = nullptr;
  std::uint64_t token_ = 0;  ///< incarnation the handle refers to
};

/// Time-ordered queue of events. Events at equal times fire in scheduling
/// order (FIFO), which keeps runs deterministic; a reschedule counts as a
/// fresh scheduling for tie-break purposes.
class EventQueue {
 public:
  EventQueue();
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;
  ~EventQueue();

  // --- intrusive API (the allocation-free fast path) -----------------------

  /// Insert `event` at absolute time `at`. The event must not be queued.
  void schedule_event(Event& event, Time at) HB_EFFECTS(alloc, throw);

  /// Move `event` to absolute time `at`, in place, whether or not it is
  /// currently queued. Equivalent to cancel + schedule (the event receives
  /// a fresh FIFO sequence number) but without touching the heap twice.
  void reschedule_event(Event& event, Time at) HB_EFFECTS(alloc, throw);

  /// Remove `event` if queued; no-op otherwise.
  void cancel_event(Event& event) HB_EFFECTS();

  // --- std::function shim --------------------------------------------------

  /// Schedule `fn` at absolute time `at` on a recycled slab node.
  // lint: function-ok(the one sanctioned shim; setup/test path, slab-recycled)
  EventHandle schedule(Time at, std::function<void()> fn)
      HB_EFFECTS(alloc, throw);

  // --- queue driving -------------------------------------------------------

  /// True if no event remains.
  bool empty() const { return front_ == nullptr && heap_.empty(); }

  /// Number of pending events.
  std::size_t size() const { return heap_.size() + (front_ != nullptr ? 1 : 0); }

  /// Time of the earliest event. Requires !empty().
  Time next_time() const;

  /// The earliest event, without removing it. Requires !empty(). Read-only
  /// peek for the profiled dispatch loop: the profiler captures the
  /// event's dynamic type here, before run_next() hands the event to a
  /// fire() that may destroy or reschedule it.
  const Event& peek_next() const HB_EFFECTS() {
    return front_ != nullptr ? *front_ : *heap_[0].event;
  }

  /// Pop and run the earliest event; returns its time. Requires !empty().
  /// Throws std::logic_error instead if the event sorts before the previous
  /// dispatch in (time, seq) order, in every build.
  Time run_next() HB_EFFECTS(alloc, throw, rng);

  /// Drop all pending events.
  void clear();

  /// Visit every pending event in unspecified order. Read-only diagnostics
  /// walk — the budget machinery uses it for the post-trip pending-event
  /// census; callers must not schedule or cancel from `fn`.
  void for_each_pending(FunctionRef<void(const Event&)> fn) const {
    if (front_ != nullptr) fn(*front_);
    for (const HeapSlot& slot : heap_) fn(*slot.event);
  }

  /// Number of shim slab nodes ever allocated (diagnostics: steady-state
  /// shim traffic must not grow this).
  std::size_t shim_slab_size() const { return slab_.size(); }

 private:
  friend class EventHandle;
  friend class FunctionEvent;

  /// Heap entry: the ordering key is replicated next to the event pointer
  /// so sift comparisons read the contiguous heap array instead of chasing
  /// pointers to scattered Event nodes (the dominant cost at depth).
  struct HeapSlot {
    Time at;
    std::uint64_t seq = 0;
    Event* event = nullptr;
  };

  /// Heap branching factor (4-ary: shallower than binary, and the extra
  /// per-level compares all hit contiguous slots).
  static constexpr std::size_t kArity = 4;

  /// Heap ordering: earliest deadline first, FIFO on ties.
  static bool earlier(const HeapSlot& a, const HeapSlot& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }

  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  void place(std::size_t i, const HeapSlot& s) {
    heap_[i] = s;
    s.event->heap_index_ = i;
  }

  /// Insert `event`, whose key is already set, into the heap.
  void heap_insert(Event& event);

  /// True if an event due at `at` with a fresh sequence number would run
  /// before every pending event. A fresh seq is larger than every pending
  /// one, so it wins exactly when its time is strictly earlier.
  bool runs_first(Time at) const {
    if (front_ != nullptr) return at < front_->at_;
    return heap_.empty() || at < heap_.front().at;
  }

  /// Move the front-slot event, if any, into the heap (keeping its seq).
  void demote_front();

  /// Detach the earliest event (the front slot, else the heap root), marking
  /// it unqueued.
  Event* pop_earliest();

  FunctionEvent* acquire_shim();
  void release_shim(FunctionEvent* node);

  std::vector<HeapSlot> heap_;
  std::uint64_t next_seq_ = 0;

  /// The front slot. Invariant: when set, it holds the earliest pending
  /// event in (time, seq) order, and that event is not in heap_.
  Event* front_ = nullptr;

  // Shim slab: every FunctionEvent ever created lives here; free nodes are
  // chained through their next_free_ pointers.
  std::vector<std::unique_ptr<FunctionEvent>> slab_;
  FunctionEvent* free_head_ = nullptr;

  /// (time, seq) of the last dispatch; none yet is the lowest time.
  Time last_at_ = Time::nanoseconds(std::numeric_limits<std::int64_t>::min());
  std::uint64_t last_seq_ = 0;
};

}  // namespace halfback::sim

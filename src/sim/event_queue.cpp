// lint: hot-path — event dispatch; no per-event allocation or type erasure.
#include "sim/event_queue.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace halfback::sim {

/// Slab node backing the std::function shim. Owned by the queue; recycled
/// through a free list. `token_` identifies one incarnation (one schedule),
/// so stale EventHandles to a recycled node are inert.
class FunctionEvent final : public Event {
 public:
  explicit FunctionEvent(EventQueue* owner) : owner_{owner} {}

 private:
  friend class EventQueue;
  friend class EventHandle;

  // lint: fire-may-throw(runs an arbitrary user callback; throws must reach run()'s caller)
  void fire() override {
    // Move the callback out and recycle the node first, so the callback can
    // schedule (and the queue can reuse this node) while it runs.
    // lint: function-ok(shim node; only setup/test events reach this path)
    std::function<void()> fn = std::move(fn_);  // lint: hot-ok(moves the preallocated callback out; no construction)
    owner_->release_shim(this);
    fn();
  }

  EventQueue* owner_;
  std::function<void()> fn_;  // lint: function-ok(shim node storage)
  std::uint64_t token_ = 0;
  FunctionEvent* next_free_ = nullptr;
};

Event::~Event() {
  if (queued()) queue_->cancel_event(*this);
}

void EventHandle::cancel() {
  if (node_ == nullptr || node_->token_ != token_ || !node_->queued()) return;
  EventQueue* owner = node_->owner_;
  owner->cancel_event(*node_);
  owner->release_shim(node_);
}

bool EventHandle::pending() const {
  return node_ != nullptr && node_->token_ == token_ && node_->queued();
}

EventQueue::EventQueue() = default;
EventQueue::~EventQueue() { clear(); }

// --- heap maintenance --------------------------------------------------------

// The heap is 4-ary: for pointer-light slots the extra compares per level
// are all against contiguous memory, while the halved depth halves the
// slot moves and the scattered heap_index_ writes that go with them.

void EventQueue::sift_up(std::size_t i) {
  const HeapSlot s = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!earlier(s, heap_[parent])) break;
    place(i, heap_[parent]);
    i = parent;
  }
  place(i, s);
}

void EventQueue::sift_down(std::size_t i) {
  const HeapSlot s = heap_[i];
  const std::size_t n = heap_.size();
  while (true) {
    const std::size_t first = kArity * i + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = std::min(first + kArity, n);
    for (std::size_t c = first + 1; c < last; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], s)) break;
    place(i, heap_[best]);
    i = best;
  }
  place(i, s);
}

void EventQueue::heap_insert(Event& event) {
  // lint: hot-ok(amortized heap growth; steady state reuses capacity)
  heap_.push_back(HeapSlot{event.at_, event.seq_, &event});
  event.heap_index_ = heap_.size() - 1;
  sift_up(event.heap_index_);
}

// --- front slot --------------------------------------------------------------

// The front slot holds the earliest pending event outside the heap. An event
// enters it only when runs_first() holds, so the slot always precedes every
// heap entry; anything that would precede the slot's event demotes it first.

void EventQueue::demote_front() {
  if (front_ == nullptr) return;
  Event& event = *front_;
  front_ = nullptr;
  heap_insert(event);
}

Event* EventQueue::pop_earliest() {
  Event* event = front_;
  if (event != nullptr) {
    front_ = nullptr;
  } else {
    event = heap_.front().event;
    const HeapSlot last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
      place(0, last);
      sift_down(0);
    }
  }
  event->heap_index_ = Event::kNotQueued;
  event->queue_ = nullptr;
  return event;
}

// --- intrusive API -----------------------------------------------------------

void EventQueue::schedule_event(Event& event, Time at) {
  if (event.queued()) {
    // lint: hot-ok(programming-error guard; unreachable in a correct scheduler)
    throw std::logic_error{"EventQueue::schedule_event on an already-queued event"};
  }
  const bool first = runs_first(at);
  event.at_ = at;
  event.seq_ = next_seq_++;
  event.queue_ = this;
  if (first) {
    demote_front();
    front_ = &event;
    event.heap_index_ = Event::kInFront;
  } else {
    heap_insert(event);
  }
}

void EventQueue::reschedule_event(Event& event, Time at) {
  // The slot's event leaves it without a sift: reschedule it as cancel + schedule.
  if (&event == front_) cancel_event(event);
  if (!event.queued()) {
    schedule_event(event, at);
    return;
  }
  // A heap event moved before the front slot's becomes the earliest: the
  // slot's event goes back into the heap first (which may move this one).
  if (front_ != nullptr && at < front_->at_) demote_front();
  event.at_ = at;
  event.seq_ = next_seq_++;
  const std::size_t i = event.heap_index_;
  heap_[i].at = at;
  heap_[i].seq = event.seq_;
  // The new position can be in either direction; one of the sifts is a no-op.
  sift_up(i);
  sift_down(event.heap_index_);
}

void EventQueue::cancel_event(Event& event) {
  if (!event.queued() || event.queue_ != this) return;
  const std::size_t i = event.heap_index_;
  event.heap_index_ = Event::kNotQueued;
  event.queue_ = nullptr;
  if (&event == front_) {
    front_ = nullptr;
    return;
  }
  const HeapSlot last = heap_.back();
  heap_.pop_back();
  if (i < heap_.size()) {
    place(i, last);
    sift_up(i);
    sift_down(last.event->heap_index_);
  }
}

// --- std::function shim ------------------------------------------------------

FunctionEvent* EventQueue::acquire_shim() {
  if (free_head_ != nullptr) {
    FunctionEvent* node = free_head_;
    free_head_ = node->next_free_;
    node->next_free_ = nullptr;
    return node;
  }
  slab_.push_back(std::make_unique<FunctionEvent>(this));
  return slab_.back().get();
}

void EventQueue::release_shim(FunctionEvent* node) {
  ++node->token_;  // invalidate outstanding handles to this incarnation
  node->fn_ = nullptr;
  node->next_free_ = free_head_;
  free_head_ = node;
}

// lint: function-ok(the one sanctioned shim; setup/test path, slab-recycled)
EventHandle EventQueue::schedule(Time at, std::function<void()> fn) {
  FunctionEvent* node = acquire_shim();
  node->fn_ = std::move(fn);
  schedule_event(*node, at);
  return EventHandle{node, node->token_};
}

// --- queue driving -----------------------------------------------------------

Time EventQueue::next_time() const {
  if (front_ != nullptr) return front_->at_;
  if (heap_.empty()) throw std::logic_error{"EventQueue::next_time on empty queue"};
  return heap_.front().at;
}

Time EventQueue::run_next() {
  if (empty()) throw std::logic_error{"EventQueue::run_next on empty queue"};
  Event* event = pop_earliest();
  const Time at = event->at_;
  // Spelled out rather than earlier(), so a broken heap order cannot hide
  // behind the comparator that broke it.
  if (at < last_at_ || (at == last_at_ && event->seq_ < last_seq_)) {
    // lint: hot-ok(programming-error guard; unreachable in a correct scheduler)
    throw std::logic_error{"EventQueue::run_next: dispatch out of (time, seq) order"};
  }
  last_at_ = at;
  last_seq_ = event->seq_;
  // fire() may reschedule the event, or even destroy it (a timer firing its
  // owner's completion path); do not touch it after this call.
  event->fire();
  return at;
}

void EventQueue::clear() {
  if (front_ != nullptr) cancel_event(*front_);
  for (const HeapSlot& slot : heap_) {
    slot.event->heap_index_ = Event::kNotQueued;
    slot.event->queue_ = nullptr;
  }
  heap_.clear();
  // Recycle shim nodes (they are ours); intrusive events stay with their
  // owners. A non-empty fn_ marks a node that was scheduled and neither
  // fired nor cancelled — exactly the ones clear() just dropped.
  for (const std::unique_ptr<FunctionEvent>& node : slab_) {
    if (node->fn_ != nullptr) release_shim(node.get());
  }
}

}  // namespace halfback::sim

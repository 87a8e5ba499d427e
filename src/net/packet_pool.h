// Recycling pool for in-flight packet events.
//
// lint: hot-path — per-hop code; no per-packet allocation or type erasure.
//
// Every packet crossing a link needs a simulator event to land it at the far
// end of the propagation pipe, and many such packets are in flight at once.
// Before this pool existed each hop heap-allocated a type-erased callback
// capturing the packet; now a hop draws a PacketEvent node — an intrusive
// event with the packet payload embedded — from the pool and returns it on
// delivery, so steady-state forwarding performs no allocation per hop. The
// pool only mallocs when the number of simultaneously in-flight packets
// reaches a new high-water mark.
//
// Ownership rules (see docs/architecture.md, "Event & memory model"):
//  * One pool per Simulator. Network owns it (a Network is 1:1 with its
//    Simulator) and hands it to every link it builds; a link built bare
//    (tests) is handed a pool its builder owns.
//  * acquire() transfers ownership to the in-flight path: the caller must
//    either schedule the node and release() it exactly once from its
//    handler, or release() it immediately. Never release a queued node.
//  * The pool must outlive every node it handed out — components must not
//    hold PacketEvent pointers across simulator teardown.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/packet.h"
#include "sim/annotations.h"
#include "sim/event_queue.h"

namespace halfback::net {

/// An in-flight packet bound to the simulator event that will land it.
/// The handler is a plain function pointer plus context (re-bound on every
/// acquisition without allocating); it receives the node and must release()
/// it back to the pool when done with the payload.
class PacketEvent final : public sim::Event {
 public:
  using Handler = void (*)(void* context, PacketEvent& self);

  Packet packet;

 private:
  friend class PacketPool;

  // lint: fire-may-throw(delivery runs transport logic whose invariant checks throw; exceptions must reach run()'s caller)
  void fire() override { handler_(context_, *this); }

  Handler handler_ = nullptr;
  void* context_ = nullptr;
  PacketEvent* next_free_ = nullptr;
};

/// Allocation counters, exposed so tests can assert the steady state is
/// allocation-free.
struct PacketPoolStats {
  std::uint64_t acquired = 0;   ///< total acquire() calls
  std::uint64_t recycled = 0;   ///< acquires served from the free list
  std::uint64_t allocated = 0;  ///< acquires that had to malloc a node
  std::uint64_t outstanding = 0;  ///< nodes currently out of the pool
};

class PacketPool {
 public:
  PacketPool() = default;
  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;

  /// Draw a node and bind its dispatch handler. The node's packet field
  /// holds whatever the previous user left; assign it before scheduling.
  PacketEvent& acquire(PacketEvent::Handler handler, void* context)
      HB_EFFECTS(alloc) {
    ++stats_.acquired;
    ++stats_.outstanding;
    PacketEvent* node;
    if (free_head_ != nullptr) {
      ++stats_.recycled;
      node = free_head_;
      free_head_ = node->next_free_;
      node->next_free_ = nullptr;
    } else {
      ++stats_.allocated;
      // lint: hot-ok(pool growth path; steady state recycles the free list)
      slab_.push_back(std::make_unique<PacketEvent>());
      node = slab_.back().get();
    }
    node->handler_ = handler;
    node->context_ = context;
    return *node;
  }

  /// Return a node. It must not be queued in the event queue.
  void release(PacketEvent& node) HB_EFFECTS() {
    --stats_.outstanding;
    node.next_free_ = free_head_;
    free_head_ = &node;
  }

  const PacketPoolStats& stats() const { return stats_; }

 private:
  std::vector<std::unique_ptr<PacketEvent>> slab_;
  PacketEvent* free_head_ = nullptr;
  PacketPoolStats stats_;
};

}  // namespace halfback::net

// Unidirectional point-to-point link with an egress queue.
//
// lint: hot-path — per-packet code; no per-packet allocation or type erasure.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>

#include "net/fault_hook.h"
#include "net/node.h"
#include "net/packet.h"
#include "net/packet_pool.h"
#include "net/queue.h"
#include "sim/annotations.h"
#include "sim/bytes.h"
#include "sim/data_rate.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"

namespace halfback::telemetry {
class LinkTrack;
}

namespace halfback::net {

/// A per-packet random-loss probability, validated at construction: an
/// out-of-range rate fails loudly at topology build time instead of running
/// a silently absurd experiment. Converts implicitly from double so config
/// literals like `0.01` keep working.
class LossRate {
 public:
  constexpr LossRate() = default;
  constexpr LossRate(double rate) : rate_{validated(rate)} {}  // NOLINT(google-explicit-constructor)

  constexpr double value() const { return rate_; }
  constexpr bool is_zero() const { return rate_ <= 0.0; }

 private:
  static constexpr double validated(double rate) {
    if (!(rate >= 0.0 && rate <= 1.0)) {  // negated so NaN is rejected too
      throw std::invalid_argument{"loss rate must be within [0, 1]"};
    }
    return rate;
  }
  double rate_ = 0.0;
};

/// Counters a link maintains.
struct LinkStats {
  std::uint64_t delivered_packets = 0;
  sim::Bytes delivered_bytes;
  std::uint64_t corrupted_packets = 0;  ///< random-loss drops
  sim::Time busy_time;                  ///< total serialization time

  // Injected faults (zero unless a FaultHook is installed; see
  // src/netfault/ and docs/fault-injection.md).
  std::uint64_t fault_dropped_packets = 0;     ///< discarded by the hook
  std::uint64_t fault_duplicated_packets = 0;  ///< extra copies launched
  std::uint64_t fault_corrupted_packets = 0;   ///< delivered with bad payload
  std::uint64_t fault_delayed_packets = 0;     ///< given extra propagation delay
};

/// One direction of a point-to-point link.
///
/// Models serialization at `rate`, propagation over `delay`, an egress
/// queue for contention, and (optionally, for wireless access profiles) a
/// random per-packet error rate applied after serialization.
///
/// Event model: the transmitter serializes one packet at a time, so the
/// serialization-done event is a single reusable intrusive event embedded
/// in the link (`tx_done_`) and the in-service packet parks in
/// `tx_packet_`. The propagation pipe holds many packets at once, so each
/// launch draws a PacketEvent from the packet pool and returns it on
/// delivery. Steady-state forwarding therefore allocates nothing per hop.
class Link {
 public:
  /// `pool` is the recycling pool for in-flight packets (normally the
  /// owning Network's) and `dst_node` the far-end node every delivered
  /// packet is handed to; both must outlive the link.
  Link(sim::Simulator& simulator, sim::DataRate rate, sim::Time delay,
       std::unique_ptr<PacketQueue> queue, PacketPool& pool, Node& dst_node,
       LossRate random_loss_rate = {});

  /// Install (or clear, with nullptr) a fault-injection hook, consulted
  /// after serialization for every packet: the one way to inject loss,
  /// corruption, duplication or delay, for experiments (netfault) and
  /// tests alike. Not owned; the caller must keep it alive as long as the
  /// link transmits. With no hook installed the per-packet cost is a
  /// single null test (see on_serialization_done).
  void set_fault_hook(FaultHook* hook) { fault_hook_ = hook; }
  FaultHook* fault_hook() const { return fault_hook_; }

  /// Attach this link's telemetry track, and its queue's (nullptr
  /// detaches; owned by the telemetry Hub, see Hub::instrument_network).
  /// Fault hits are recorded on it, queue drops through the queue; with no
  /// track the per-packet cost is one null test.
  void set_track(telemetry::LinkTrack* track) {
    track_ = track;
    queue_->set_track(track);
  }

  /// Hand a packet to the link. It is queued if the transmitter is busy and
  /// may be dropped by the queue discipline.
  void send(Packet p) HB_EFFECTS(alloc, throw);

  sim::DataRate rate() const { return rate_; }
  /// The simulation clock, the time of whatever the link is doing now.
  sim::Time now() const { return simulator_.now(); }
  /// Id of the far-end node every delivered packet is handed to.
  NodeId far_end() const { return dst_node_.id(); }
  PacketQueue& queue() { return *queue_; }
  const PacketQueue& queue() const { return *queue_; }
  const LinkStats& stats() const { return stats_; }

  /// Fraction of [0, now] this link spent serializing packets.
  double utilization(sim::Time now) const {
    return now.is_zero() ? 0.0 : stats_.busy_time / now;
  }

 private:
  /// Serialization-complete event; one per link, reused for every packet
  /// (the transmitter serializes strictly one at a time).
  class TxDoneEvent final : public sim::Event {
   public:
    explicit TxDoneEvent(Link& link) : link_{link} {}

   private:
    // lint: fire-may-throw(drains the queue into transport logic whose invariant checks throw; exceptions must reach run()'s caller)
    void fire() override { link_.on_serialization_done(); }
    Link& link_;
  };

  void begin_transmission(Packet p);
  void on_serialization_done();
  void on_transmission_complete();

  /// Launch a packet into the propagation pipe, arriving after
  /// `pipe_delay` (>= delay_; fault hooks may stretch it).
  void launch(Packet p, sim::Time pipe_delay);
  /// Out-of-line slow path: consult fault_hook_ and act on its decision.
  void apply_faults();

  static void deliver_trampoline(void* context, PacketEvent& node);
  void deliver(PacketEvent& node);

  sim::Simulator& simulator_;
  sim::DataRate rate_;
  sim::Time delay_;
  std::unique_ptr<PacketQueue> queue_;
  LossRate random_loss_rate_;
  sim::Random loss_rng_;
  PacketPool& pool_;
  Node& dst_node_;
  FaultHook* fault_hook_ = nullptr;  ///< not owned; nullptr = fault-free fast path
  telemetry::LinkTrack* track_ = nullptr;  ///< not owned; nullptr = no telemetry
  bool transmitting_ = false;
  LinkStats stats_;
  TxDoneEvent tx_done_{*this};
  Packet tx_packet_;  ///< the packet currently serializing; valid while transmitting_
};

}  // namespace halfback::net

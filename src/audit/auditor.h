// Audit hook interface for the correctness-analysis layer.
//
// The simulator core (sim::EventQueue/Simulator), the network substrate
// (net::PacketQueue/Link/Network) and the transport (transport::SenderBase)
// invoke these hooks at every state transition worth checking: event
// scheduling and dispatch, queue admission/drop/drain, link delivery, and
// scoreboard updates. Hook call sites are always compiled; an uninstalled
// auditor costs one null-pointer test per hook.
//
// This header sits below every other layer: it depends only on sim/time.h
// and forward declarations, so sim/net/transport can call hooks without
// linking against the audit library. The concrete checker lives in
// invariant_auditor.h and pulls in the full net/transport types.
#pragma once

#include <cstdint>
#include <string>

#include "sim/time.h"

namespace halfback::net {
struct Packet;
class PacketQueue;
class Link;
}  // namespace halfback::net

namespace halfback::transport {
struct AckUpdate;
class Scoreboard;
}  // namespace halfback::transport

namespace halfback::audit {

/// Why a queue recorded a drop.
enum class DropContext : std::uint8_t {
  admission,  ///< rejected at enqueue, never occupied the queue
  in_queue,   ///< removed from the backlog by the discipline (CoDel)
};

/// Observer of simulator-core state transitions. Every hook has a no-op
/// default so auditors override only what they check. Hooks fire while the
/// observed object is in a consistent state (after the transition).
///
/// An Auditor instance belongs to exactly one Simulator; parallel
/// experiment shards each install their own (see exp/parallel.h — shards
/// share nothing, and that includes audit state).
class Auditor {
 public:
  virtual ~Auditor() = default;

  // --- sim: event engine ---------------------------------------------------

  /// An event was scheduled at absolute time `at` while the clock read
  /// `now`. A sane caller never schedules in the past.
  virtual void on_event_scheduled(sim::Time /*now*/, sim::Time /*at*/) {}

  /// The event with scheduling sequence number `seq` is about to run at
  /// time `at`. Dispatch must be time-monotone with FIFO tie-breaks.
  virtual void on_event_run(sim::Time /*at*/, std::uint64_t /*seq*/) {}

  // --- net: links and queues ----------------------------------------------

  /// A link was created (fires from Network::make_link and
  /// Network::install_auditor so the auditor can key per-link state).
  virtual void on_link_registered(const net::Link& /*link*/) {}

  /// A packet was handed to Link::send.
  virtual void on_link_offered(const net::Link& /*link*/,
                               const net::Packet& /*packet*/) {}

  /// Has no call site: a link drops injected losses only through its
  /// net::FaultHook (see on_link_fault_dropped). Kept declared only because
  /// perfbench's ForwardingAuditor (perfbench/src/replay.cpp) overrides it.
  virtual void on_link_filtered(const net::Link& /*link*/,
                                const net::Packet& /*packet*/) {}

  /// The random-loss process corrupted the packet after serialization.
  virtual void on_link_corrupted(const net::Link& /*link*/,
                                 const net::Packet& /*packet*/) {}

  /// The packet finished propagation and is about to reach the far node.
  virtual void on_link_delivered(const net::Link& /*link*/,
                                 const net::Packet& /*packet*/) {}

  // --- net: injected faults (netfault::FaultInjector via net::FaultHook) ---
  // These fire only when a fault hook is installed on the link, so they
  // never perturb audit state (or the trace hash) in fault-free runs.

  /// The fault hook discarded the packet after serialization (bursty loss,
  /// blackout window).
  virtual void on_link_fault_dropped(const net::Link& /*link*/,
                                     const net::Packet& /*packet*/) {}

  /// The fault hook launched an extra copy of the packet into the
  /// propagation pipe. Fires once per extra copy; the auditor extends the
  /// exactly-once delivery budget for the packet's uid accordingly.
  virtual void on_link_fault_duplicated(const net::Link& /*link*/,
                                        const net::Packet& /*packet*/) {}

  /// The fault hook flipped bits in the packet. It still propagates (and
  /// still counts against delivery conservation); the receiving transport
  /// rejects it by checksum.
  virtual void on_link_fault_corrupted(const net::Link& /*link*/,
                                       const net::Packet& /*packet*/) {}

  /// A queue admitted the packet (it is now part of the backlog).
  virtual void on_queue_enqueued(const net::PacketQueue& /*queue*/,
                                 const net::Packet& /*packet*/) {}

  /// A queue dropped the packet; see DropContext for where from.
  virtual void on_queue_dropped(const net::PacketQueue& /*queue*/,
                                const net::Packet& /*packet*/,
                                DropContext /*context*/) {}

  /// A queue handed the packet to the link for transmission.
  virtual void on_queue_dequeued(const net::PacketQueue& /*queue*/,
                                 const net::Packet& /*packet*/) {}

  /// A packet arrived at node `node` (delivered by Network's link receiver,
  /// before forwarding or local handling).
  virtual void on_node_received(std::uint32_t /*node*/,
                                const net::Packet& /*packet*/) {}

  // --- transport: sender-side bookkeeping ----------------------------------

  /// The sender transmitted segment `seq` of `flow` (scoreboard already
  /// updated). `scheme` is the sender's scheme name, so scheme-specific
  /// properties (Halfback's reverse-order ROPR) can be checked.
  virtual void on_segment_sent(const transport::Scoreboard& /*scoreboard*/,
                               std::uint64_t /*flow*/, const std::string& /*scheme*/,
                               std::uint32_t /*seq*/, bool /*proactive*/,
                               std::uint64_t /*uid*/) {}

  /// An ACK was applied to the scoreboard (which reflects the update).
  virtual void on_ack_applied(const transport::Scoreboard& /*scoreboard*/,
                              std::uint64_t /*flow*/,
                              const net::Packet& /*ack*/,
                              const transport::AckUpdate& /*update*/) {}
};

}  // namespace halfback::audit

/// Invoke an auditor hook if an auditor is installed. `auditor_expr` must be
/// an expression yielding `Auditor*`.
#define HALFBACK_AUDIT_HOOK(auditor_expr, call)                       \
  do {                                                                \
    if (::halfback::audit::Auditor* halfback_audit_a = (auditor_expr); \
        halfback_audit_a != nullptr) {                                \
      halfback_audit_a->call;                                         \
    }                                                                 \
  } while (false)

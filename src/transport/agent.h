// Per-host protocol stack: demultiplexes flows to senders and receivers.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "net/network.h"
#include "net/node.h"
#include "net/packet.h"
#include "sim/annotations.h"
#include "transport/receiver.h"
#include "transport/sender.h"
#include "transport/uid_set.h"

namespace halfback::transport {

/// Wire-delivery accounting for one host: what arrived, and what the
/// transport refused to act on. The rejected counters stay zero unless a
/// netfault::FaultInjector (or similar) is corrupting or duplicating
/// packets upstream.
struct DeliveryStats {
  std::uint64_t accepted = 0;            ///< packets dispatched to a flow
  std::uint64_t corrupted_rejected = 0;  ///< failed the checksum check
  std::uint64_t duplicate_rejected = 0;  ///< exact wire duplicate (same uid)
};

/// The host-side glue: owns every sender started on this host and every
/// receiver spawned by an incoming SYN, and routes arriving packets to
/// them. Install one agent per end host.
class TransportAgent {
 public:
  TransportAgent(sim::Simulator& simulator, net::Network& network, net::NodeId node);

  TransportAgent(const TransportAgent&) = delete;
  TransportAgent& operator=(const TransportAgent&) = delete;

  /// Take ownership of a sender and start it. The agent chains your
  /// completion callback after its own bookkeeping. The callback is a
  /// non-owning FunctionRef: its referent must outlive the flow (capture
  /// state in a long-lived object, not a temporary lambda).
  SenderBase& start_flow(std::unique_ptr<SenderBase> sender,
                         SenderBase::CompletionRef on_complete = {})
      HB_EFFECTS(alloc, throw);

  net::NodeId node_id() const { return node_.id(); }
  net::Node& node() { return node_; }

  /// Look up a live sender/receiver (nullptr if absent).
  SenderBase* sender(net::FlowId flow);
  Receiver* receiver(net::FlowId flow);

  /// Completed flow records accumulated on this host.
  const std::vector<FlowRecord>& completed() const { return completed_; }

  /// Wire-delivery accounting (checksum + duplicate rejection counters).
  const DeliveryStats& delivery_stats() const { return delivery_stats_; }

  std::size_t active_sender_count() const;

 private:
  /// A sender plus the caller's completion callback. The sender notifies
  /// the agent (on_sender_complete) through a FunctionRef; the agent then
  /// records the flow and chains the caller's callback — no per-flow
  /// std::function anywhere.
  struct FlowSlot {
    std::unique_ptr<SenderBase> sender;
    SenderBase::CompletionRef on_complete;
  };

  void on_packet(net::Packet packet) HB_EFFECTS(alloc);
  void on_sender_complete(const FlowRecord& record);

  sim::Simulator& simulator_;
  net::Node& node_;
  std::unordered_map<net::FlowId, FlowSlot> senders_;
  std::unordered_map<net::FlowId, std::unique_ptr<Receiver>> receivers_;
  std::vector<FlowRecord> completed_;
  DeliveryStats delivery_stats_;
  /// Wire uids already dispatched on this host, one bitmap per uid flow
  /// prefix (`uid >> 24`), indexed by `((uid & 0xffffff) << 2) | type` so
  /// a sender-assigned data uid and a receiver-assigned ACK uid of the same
  /// flow can never collide. Injected duplicates are exact copies — same
  /// uid — so they are rejected here, once, at the delivery boundary.
  std::unordered_map<std::uint64_t, DenseUidSet> seen_uids_;
};

}  // namespace halfback::transport

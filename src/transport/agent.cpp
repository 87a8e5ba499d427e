#include "transport/agent.h"

#include <utility>

namespace halfback::transport {

TransportAgent::TransportAgent(sim::Simulator& simulator, net::Network& network,
                               net::NodeId node)
    : simulator_{simulator}, node_{network.node(node)} {
  node_.set_local_handler([this](net::Packet p) { on_packet(std::move(p)); });
}

SenderBase& TransportAgent::start_flow(std::unique_ptr<SenderBase> sender,
                                       SenderBase::CompletionRef on_complete) {
  SenderBase& ref = *sender;
  const net::FlowId flow = ref.record().flow;
  ref.set_completion_callback(
      SenderBase::CompletionRef::from<&TransportAgent::on_sender_complete>(
          *this));
  senders_[flow] = FlowSlot{std::move(sender), on_complete};
  ref.start();
  return ref;
}

void TransportAgent::on_sender_complete(const FlowRecord& record) {
  completed_.push_back(record);
  auto it = senders_.find(record.flow);
  if (it != senders_.end() && it->second.on_complete) {
    it->second.on_complete(record);
  }
}

SenderBase* TransportAgent::sender(net::FlowId flow) {
  auto it = senders_.find(flow);
  return it == senders_.end() ? nullptr : it->second.sender.get();
}

Receiver* TransportAgent::receiver(net::FlowId flow) {
  auto it = receivers_.find(flow);
  return it == receivers_.end() ? nullptr : it->second.get();
}

std::size_t TransportAgent::active_sender_count() const {
  std::size_t active = 0;
  for (const auto& [flow, slot] : senders_) {
    if (!slot.sender->complete()) ++active;
  }
  return active;
}

void TransportAgent::on_packet(net::Packet packet) {
  // Checksum check: a payload corrupted in flight (netfault) fails
  // verification here, before any flow state can act on it. The sender's
  // normal loss machinery recovers, exactly as for a dropped packet.
  if (packet.corrupted) {
    ++delivery_stats_.corrupted_rejected;
    return;
  }
  // Wire-duplicate rejection: a link-level duplicate is an exact copy of an
  // earlier transmission, uid included. Transport state downstream is
  // idempotent anyway (receiver bitmap, scoreboard monotonicity), but
  // rejecting the copy here keeps duplication from double-sampling RTTs or
  // re-triggering ACK-clocked machinery. uid 0 marks packets outside the
  // uid scheme (bare-component tests); those skip dedup.
  if (packet.uid != 0) {
    const std::uint64_t key = ((packet.uid & 0xffffff) << 2) |
                              static_cast<std::uint64_t>(packet.type);
    if (!seen_uids_[packet.uid >> 24].insert(key)) {
      ++delivery_stats_.duplicate_rejected;
      return;
    }
  }
  ++delivery_stats_.accepted;
  switch (packet.type) {
    case net::PacketType::syn: {
      auto it = receivers_.find(packet.flow);
      if (it == receivers_.end()) {
        auto receiver = std::make_unique<Receiver>(simulator_, node_, packet.src,
                                                   packet.flow);
        it = receivers_.emplace(packet.flow, std::move(receiver)).first;
      }
      it->second->on_packet(packet);
      break;
    }
    case net::PacketType::data: {
      auto it = receivers_.find(packet.flow);
      if (it != receivers_.end()) it->second->on_packet(packet);
      // Data for an unknown flow (SYN lost): drop; the sender's SYN retry
      // will re-create state. Senders only emit data after the handshake,
      // so this happens only in pathological reorderings.
      break;
    }
    case net::PacketType::syn_ack:
    case net::PacketType::ack: {
      auto it = senders_.find(packet.flow);
      if (it != senders_.end()) it->second.sender->on_packet(packet);
      break;
    }
  }
}

}  // namespace halfback::transport

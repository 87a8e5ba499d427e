#include "audit/invariant_auditor.h"

#include <bit>
#include <sstream>

#include "net/link.h"
#include "net/packet.h"
#include "net/queue.h"
#include "transport/scoreboard.h"

namespace halfback::audit {

// --- flat shadow state -------------------------------------------------------

std::size_t InvariantAuditor::ShadowIndex::home(Kind kind, std::uint64_t key) const {
  // Fibonacci hashing: the multiply spreads aligned addresses and
  // consecutive flow ids alike, and the top bits pick the slot.
  const std::uint64_t tagged = key + static_cast<std::uint64_t>(kind);
  return static_cast<std::size_t>((tagged * 0x9e3779b97f4a7c15ULL) >> shift_);
}

std::pair<std::uint32_t, bool> InvariantAuditor::ShadowIndex::emplace(
    Kind kind, std::uint64_t key, std::uint32_t next) {
  if ((size_ + 1) * 2 > slots_.size()) grow();
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = home(kind, key);; i = (i + 1) & mask) {
    Slot& slot = slots_[i];
    if (slot.position == 0) {
      slot = Slot{key, kind, next + 1};
      ++size_;
      return {next, true};
    }
    if (slot.key == key && slot.kind == kind) return {slot.position - 1, false};
  }
}

void InvariantAuditor::ShadowIndex::grow() {
  std::vector<Slot> old = std::move(slots_);
  const std::size_t capacity = old.empty() ? 64 : 2 * old.size();
  slots_.assign(capacity, Slot{});
  shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
  const std::size_t mask = capacity - 1;
  for (const Slot& slot : old) {
    if (slot.position == 0) continue;
    std::size_t i = home(slot.kind, slot.key);
    while (slots_[i].position != 0) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

InvariantAuditor::QueueShadow& InvariantAuditor::queue_shadow(
    const net::PacketQueue& queue) {
  const auto [position, fresh] =
      index_.emplace(ShadowIndex::Kind::queue, reinterpret_cast<std::uintptr_t>(&queue),
                     static_cast<std::uint32_t>(queues_.size()));
  if (fresh) queues_.push_back(QueueShadow{.queue = &queue});
  return queues_[position];
}

InvariantAuditor::LinkShadow& InvariantAuditor::link_shadow(const net::Link& link) {
  const auto [position, fresh] =
      index_.emplace(ShadowIndex::Kind::link, reinterpret_cast<std::uintptr_t>(&link),
                     static_cast<std::uint32_t>(links_.size()));
  if (fresh) links_.push_back(LinkShadow{.link = &link});
  return links_[position];
}

InvariantAuditor::FlowShadow& InvariantAuditor::flow_shadow(std::uint64_t flow) {
  const auto [position, fresh] = index_.emplace(
      ShadowIndex::Kind::flow, flow, static_cast<std::uint32_t>(flows_.size()));
  if (fresh) flows_.emplace_back(flow);
  return flows_[position];
}

// --- reporting ---------------------------------------------------------------

void InvariantAuditor::violation(std::string what) {
  ++total_violations_;
  if (violations_.size() < kMaxStoredViolations) violations_.push_back(std::move(what));
}

std::string InvariantAuditor::report() const {
  std::ostringstream out;
  for (const std::string& v : violations_) out << v << '\n';
  if (total_violations_ > violations_.size()) {
    out << "... and " << (total_violations_ - violations_.size())
        << " further violations not stored\n";
  }
  return out.str();
}

// --- sim -------------------------------------------------------------------

void InvariantAuditor::on_event_scheduled(sim::Time now, sim::Time at) {
  if (at < now) {
    std::ostringstream out;
    out << "event scheduled in the past: at=" << at.to_string()
        << " now=" << now.to_string();
    violation(out.str());
  }
}

void InvariantAuditor::on_event_run(sim::Time at, std::uint64_t seq) {
  if (have_last_event_) {
    if (at < last_event_time_) {
      std::ostringstream out;
      out << "event time went backwards: " << last_event_time_.to_string()
          << " -> " << at.to_string();
      violation(out.str());
    } else if (at == last_event_time_ && seq <= last_event_seq_) {
      std::ostringstream out;
      out << "FIFO tie-break violated at " << at.to_string() << ": seq "
          << last_event_seq_ << " ran before seq " << seq;
      violation(out.str());
    }
  }
  have_last_event_ = true;
  last_event_time_ = at;
  last_event_seq_ = seq;
  mix(static_cast<std::uint64_t>(at.ns()));
  mix(seq);
}

// --- net: links ------------------------------------------------------------

void InvariantAuditor::on_link_registered(const net::Link& link) {
  const auto position = static_cast<std::uint32_t>(&link_shadow(link) - links_.data());
  queue_shadow(link.queue()).link = position;
}

void InvariantAuditor::on_link_offered(const net::Link& link,
                                       const net::Packet& packet) {
  ++link_shadow(link).offered;
  if (packet.type == net::PacketType::data) {
    flow_shadow(packet.flow).wire_seqs.insert(packet.seq);
  }
  mix(packet.uid);
}

void InvariantAuditor::on_link_corrupted(const net::Link& link,
                                         const net::Packet& /*packet*/) {
  LinkShadow& shadow = link_shadow(link);
  ++shadow.corrupted;
  if (shadow.accounted() > shadow.expected()) {
    violation("link accounted for more packets than were offered (corruption)");
  }
}

void InvariantAuditor::on_link_delivered(const net::Link& link,
                                         const net::Packet& packet) {
  LinkShadow& shadow = link_shadow(link);
  ++shadow.delivered;
  if (shadow.accounted() > shadow.expected()) {
    std::ostringstream out;
    out << "link delivered more packets than were offered: offered="
        << shadow.offered << " (+" << shadow.fault_duplicated
        << " duplicated) delivered=" << shadow.delivered
        << " (uid " << packet.uid << ")";
    violation(out.str());
  }
  mix(packet.uid);
  mix(packet.seq);
}

// --- net: injected faults ----------------------------------------------------
// These hooks fire only when a netfault::FaultInjector (or other FaultHook)
// is installed, so nothing here can perturb a fault-free run's books or
// trace hash. Each mixes into the hash: same seed + same fault config must
// reproduce the exact fault sequence.

void InvariantAuditor::on_link_fault_dropped(const net::Link& link,
                                             const net::Packet& packet) {
  LinkShadow& shadow = link_shadow(link);
  ++shadow.fault_dropped;
  if (shadow.accounted() > shadow.expected()) {
    violation("link accounted for more packets than were offered (fault drop)");
  }
  mix(packet.uid);
}

void InvariantAuditor::on_link_fault_duplicated(const net::Link& link,
                                                const net::Packet& packet) {
  ++link_shadow(link).fault_duplicated;
  // Extend the destination delivery budget for this transmission: one
  // injected copy = one extra legitimate arrival of the same uid.
  if (packet.type == net::PacketType::data && packet.uid != 0) {
    ++flow_shadow(packet.flow).repeats[packet.uid].credit;
  }
  mix(packet.uid);
}

void InvariantAuditor::on_link_fault_corrupted(const net::Link& link,
                                               const net::Packet& packet) {
  // A corrupted packet still propagates and is counted by on_link_delivered;
  // no conservation change, but the event is part of the deterministic trace.
  link_shadow(link);
  mix(packet.uid);
}

// --- net: queues -----------------------------------------------------------

void InvariantAuditor::on_queue_enqueued(const net::PacketQueue& queue,
                                         const net::Packet& packet) {
  QueueShadow& shadow = queue_shadow(queue);
  shadow.bytes += packet.size_bytes;
  ++shadow.packets;
  ++shadow.enqueued;
  const std::uint64_t held = queue.byte_length();
  if (held != shadow.bytes) {
    std::ostringstream out;
    out << "queue byte accounting diverged after enqueue: queue reports "
        << held << " B, audit expects " << shadow.bytes << " B";
    violation(out.str());
  }
  const std::uint64_t capacity = queue.capacity_bytes();
  if (capacity > 0 && held > capacity) {
    std::ostringstream out;
    out << "queue over-full: holds " << held << " B, capacity "
        << capacity << " B";
    violation(out.str());
  }
}

void InvariantAuditor::on_queue_dropped(const net::PacketQueue& queue,
                                        const net::Packet& packet,
                                        DropContext context) {
  QueueShadow& shadow = queue_shadow(queue);
  ++shadow.dropped;
  if (context == DropContext::in_queue) {
    // The discipline removed a resident packet (CoDel's dequeue-side drop).
    if (shadow.bytes < packet.size_bytes || shadow.packets == 0) {
      violation("queue dropped a resident packet it never admitted");
    } else {
      shadow.bytes -= packet.size_bytes;
      --shadow.packets;
    }
  }
  if (shadow.link != kNoLink) ++links_[shadow.link].queue_dropped;
}

void InvariantAuditor::on_queue_dequeued(const net::PacketQueue& queue,
                                         const net::Packet& packet) {
  QueueShadow& shadow = queue_shadow(queue);
  if (shadow.bytes < packet.size_bytes || shadow.packets == 0) {
    violation("queue released a packet it never admitted");
  } else {
    shadow.bytes -= packet.size_bytes;
    --shadow.packets;
  }
  ++shadow.dequeued;
  const std::uint64_t held = queue.byte_length();
  if (held != shadow.bytes) {
    std::ostringstream out;
    out << "queue byte accounting diverged after dequeue: queue reports "
        << held << " B, audit expects " << shadow.bytes << " B";
    violation(out.str());
  }
}

// --- net: nodes ------------------------------------------------------------

void InvariantAuditor::on_node_received(std::uint32_t node,
                                        const net::Packet& packet) {
  // Delivery-uniqueness check at the destination: a wire transmission (one
  // uid) must reach its destination at most once. Forwarding hops are
  // excluded — the same uid legitimately transits several nodes.
  if (packet.type != net::PacketType::data || packet.uid == 0) return;
  if (packet.dst != node) return;
  // Note: uniqueness per uid is the invariant; comparing the count of
  // delivered uids against sender-side sends would be unsound, because some
  // schemes (RC3's low-priority RLP copies) transmit outside the
  // SenderBase::send_segment path that feeds on_segment_sent.
  FlowShadow& flow = flow_shadow(packet.flow);
  // A first arrival is always within budget; only repeats need the books.
  if (flow.arrived.insert(packet.uid)) return;
  RepeatBook& book = flow.repeats[packet.uid];
  const std::uint32_t count = 1 + ++book.repeats;
  const std::uint32_t allowed = 1 + book.credit;
  if (count > allowed) {
    std::ostringstream out;
    out << "packet delivered to its destination more often than sent: flow "
        << packet.flow << " seq " << packet.seq << " uid " << packet.uid
        << " arrived " << count << "x with a budget of " << allowed
        << " (1 + injected duplicates)";
    violation(out.str());
  }
}

// --- transport -------------------------------------------------------------

void InvariantAuditor::on_segment_sent(const transport::Scoreboard& scoreboard,
                                       std::uint64_t flow, const std::string& scheme,
                                       std::uint32_t seq, bool proactive,
                                       std::uint64_t uid) {
  FlowShadow& shadow = flow_shadow(flow);
  if (seq >= scoreboard.total_segments()) {
    violation("segment sent beyond the flow length");
  }
  // Halfback's ROPR property (§3.2): proactive retransmissions walk strictly
  // backwards from the end of the paced batch. Ablations ("halfback-forward",
  // Proactive TCP) legitimately differ, so the check is name-gated.
  if (proactive && scheme == "halfback") {
    if (shadow.have_proactive && seq >= shadow.last_proactive_seq) {
      std::ostringstream out;
      out << "ROPR order violated on flow " << flow << ": proactive retx of seq "
          << seq << " after seq " << shadow.last_proactive_seq;
      violation(out.str());
    }
    shadow.have_proactive = true;
    shadow.last_proactive_seq = seq;
  }
  mix(uid);
  mix(seq);
}

void InvariantAuditor::on_ack_applied(const transport::Scoreboard& scoreboard,
                                      std::uint64_t flow, const net::Packet& ack,
                                      const transport::AckUpdate& update) {
  FlowShadow& shadow = flow_shadow(flow);
  if (update.cum_ack_after < update.cum_ack_before ||
      update.cum_ack_before < shadow.cum_ack) {
    std::ostringstream out;
    out << "cumulative ACK moved backwards on flow " << flow << ": "
        << shadow.cum_ack << " -> " << update.cum_ack_after;
    violation(out.str());
  }
  shadow.cum_ack = update.cum_ack_after;
  if (update.cum_ack_after > scoreboard.total_segments()) {
    violation("cumulative ACK beyond the flow length");
  }
  // sacked => sent: the receiver can only SACK a segment that crossed the
  // wire, so a SACK for a never-transmitted segment means corrupted
  // accounting. Checked against both the scoreboard and the wire trace:
  // RC3's RLP copies legitimately reach the receiver without a scoreboard
  // entry, but never without a link transmission.
  for (std::uint32_t seq : update.newly_sacked) {
    const transport::SegmentState* state = scoreboard.state(seq);
    const bool in_scoreboard = state != nullptr && state->times_sent > 0;
    if (!in_scoreboard && !shadow.wire_seqs.contains(seq)) {
      std::ostringstream out;
      out << "segment " << seq << " of flow " << flow
          << " was SACKed but never sent";
      violation(out.str());
    }
  }
  if (scoreboard.pipe() > scoreboard.total_segments()) {
    violation("pipe() exceeds the flow length");
  }
  mix(ack.cum_ack);
  mix(static_cast<std::uint64_t>(ack.sacks.size()));
}

// --- finalize ----------------------------------------------------------------

void InvariantAuditor::finalize(bool drained) {
  for (const LinkShadow& shadow : links_) {
    const std::uint64_t queued = shadow.link->queue().packet_count();
    if (shadow.accounted() + queued > shadow.expected()) {
      std::ostringstream out;
      out << "link conservation violated: offered=" << shadow.offered
          << " (+" << shadow.fault_duplicated << " duplicated)"
          << " delivered=" << shadow.delivered << " corrupted=" << shadow.corrupted
          << " dropped=" << shadow.queue_dropped
          << " fault_dropped=" << shadow.fault_dropped << " queued=" << queued;
      violation(out.str());
    }
    if (drained && shadow.accounted() + queued < shadow.expected()) {
      std::ostringstream out;
      out << "link lost packets: offered=" << shadow.offered << " (+"
          << shadow.fault_duplicated << " duplicated) but only "
          << shadow.accounted() << " accounted and " << queued
          << " queued after the event queue drained";
      violation(out.str());
    }
  }
  for (const QueueShadow& shadow : queues_) {
    const std::uint64_t held = shadow.queue->byte_length();
    const std::uint64_t packets = shadow.queue->packet_count();
    if (held != shadow.bytes || packets != shadow.packets) {
      std::ostringstream out;
      out << "queue residue mismatch at end of run: queue reports "
          << held << " B / " << packets
          << " pkts, audit expects " << shadow.bytes << " B / " << shadow.packets
          << " pkts";
      violation(out.str());
    }
    if (drained && shadow.enqueued != shadow.dequeued + shadow.packets &&
        shadow.dropped == 0) {
      violation("queue packet conservation violated after drain");
    }
  }
}

}  // namespace halfback::audit

#include "transport/receiver.h"

#include <algorithm>

namespace halfback::transport {

void Receiver::on_packet(const net::Packet& packet) {
  switch (packet.type) {
    case net::PacketType::syn:
      handle_syn(packet);
      break;
    case net::PacketType::data:
      handle_data(packet);
      break;
    default:
      break;  // receivers ignore stray ACK/SYN-ACK
  }
}

void Receiver::handle_syn(const net::Packet& syn) {
  if (stats_.total_segments == 0) stats_.total_segments = syn.total_segments;
  net::Packet reply;
  reply.flow = flow_;
  reply.type = net::PacketType::syn_ack;
  reply.src = node_.id();
  reply.dst = peer_;
  reply.size_bytes = net::kControlWireBytes;
  reply.echo_uid = syn.uid;
  reply.uid = (flow_ << 24) + next_uid_++;
  reply.sent_at = simulator_.now();
  node_.send(std::move(reply));
}

void Receiver::handle_data(const net::Packet& data) {
  // A receiver can see data before the SYN if the SYN-ACK was lost and the
  // sender opened anyway; take the flow length from the data header.
  if (stats_.total_segments == 0) stats_.total_segments = data.total_segments;
  ++stats_.data_packets;
  if (stats_.data_packets == 1) stats_.first_data_at = simulator_.now();

  if (data.seq < stats_.total_segments && note_received(data.seq)) {
    ++stats_.unique_segments;
    const auto first = runs_.begin();
    if (first->first == 0) cum_ack_ = first->second;
    if (!stats_.complete && stats_.unique_segments == stats_.total_segments) {
      stats_.complete = true;
      stats_.complete_at = simulator_.now();
    }
  } else {
    ++stats_.duplicate_segments;
  }
  send_ack(data);
}

bool Receiver::note_received(std::uint32_t seq) {
  // Merge [seq, seq + 1) into the run set: extend the left-adjacent run,
  // absorb the right-adjacent one, or open a new run.
  const auto after = runs_.upper_bound(seq);  // first run starting above seq
  const auto right =
      after != runs_.end() && after->first == seq + 1 ? after : runs_.end();
  if (after != runs_.begin()) {
    const auto left = std::prev(after);
    if (left->second > seq) return false;  // already held
    if (left->second == seq) {
      left->second = seq + 1;
      if (right != runs_.end()) {
        left->second = right->second;
        runs_.erase(right);
      }
      return true;
    }
  }
  if (right != runs_.end()) {
    const std::uint32_t end = right->second;
    runs_.erase(right);
    runs_.emplace(seq, end);
  } else {
    runs_.emplace(seq, seq + 1);
  }
  return true;
}

net::SackBlock Receiver::run_containing(std::uint32_t seq) const {
  net::SackBlock block{seq, seq};
  auto after = runs_.upper_bound(seq);  // first run starting above seq
  if (after == runs_.begin()) return block;  // empty: seq not received
  const auto run = std::prev(after);
  if (seq >= run->second) return block;  // empty: gap after the prior run
  // A run never reports below the cumulative ACK, which covers those
  // segments.
  block.begin = std::max(run->first, cum_ack_);
  block.end = run->second;
  return block;
}

net::SackList Receiver::build_sack_blocks(std::uint32_t trigger_seq) {
  // TCP SACK semantics: the first block covers the segment that triggered
  // this ACK; the remaining slots repeat the most recently reported other
  // runs. The sender accumulates blocks across ACKs in its scoreboard.
  if (trigger_seq >= cum_ack_) {
    std::erase(recent_seqs_, trigger_seq);
    recent_seqs_.insert(recent_seqs_.begin(), trigger_seq);
    if (recent_seqs_.size() > 2 * kMaxSackBlocks) {
      recent_seqs_.resize(2 * kMaxSackBlocks);
    }
  }
  net::SackList blocks;
  for (std::uint32_t anchor : recent_seqs_) {
    if (blocks.size() >= kMaxSackBlocks) break;
    if (anchor < cum_ack_) continue;  // merged into the cumulative ACK
    net::SackBlock block = run_containing(anchor);
    if (block.begin >= block.end) continue;
    bool duplicate = false;
    for (const net::SackBlock& existing : blocks) {
      if (existing.begin <= block.begin && block.end <= existing.end) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate) blocks.push_back(block);
  }
  // Drop anchors that have been absorbed by the cumulative ACK.
  std::erase_if(recent_seqs_, [this](std::uint32_t s) { return s < cum_ack_; });
  return blocks;
}

void Receiver::send_ack(const net::Packet& trigger) {
  net::Packet ack;
  ack.flow = flow_;
  ack.type = net::PacketType::ack;
  ack.src = node_.id();
  ack.dst = peer_;
  ack.size_bytes = net::kAckWireBytes;
  ack.seq = trigger.seq;
  ack.cum_ack = cum_ack_;
  ack.sacks = build_sack_blocks(trigger.seq);
  ack.echo_uid = trigger.uid;
  ack.uid = (flow_ << 24) + next_uid_++;
  ack.sent_at = simulator_.now();
  ++stats_.acks_sent;
  node_.send(std::move(ack));
}

}  // namespace halfback::transport

// Wire packets exchanged by simulated hosts.
//
// The transport in this codebase (like the paper's UDT substrate) works at
// segment granularity: a data packet carries one MSS-sized segment and is
// identified by its segment index within the flow, not a byte offset.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "sim/time.h"

namespace halfback::net {

using NodeId = std::uint32_t;
using FlowId = std::uint64_t;

/// Wire sizes, matching the paper's setup: "the segment size is 1500 bytes
/// including the header".
inline constexpr std::uint32_t kSegmentWireBytes = 1500;
inline constexpr std::uint32_t kHeaderBytes = 52;
inline constexpr std::uint32_t kSegmentPayloadBytes = kSegmentWireBytes - kHeaderBytes;
inline constexpr std::uint32_t kAckWireBytes = 52;
inline constexpr std::uint32_t kControlWireBytes = 52;  // SYN / SYN-ACK

enum class PacketType : std::uint8_t {
  syn,
  syn_ack,
  data,
  ack,
};

const char* to_string(PacketType t);

/// A half-open range of segment indices [begin, end) reported by a
/// selective acknowledgement.
struct SackBlock {
  std::uint32_t begin = 0;
  std::uint32_t end = 0;

  bool operator==(const SackBlock&) const = default;
};

/// The SACK option of one ACK: a bounded, inline list of blocks.
///
/// A real SACK option caps out at three or four blocks, so the list lives
/// inline in the packet rather than on the heap — packets stay trivially
/// copyable and the per-ACK path never allocates. push_back beyond capacity
/// drops the block, mirroring how a real option silently omits runs that
/// do not fit (the receiver already bounds itself to
/// transport::Receiver::kMaxSackBlocks).
class SackList {
 public:
  static constexpr std::size_t kMaxBlocks = 4;

  void push_back(const SackBlock& block) {
    if (size_ < kMaxBlocks) blocks_[size_++] = block;
  }
  void clear() { size_ = 0; }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const SackBlock& operator[](std::size_t i) const { return blocks_[i]; }

  const SackBlock* begin() const { return blocks_; }
  const SackBlock* end() const { return blocks_ + size_; }
  const SackBlock* data() const { return blocks_; }

  operator std::span<const SackBlock>() const { return {blocks_, size_}; }

  bool operator==(const SackList& other) const {
    if (size_ != other.size_) return false;
    for (std::size_t i = 0; i < size_; ++i) {
      if (!(blocks_[i] == other.blocks_[i])) return false;
    }
    return true;
  }

 private:
  SackBlock blocks_[kMaxBlocks];
  std::size_t size_ = 0;
};

/// A simulated packet. Value type; links copy it as it propagates.
struct Packet {
  FlowId flow = 0;
  PacketType type = PacketType::data;
  NodeId src = 0;
  NodeId dst = 0;
  std::uint32_t size_bytes = 0;

  /// data: segment index carried. ack: echoes the segment being acked
  /// (used by the sender for tracing; RTT sampling uses echo_uid).
  std::uint32_t seq = 0;

  /// ack: cumulative acknowledgement — the lowest segment index the
  /// receiver has NOT yet received.
  std::uint32_t cum_ack = 0;

  /// data/syn: flow length in segments, so the receiver knows when the
  /// flow is complete.
  std::uint32_t total_segments = 0;

  /// ack: selective acknowledgement blocks above cum_ack (most recent
  /// first, bounded length like a real SACK option).
  SackList sacks;

  /// data: true when this is any kind of retransmission.
  bool is_retx = false;
  /// Service priority: 0 = normal, 1 = background/low (RC3's RLP copies).
  /// Only PriorityQueue bottlenecks differentiate; other queues ignore it.
  std::uint8_t priority = 0;
  /// data: true when this is a *proactive* retransmission (ROPR or
  /// Proactive-TCP duplicate), as opposed to a loss-triggered one.
  bool is_proactive = false;

  /// Payload was corrupted in flight by a fault injector (net::FaultHook).
  /// The packet still propagates and consumes link/queue resources; the
  /// receiving transport's checksum check rejects it on arrival.
  bool corrupted = false;

  /// Unique id of this transmission (every send, including retransmissions,
  /// gets a fresh uid). ACKs echo the uid of the packet that triggered them
  /// so senders can take Karn-safe RTT samples.
  std::uint64_t uid = 0;
  std::uint64_t echo_uid = 0;

  /// Time the packet was handed to the first link (for tracing).
  sim::Time sent_at;

  std::string to_string() const;
};

}  // namespace halfback::net

// Runtime invariant checker for the discrete-event core.
//
// Checks, continuously while a simulation runs:
//  - event-time monotonicity and FIFO tie-break order in the event engine,
//    and that nothing is scheduled in the past;
//  - queue byte/packet accounting (a queue's reported byte_length must equal
//    the bytes of the packets it admitted and has not yet released) and the
//    capacity bound (drop-tail may never hold more than its configured
//    bytes);
//  - per-link packet conservation: every packet offered to a link is
//    eventually delivered, corrupted, or dropped by its queue or its fault
//    hook — never duplicated, never lost without account;
//  - per-flow delivery uniqueness: no wire transmission (uid) reaches the
//    destination twice;
//  - scoreboard consistency: the cumulative ACK is monotone, SACKed
//    segments were actually sent, and pipe() never exceeds the flow length;
//  - Halfback's ROPR reverse-order property: proactive retransmissions of a
//    "halfback" flow walk strictly backwards;
//  - per-seed determinism, via an order-sensitive hash of the run trace
//    (event times, dispatch order, deliveries, sends, ACKs) that two
//    same-seed runs must reproduce exactly.
//
// Violations are collected, not thrown: a run completes and the caller
// inspects ok()/violations(). Install with Network::install_auditor (which
// also covers the owning Simulator), or Simulator::set_auditor plus
// PacketQueue::set_auditor for bare components.
//
// The shadow state is flat: links, queues and flows live in vectors in the
// order the auditor first sees them, found through one open-addressing
// index, and the per-flow sets are flat too. In steady state a hook does a
// constant amount of work and no heap allocation; the containers only grow
// (amortized) as a run meets new links, flows, uids and segments.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "audit/auditor.h"
#include "transport/uid_set.h"

namespace halfback::audit {

/// FNV-1a's 64-bit offset basis: the trace hash of an empty run.
inline constexpr std::uint64_t kFnvOffsetBasis = 14695981039346656037ULL;
/// FNV-1a's 64-bit prime.
inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/// kFnvPrimePowers[k] is kFnvPrime^k (mod 2^64), for k = 0..8.
inline constexpr std::array<std::uint64_t, 9> kFnvPrimePowers = [] {
  std::array<std::uint64_t, 9> powers{};
  powers[0] = 1;
  for (std::size_t k = 1; k < powers.size(); ++k) {
    powers[k] = powers[k - 1] * kFnvPrime;
  }
  return powers;
}();

/// One trace-hash step: FNV-1a over the eight little-endian bytes of
/// `value`, i.e. for each byte b0..b7 in turn `hash ^= b; hash *= kFnvPrime`.
/// XOR with a zero byte is the identity, so each zero byte above the
/// value's highest set byte contributes a bare multiply by the prime; the
/// loop runs over the significant bytes only and folds those multiplies
/// into one by kFnvPrimePowers[zero bytes]. The result is the byte-serial
/// value for every input.
constexpr std::uint64_t fnv1a_mix(std::uint64_t hash, std::uint64_t value) {
  std::size_t zero_bytes = 8;
  for (; value != 0; value >>= 8, --zero_bytes) {
    hash ^= value & 0xffULL;
    hash *= kFnvPrime;
  }
  return hash * kFnvPrimePowers[zero_bytes];
}

/// Concrete Auditor that enforces the engine invariants above.
class InvariantAuditor final : public Auditor {
 public:
  /// Violations recorded beyond this many are counted but not stored.
  static constexpr std::size_t kMaxStoredViolations = 64;

  InvariantAuditor() = default;

  /// True while no invariant has been violated.
  bool ok() const { return total_violations_ == 0; }

  /// Human-readable description of each stored violation, in order.
  const std::vector<std::string>& violations() const { return violations_; }

  /// Total violations seen, including ones beyond the storage cap.
  std::uint64_t total_violations() const { return total_violations_; }

  /// Multi-line report of all stored violations (empty string when ok()).
  std::string report() const;

  /// Order-sensitive FNV-1a hash over the run trace so far (see
  /// fnv1a_mix). Two runs of the same scenario with the same seed must
  /// produce identical hashes.
  std::uint64_t trace_hash() const { return trace_hash_; }

  /// End-of-run conservation sweep. Pass `drained` = true when the
  /// simulator's event queue is empty (every in-flight packet must then be
  /// accounted for); false tolerates packets still in flight or queued.
  /// Links are checked first, then queues, each in the order the auditor
  /// first saw them (registration order under Network::install_auditor).
  void finalize(bool drained);

  // --- Auditor hooks -------------------------------------------------------
  void on_event_scheduled(sim::Time now, sim::Time at) override;
  void on_event_run(sim::Time at, std::uint64_t seq) override;
  void on_link_registered(const net::Link& link) override;
  void on_link_offered(const net::Link& link, const net::Packet& packet) override;
  void on_link_corrupted(const net::Link& link, const net::Packet& packet) override;
  void on_link_delivered(const net::Link& link, const net::Packet& packet) override;
  void on_link_fault_dropped(const net::Link& link, const net::Packet& packet) override;
  void on_link_fault_duplicated(const net::Link& link, const net::Packet& packet) override;
  void on_link_fault_corrupted(const net::Link& link, const net::Packet& packet) override;
  void on_queue_enqueued(const net::PacketQueue& queue,
                         const net::Packet& packet) override;
  void on_queue_dropped(const net::PacketQueue& queue, const net::Packet& packet,
                        DropContext context) override;
  void on_queue_dequeued(const net::PacketQueue& queue,
                         const net::Packet& packet) override;
  void on_node_received(std::uint32_t node, const net::Packet& packet) override;
  void on_segment_sent(const transport::Scoreboard& scoreboard, std::uint64_t flow,
                       const std::string& scheme, std::uint32_t seq, bool proactive,
                       std::uint64_t uid) override;
  void on_ack_applied(const transport::Scoreboard& scoreboard, std::uint64_t flow,
                      const net::Packet& ack,
                      const transport::AckUpdate& update) override;

 private:
  /// Marks a queue whose owning link is unknown.
  static constexpr std::uint32_t kNoLink = UINT32_MAX;

  /// Shadow accounting for one queue, mirrored from the hook stream.
  struct QueueShadow {
    const net::PacketQueue* queue = nullptr;
    std::uint32_t link = kNoLink;  ///< owning link's position in links_
    std::uint64_t bytes = 0;       ///< bytes the queue should hold
    std::uint64_t packets = 0;
    std::uint64_t enqueued = 0;
    std::uint64_t dequeued = 0;
    std::uint64_t dropped = 0;
  };

  /// Conservation counters for one link. Injected faults (netfault) change
  /// the books: a fault drop is one more way a packet leaves the link, and
  /// every injected duplicate raises the delivery budget by one, so the
  /// conserved identity is accounted() == offered + fault_duplicated.
  struct LinkShadow {
    const net::Link* link = nullptr;
    std::uint64_t offered = 0;
    std::uint64_t delivered = 0;
    std::uint64_t corrupted = 0;
    std::uint64_t queue_dropped = 0;
    std::uint64_t fault_dropped = 0;     ///< discarded by a FaultHook
    std::uint64_t fault_duplicated = 0;  ///< extra copies a FaultHook launched
    std::uint64_t accounted() const {
      return delivered + corrupted + queue_dropped + fault_dropped;
    }
    std::uint64_t expected() const { return offered + fault_duplicated; }
  };

  /// Arrival books of a uid that may or did reach its destination more
  /// than once.
  struct RepeatBook {
    std::uint32_t credit = 0;   ///< injected duplicates of the uid
    std::uint32_t repeats = 0;  ///< arrivals after the first
  };

  /// Sender-side view of one flow.
  struct FlowShadow {
    explicit FlowShadow(std::uint64_t flow) : arrived{flow << 24} {}

    std::uint32_t cum_ack = 0;
    bool have_proactive = false;
    std::uint32_t last_proactive_seq = 0;
    /// Wire transmissions (uids) that reached the destination. The budget
    /// per uid is 1, plus one per injected duplicate (credit, fed by
    /// on_link_fault_duplicated) — exactly-once delivery, extended to
    /// exactly-(1+k)-times under injected duplication. Only credited or
    /// repeated uids get a RepeatBook. Based at the flow's uid prefix,
    /// above which its sender stamps them.
    transport::DenseUidSet arrived;
    std::unordered_map<std::uint64_t, RepeatBook> repeats;
    /// Segment indices observed as data packets on any link. Some schemes
    /// (RC3's RLP copies) transmit outside the scoreboard path, so
    /// sacked=>sent is checked against the wire, not the scoreboard alone.
    transport::DenseUidSet wire_seqs;
  };

  /// Open-addressing map from a (kind, key) pair — a link or queue
  /// address, or a flow id — to the entry's position in links_, queues_
  /// or flows_. Grows at half load; lookups probe linearly.
  class ShadowIndex {
   public:
    enum class Kind : std::uint32_t { link, queue, flow };

    /// Position of (kind, key). When absent, records `next` as its
    /// position and returns {next, true}.
    std::pair<std::uint32_t, bool> emplace(Kind kind, std::uint64_t key,
                                           std::uint32_t next);

   private:
    struct Slot {
      std::uint64_t key = 0;
      Kind kind = Kind::link;
      std::uint32_t position = 0;  ///< position + 1; 0 marks an empty slot
    };

    std::size_t home(Kind kind, std::uint64_t key) const;
    void grow();

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
    unsigned shift_ = 64;  ///< 64 - log2(slots_.size())
  };

  void violation(std::string what);
  void mix(std::uint64_t value) { trace_hash_ = fnv1a_mix(trace_hash_, value); }
  QueueShadow& queue_shadow(const net::PacketQueue& queue);
  LinkShadow& link_shadow(const net::Link& link);
  FlowShadow& flow_shadow(std::uint64_t flow);

  std::vector<std::string> violations_;
  std::uint64_t total_violations_ = 0;
  std::uint64_t trace_hash_ = kFnvOffsetBasis;

  // Event-engine state.
  bool have_last_event_ = false;
  sim::Time last_event_time_;
  std::uint64_t last_event_seq_ = 0;

  ShadowIndex index_;
  std::vector<LinkShadow> links_;
  std::vector<QueueShadow> queues_;
  std::vector<FlowShadow> flows_;
};

}  // namespace halfback::audit

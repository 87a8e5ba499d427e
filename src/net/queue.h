// Router queue disciplines.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>

#include "audit/auditor.h"
#include "net/packet.h"
#include "sim/annotations.h"
#include "sim/bytes.h"
#include "sim/random.h"
#include "sim/time.h"

namespace halfback::telemetry {
class LinkTrack;
}

namespace halfback::net {

/// Queue disciplines a link can use.
enum class QueueKind : std::uint8_t {
  drop_tail,  ///< FIFO, byte-bounded (the paper's default)
  red,        ///< Random Early Detection
  codel,      ///< CoDel (sojourn-time AQM)
  priority,   ///< two-band strict priority (RC3's in-network support)
};

/// Counters every queue maintains.
struct QueueStats {
  std::uint64_t enqueued_packets = 0;
  sim::Bytes enqueued_bytes;
  std::uint64_t dequeued_packets = 0;
  sim::Bytes dequeued_bytes;
  std::uint64_t dropped_packets = 0;
  sim::Bytes dropped_bytes;
  sim::Bytes max_backlog_bytes;
};

/// Interface for an egress queue attached to a link.
///
/// Implementations decide admission (drop policy); the link drains the
/// queue in FIFO order as transmissions complete.
class PacketQueue {
 public:
  virtual ~PacketQueue() = default;

  /// Try to admit `p`. Returns false (and records a drop) if the packet was
  /// discarded.
  virtual bool enqueue(Packet p, sim::Time now) = 0;

  /// Remove the next packet to transmit, if any.
  virtual std::optional<Packet> dequeue(sim::Time now) = 0;

  virtual std::uint64_t byte_length() const = 0;
  virtual std::size_t packet_count() const = 0;

  /// Hard byte bound the discipline enforces, 0 when unbounded/unknown.
  /// The invariant auditor checks byte_length() never exceeds this.
  virtual std::uint64_t capacity_bytes() const { return 0; }

  const QueueStats& stats() const { return stats_; }

  /// Install an audit observer (nullptr detaches; owned by the caller).
  /// Network::install_auditor and Network::make_link call this for every
  /// link's queue; set it manually for bare queues in tests.
  void set_auditor(audit::Auditor* auditor) { auditor_ = auditor; }
  audit::Auditor* auditor() const { return auditor_; }

  /// The owning link's telemetry track (nullptr detaches). Link::set_track
  /// installs it; drops are recorded on it.
  void set_track(telemetry::LinkTrack* track) { track_ = track; }

  /// Invoked for every dropped packet (for per-flow loss accounting).
  void set_drop_callback(std::function<void(const Packet&)> cb) {
    drop_callback_ = std::move(cb);
  }

 protected:
  /// Implementations call these at every admission, drop, and release so
  /// the stats, the audit hooks and the track see one consistent stream.
  /// `record_drop` distinguishes admission drops (packet never entered the
  /// backlog) from in-queue drops (CoDel discarding a resident packet at
  /// dequeue).
  void record_enqueue(const Packet& p);
  void record_drop(const Packet& p,
                   audit::DropContext context = audit::DropContext::admission);
  void record_dequeue(const Packet& p);

 private:
  QueueStats stats_;
  std::function<void(const Packet&)> drop_callback_;
  audit::Auditor* auditor_ = nullptr;
  telemetry::LinkTrack* track_ = nullptr;  ///< not owned; nullptr = no telemetry
};

/// Classic FIFO drop-tail queue bounded in bytes — the discipline used at
/// the paper's Emulab bottleneck.
class DropTailQueue final : public PacketQueue {
 public:
  explicit DropTailQueue(sim::Bytes capacity_bytes)
      : capacity_bytes_{capacity_bytes} {}

  bool enqueue(Packet p, sim::Time now) override HB_EFFECTS(alloc);
  std::optional<Packet> dequeue(sim::Time now) override HB_EFFECTS(alloc);
  std::uint64_t byte_length() const override { return bytes_; }
  std::size_t packet_count() const override { return packets_.size(); }
  std::uint64_t capacity_bytes() const override { return capacity_bytes_; }

 private:
  sim::Bytes capacity_bytes_;
  std::uint64_t bytes_ = 0;
  std::deque<Packet> packets_;
};

/// CoDel [Nichols & Jacobson], the modern AQM the paper's §6 cites: drops
/// based on packet *sojourn time* rather than queue length. Provided so the
/// bufferbloat experiments can show that AQM (reducing the RTT) and
/// Halfback (reducing the number of RTTs) are complementary.
class CoDelQueue final : public PacketQueue {
 public:
  /// `capacity_bytes` is the hard limit.
  explicit CoDelQueue(sim::Bytes capacity_bytes) : capacity_bytes_{capacity_bytes} {}

  bool enqueue(Packet p, sim::Time now) override HB_EFFECTS(alloc);
  std::optional<Packet> dequeue(sim::Time now) override HB_EFFECTS(alloc);
  std::uint64_t byte_length() const override { return bytes_; }
  std::size_t packet_count() const override { return packets_.size(); }
  std::uint64_t capacity_bytes() const override { return capacity_bytes_; }

  bool dropping() const { return dropping_; }

 private:
  /// Next drop instant in the dropping state: interval / sqrt(count).
  sim::Time control_law(sim::Time t) const;

  struct Entry {
    sim::Time enqueued_at;
    Packet packet;
  };

  sim::Bytes capacity_bytes_;
  std::uint64_t bytes_ = 0;
  std::deque<Entry> packets_;
  bool dropping_ = false;
  sim::Time first_above_time_;   ///< zero = sojourn not persistently above
  sim::Time drop_next_;
  int drop_count_ = 0;
};

/// Two-band strict-priority queue: band 0 (normal) is always served before
/// band 1 (low priority). This is the in-network support RC3 [Mittal et
/// al., NSDI '14] depends on — its Recursive Low Priority copies ride band
/// 1 and are only forwarded when the link would otherwise idle. Each band
/// has its own byte budget of the full capacity, so low-priority occupancy
/// can never cause a normal-priority drop.
class PriorityQueue final : public PacketQueue {
 public:
  explicit PriorityQueue(sim::Bytes capacity_bytes)
      : band_capacity_bytes_{capacity_bytes} {}

  bool enqueue(Packet p, sim::Time now) override HB_EFFECTS(alloc);
  std::optional<Packet> dequeue(sim::Time now) override HB_EFFECTS(alloc);
  std::uint64_t byte_length() const override { return bytes_[0] + bytes_[1]; }
  std::size_t packet_count() const override {
    return bands_[0].size() + bands_[1].size();
  }
  /// Each band has its own full-capacity budget.
  std::uint64_t capacity_bytes() const override { return 2 * band_capacity_bytes_; }

  std::uint64_t band_bytes(int band) const {
    return bytes_[static_cast<std::size_t>(band)];
  }

 private:
  sim::Bytes band_capacity_bytes_;
  std::uint64_t bytes_[2] = {0, 0};
  std::deque<Packet> bands_[2];
};

/// Random Early Detection (gentle RED), provided as the AQM point of
/// comparison for the bufferbloat discussion (§6 of the paper): AQM reduces
/// RTT inflation and is complementary to Halfback's fewer-RTTs approach.
class RedQueue final : public PacketQueue {
 public:
  /// `capacity_bytes` is the hard limit.
  RedQueue(sim::Bytes capacity_bytes, sim::Random rng)
      : capacity_bytes_{capacity_bytes}, rng_{std::move(rng)} {}

  bool enqueue(Packet p, sim::Time now) override HB_EFFECTS(alloc, rng);
  std::optional<Packet> dequeue(sim::Time now) override HB_EFFECTS(alloc);
  std::uint64_t byte_length() const override { return bytes_; }
  std::size_t packet_count() const override { return packets_.size(); }
  std::uint64_t capacity_bytes() const override { return capacity_bytes_; }

  double average_backlog_bytes() const { return avg_bytes_; }

 private:
  sim::Bytes capacity_bytes_;
  sim::Random rng_;
  std::uint64_t bytes_ = 0;
  double avg_bytes_ = 0.0;  // lint: unit-ok(RED's EWMA backlog is intrinsically fractional)
  std::deque<Packet> packets_;
};

}  // namespace halfback::net

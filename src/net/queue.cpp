#include "net/queue.h"

#include <cmath>

#include "telemetry/track.h"

namespace halfback::net {

namespace {
/// CoDel's acceptable standing sojourn and the interval it must persist for
/// before the first drop (the RFC 8289 defaults).
constexpr auto kCoDelTarget = sim::Time::milliseconds(5);
constexpr auto kCoDelInterval = sim::Time::milliseconds(100);

/// Gentle RED: early drops start once the averaged backlog passes a quarter
/// of capacity and reach kRedMaxDropProbability at three quarters.
constexpr double kRedMinThresholdFrac = 0.25;
constexpr double kRedMaxThresholdFrac = 0.75;
constexpr double kRedMaxDropProbability = 0.1;
constexpr double kRedEwmaWeight = 0.002;  ///< per arrival
}  // namespace

void PacketQueue::record_enqueue(const Packet& p) {
  ++stats_.enqueued_packets;
  stats_.enqueued_bytes += p.size_bytes;
  stats_.max_backlog_bytes =
      std::max(stats_.max_backlog_bytes, sim::Bytes{byte_length()});
  HALFBACK_AUDIT_HOOK(auditor_, on_queue_enqueued(*this, p));
}

void PacketQueue::record_drop(const Packet& p, audit::DropContext context) {
  ++stats_.dropped_packets;
  stats_.dropped_bytes += p.size_bytes;
  HALFBACK_AUDIT_HOOK(auditor_, on_queue_dropped(*this, p, context));
  if (track_ != nullptr) track_->queue_drop(p);
  if (drop_callback_) drop_callback_(p);
}

void PacketQueue::record_dequeue(const Packet& p) {
  ++stats_.dequeued_packets;
  stats_.dequeued_bytes += p.size_bytes;
  HALFBACK_AUDIT_HOOK(auditor_, on_queue_dequeued(*this, p));
}

bool DropTailQueue::enqueue(Packet p, sim::Time /*now*/) {
  if (bytes_ + p.size_bytes > capacity_bytes_) {
    record_drop(p);
    return false;
  }
  bytes_ += p.size_bytes;
  // lint: hot-ok(queue owns packet storage; deque growth is amortized and capacity-bounded)
  packets_.push_back(std::move(p));
  record_enqueue(packets_.back());
  return true;
}

std::optional<Packet> DropTailQueue::dequeue(sim::Time /*now*/) {
  if (packets_.empty()) return std::nullopt;
  Packet p = std::move(packets_.front());
  packets_.pop_front();
  bytes_ -= p.size_bytes;
  record_dequeue(p);
  return p;
}

bool PriorityQueue::enqueue(Packet p, sim::Time /*now*/) {
  const std::size_t band = p.priority == 0 ? 0 : 1;
  if (bytes_[band] + p.size_bytes > band_capacity_bytes_) {
    record_drop(p);
    return false;
  }
  bytes_[band] += p.size_bytes;
  // lint: hot-ok(queue owns packet storage; deque growth is amortized and capacity-bounded)
  bands_[band].push_back(std::move(p));
  record_enqueue(bands_[band].back());
  return true;
}

std::optional<Packet> PriorityQueue::dequeue(sim::Time /*now*/) {
  for (std::size_t band = 0; band < 2; ++band) {
    if (bands_[band].empty()) continue;
    Packet p = std::move(bands_[band].front());
    bands_[band].pop_front();
    bytes_[band] -= p.size_bytes;
    record_dequeue(p);
    return p;
  }
  return std::nullopt;
}

bool CoDelQueue::enqueue(Packet p, sim::Time now) {
  if (bytes_ + p.size_bytes > capacity_bytes_) {
    record_drop(p);
    return false;
  }
  bytes_ += p.size_bytes;
  // lint: hot-ok(queue owns packet storage; deque growth is amortized and capacity-bounded)
  packets_.push_back(Entry{now, std::move(p)});
  record_enqueue(packets_.back().packet);
  return true;
}

sim::Time CoDelQueue::control_law(sim::Time t) const {
  return t + kCoDelInterval / std::sqrt(static_cast<double>(std::max(drop_count_, 1)));
}

std::optional<Packet> CoDelQueue::dequeue(sim::Time now) {
  while (!packets_.empty()) {
    Entry entry = std::move(packets_.front());
    packets_.pop_front();
    bytes_ -= entry.packet.size_bytes;
    const sim::Time sojourn = now - entry.enqueued_at;

    if (sojourn < kCoDelTarget || bytes_ == 0) {
      // Sojourn back under control: leave the dropping state.
      first_above_time_ = sim::Time::zero();
      if (dropping_) dropping_ = false;
      record_dequeue(entry.packet);
      return entry.packet;
    }

    if (first_above_time_.is_zero()) {
      // Start the grace interval before the first drop.
      first_above_time_ = now + kCoDelInterval;
      record_dequeue(entry.packet);
      return entry.packet;
    }

    if (!dropping_) {
      if (now >= first_above_time_) {
        dropping_ = true;
        drop_count_ = std::max(1, drop_count_ / 2);  // CoDel's hysteresis
        drop_next_ = control_law(now);
        record_drop(entry.packet, audit::DropContext::in_queue);
        continue;  // drop and look at the next packet
      }
      record_dequeue(entry.packet);
      return entry.packet;
    }

    // Dropping state: drop whenever the control-law clock fires.
    if (now >= drop_next_) {
      ++drop_count_;
      drop_next_ = control_law(drop_next_);
      record_drop(entry.packet, audit::DropContext::in_queue);
      continue;
    }
    record_dequeue(entry.packet);
    return entry.packet;
  }
  return std::nullopt;
}

bool RedQueue::enqueue(Packet p, sim::Time /*now*/) {
  // Update the EWMA of the backlog on every arrival.
  avg_bytes_ = (1.0 - kRedEwmaWeight) * avg_bytes_ +
               kRedEwmaWeight * static_cast<double>(bytes_);

  const double min_th = kRedMinThresholdFrac * static_cast<double>(capacity_bytes_);
  const double max_th = kRedMaxThresholdFrac * static_cast<double>(capacity_bytes_);

  bool drop = false;
  if (bytes_ + p.size_bytes > capacity_bytes_) {
    drop = true;  // hard limit
  } else if (avg_bytes_ >= max_th) {
    drop = true;
  } else if (avg_bytes_ > min_th) {
    double drop_p = kRedMaxDropProbability * (avg_bytes_ - min_th) / (max_th - min_th);
    drop = rng_.bernoulli(drop_p);
  }
  if (drop) {
    record_drop(p);
    return false;
  }
  bytes_ += p.size_bytes;
  // lint: hot-ok(queue owns packet storage; deque growth is amortized and capacity-bounded)
  packets_.push_back(std::move(p));
  record_enqueue(packets_.back());
  return true;
}

std::optional<Packet> RedQueue::dequeue(sim::Time /*now*/) {
  if (packets_.empty()) return std::nullopt;
  Packet p = std::move(packets_.front());
  packets_.pop_front();
  bytes_ -= p.size_bytes;
  record_dequeue(p);
  return p;
}

}  // namespace halfback::net

// Sender-side SACK scoreboard over a sliding window of segments.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <initializer_list>
#include <optional>
#include <span>
#include <vector>

#include "net/packet.h"
#include "sim/annotations.h"
#include "sim/time.h"

namespace halfback::transport {

/// Per-segment transmission state tracked by the sender.
struct SegmentState {
  std::uint16_t times_sent = 0;      ///< all transmissions, incl. proactive
  std::uint16_t proactive_sent = 0;  ///< proactive retransmissions only
  bool sacked = false;
  bool lost = false;                  ///< deemed lost by SACK rule or RTO
  bool retx_after_loss = false;       ///< loss-triggered retransmission done
  bool rtt_sampled = false;           ///< an RTT sample was taken for this segment
  sim::Time first_sent;
  sim::Time last_sent;
  std::uint64_t last_uid = 0;
};

/// What an arriving ACK changed.
struct AckUpdate {
  std::uint32_t cum_ack_before = 0;
  std::uint32_t cum_ack_after = 0;
  std::uint32_t newly_cum_acked = 0;          ///< segments newly covered by cum ack
  std::vector<std::uint32_t> newly_sacked;    ///< segment indices newly SACKed
  /// Of the segments newly acknowledged above, how many this loop never
  /// transmitted (times_sent == 0): delivery credit earned by an
  /// out-of-band copy (RC3's low-priority batch), not by this sender.
  /// Always 0 for schemes whose every segment goes through on_sent().
  std::uint32_t backfill_acked = 0;
  bool advanced() const { return cum_ack_after > cum_ack_before; }
  std::uint32_t newly_acked_total() const {
    return newly_cum_acked + static_cast<std::uint32_t>(newly_sacked.size());
  }
};

/// Tracks which segments of a flow were sent, acknowledged, SACKed, deemed
/// lost, and retransmitted.
///
/// Memory is a sliding window: state below the cumulative ACK is discarded,
/// so the footprint is bounded by the flow-control window even for very
/// long flows (the paper's Fig. 13 background flows are 100 MB).
///
/// Aggregates the senders poll per ACK — pipe(), the existence of a
/// loss needing retransmission, the presence of any SACKed segment — are
/// maintained incrementally as segment state changes, so the per-ACK send
/// loop (which re-reads pipe() after every transmission) costs O(1) per
/// query instead of a window scan. All segment-state mutations go through
/// this class; the only external mutation, mutable_state(), is used for
/// the rtt_sampled flag, which no aggregate depends on.
class Scoreboard {
 public:
  explicit Scoreboard(std::uint32_t total_segments);

  std::uint32_t total_segments() const { return total_; }

  /// Next segment index never sent before, or nullopt when all segments
  /// have had a first transmission.
  std::optional<std::uint32_t> next_unsent() const;
  bool all_sent_once() const { return next_sent_ >= total_; }

  /// Record a transmission of `seq` at time `now` with wire uid `uid`.
  void on_sent(std::uint32_t seq, std::uint64_t uid, sim::Time now,
               bool proactive) HB_EFFECTS(alloc, throw);

  /// Apply an arriving cumulative + selective acknowledgement. The span
  /// overload is the core; net::SackList (via its span conversion),
  /// std::vector, and braced block lists all route to it. The
  /// initializer_list overload exists because a span cannot be formed from
  /// a braced list until C++26; list arguments prefer it, so `{}` stays
  /// unambiguous.
  AckUpdate apply_ack(std::uint32_t cum_ack,
                      std::span<const net::SackBlock> sacks)
      HB_EFFECTS(alloc, throw);
  AckUpdate apply_ack(std::uint32_t cum_ack,
                      std::initializer_list<net::SackBlock> sacks) {
    return apply_ack(
        cum_ack, std::span<const net::SackBlock>{sacks.begin(), sacks.size()});
  }

  /// SACK-based loss detection (simplified RFC 6675 / FACK rule): an
  /// un-SACKed segment is deemed lost once at least three segments above
  /// it have been SACKed (the duplicate-ACK threshold). Returns how many
  /// segments it newly marked lost.
  std::size_t detect_losses();

  /// Mark every outstanding (sent, un-SACKed) segment lost (RTO recovery).
  /// Clears retx_after_loss so they become eligible for retransmission.
  void mark_all_outstanding_lost();

  /// Lowest segment deemed lost whose loss-triggered retransmission has not
  /// happened yet.
  std::optional<std::uint32_t> next_lost_needing_retx() const;

  /// True while any sent segment in the window is deemed lost and not yet
  /// SACKed. O(1): lets per-ACK repair scans (UDT-style round-robin
  /// retransmission in the paced schemes) skip the window walk entirely
  /// once every loss has been repaired or absorbed.
  bool any_lost_unsacked() const { return lost_unsacked_ > 0; }

  /// Count of segments considered in flight (sent, not cum-acked, not
  /// SACKed, and not deemed lost-without-retransmission).
  std::uint32_t pipe() const;

  /// Highest index that may be sent under a receive window of `window`
  /// segments (exclusive bound).
  std::uint32_t flow_control_limit(std::uint32_t window) const;

  std::uint32_t cum_ack() const { return cum_ack_; }
  std::uint32_t highest_sent() const;  ///< one past the highest sent index (0 if none)
  bool complete() const { return cum_ack_ >= total_; }
  bool is_sacked(std::uint32_t seq) const;
  bool is_acked(std::uint32_t seq) const;  ///< cum-acked or SACKed

  /// State access for segments at or above the cumulative ACK. Segments
  /// below the window return nullptr (they are acknowledged and forgotten).
  const SegmentState* state(std::uint32_t seq) const;
  SegmentState* mutable_state(std::uint32_t seq);

  /// Ensure a state entry exists for `seq` (used before first send).
  SegmentState& ensure_state(std::uint32_t seq);

 private:
  void trim();

  /// Add (`delta` = +1) or remove (`delta` = -1) `s`'s contribution to the
  /// incremental aggregates. Every mutation of a window entry is bracketed
  /// by an account(-1) / account(+1) pair.
  ///
  /// The pipe predicate drops the range checks the scan performed:
  /// times_sent > 0 implies seq < next_sent_ (on_sent advances next_sent_
  /// past every transmission), and window membership implies
  /// seq >= cum_ack_ (trim() discards below the cumulative ACK and
  /// decrements aggregates for each entry it pops).
  void account(const SegmentState& s, std::uint32_t seq, int delta) {
    const int d = delta;
    if (s.times_sent > 0 && !s.sacked && !(s.lost && !s.retx_after_loss)) {
      pipe_ += d;
    }
    if (s.lost && !s.retx_after_loss && !s.sacked && s.times_sent > 0) {
      lost_pending_ += d;
      // Scan hint only tightens on entry; removals leave it conservative
      // (low), which is safe: the next scan starts at or below the true
      // minimum and advances it.
      if (d > 0 && seq < lost_floor_) lost_floor_ = seq;
    }
    if (s.lost && !s.sacked && s.times_sent > 0) lost_unsacked_ += d;
    if (s.sacked) {
      sacked_in_window_ += d;
      // Conservative (high) top hint for the loss-detection scan.
      if (d > 0 && seq >= highest_sacked_) highest_sacked_ = seq + 1;
    }
  }

  std::uint32_t total_;
  std::uint32_t cum_ack_ = 0;
  std::uint32_t next_sent_ = 0;     ///< next never-sent index
  std::uint32_t window_base_ = 0;   ///< seq of window_[0]
  std::deque<SegmentState> window_;

  // Incremental aggregates over window_ (see account()).
  int pipe_ = 0;             ///< segments matching the pipe() predicate
  int lost_pending_ = 0;     ///< segments matching next_lost_needing_retx()
  int lost_unsacked_ = 0;    ///< lost, sent, not-yet-SACKed segments
  int sacked_in_window_ = 0; ///< SACKed segments still in the window
  /// Scan hints (caches, not invariants): lost_floor_ is a lower bound on
  /// the lowest lost-pending seq; highest_sacked_ an upper bound (one
  /// past) on the highest SACKed seq. Both only bound the scans — results
  /// are unchanged.
  mutable std::uint32_t lost_floor_ = 0;
  std::uint32_t highest_sacked_ = 0;
};

}  // namespace halfback::transport

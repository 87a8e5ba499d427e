#include "transport/scoreboard.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>

namespace halfback::transport {

namespace {
/// SACKed segments above a hole that mark it lost: RFC 5681's three
/// duplicate ACKs.
constexpr int kDupThreshold = 3;
}  // namespace

Scoreboard::Scoreboard(std::uint32_t total_segments) : total_{total_segments} {
  if (total_segments == 0) throw std::invalid_argument{"flow must have at least one segment"};
}

std::optional<std::uint32_t> Scoreboard::next_unsent() const {
  if (next_sent_ >= total_) return std::nullopt;
  return next_sent_;
}

SegmentState& Scoreboard::ensure_state(std::uint32_t seq) {
  if (seq < window_base_) {
    throw std::logic_error{"ensure_state below the acknowledged window"};
  }
  while (window_base_ + window_.size() <= seq) window_.emplace_back();
  return window_[seq - window_base_];
}

const SegmentState* Scoreboard::state(std::uint32_t seq) const {
  if (seq < window_base_ || seq >= window_base_ + window_.size()) return nullptr;
  return &window_[seq - window_base_];
}

SegmentState* Scoreboard::mutable_state(std::uint32_t seq) {
  if (seq < window_base_ || seq >= window_base_ + window_.size()) return nullptr;
  return &window_[seq - window_base_];
}

void Scoreboard::on_sent(std::uint32_t seq, std::uint64_t uid, sim::Time now,
                         bool proactive) {
  if (seq >= total_) throw std::logic_error{"on_sent beyond flow length"};
  if (seq < cum_ack_) return;  // stale retransmission of an acked segment
  SegmentState& s = ensure_state(seq);
  account(s, seq, -1);
  if (s.times_sent == 0) s.first_sent = now;
  // Saturate rather than wrap: a pathological retransmit storm (RTO backoff
  // bugs, fuzzed traces) could otherwise overflow the 16-bit counters and
  // make a 65536th transmission look like a first send to Karn's filter.
  constexpr auto kMaxSent = std::numeric_limits<std::uint16_t>::max();
  if (s.times_sent < kMaxSent) ++s.times_sent;
  if (proactive && s.proactive_sent < kMaxSent) ++s.proactive_sent;
  s.last_sent = now;
  s.last_uid = uid;
  if (s.lost && !proactive) s.retx_after_loss = true;
  account(s, seq, +1);
  if (seq >= next_sent_) next_sent_ = seq + 1;
}

void Scoreboard::trim() {
  while (!window_.empty() && window_base_ < cum_ack_) {
    account(window_.front(), window_base_, -1);
    window_.pop_front();
    ++window_base_;
  }
  if (window_.empty()) window_base_ = cum_ack_;
}

AckUpdate Scoreboard::apply_ack(std::uint32_t cum_ack,
                                std::span<const net::SackBlock> sacks) {
  AckUpdate update;
  update.cum_ack_before = cum_ack_;
  if (cum_ack > cum_ack_) {
    update.newly_cum_acked = cum_ack - cum_ack_;
    // Segments newly covered by the cumulative ACK that had been SACKed
    // already were counted when the SACK arrived; subtract them so callers
    // can use newly_acked_total() for congestion-window growth.
    for (std::uint32_t seq = cum_ack_; seq < cum_ack; ++seq) {
      const SegmentState* s = state(seq);
      if (s != nullptr && s->sacked) {
        --update.newly_cum_acked;
      } else if (s == nullptr || s->times_sent == 0) {
        ++update.backfill_acked;  // delivered by an out-of-band copy
      }
    }
    cum_ack_ = std::min(cum_ack, total_);
    // The cumulative ACK can overtake next_sent_ when an out-of-band copy
    // (RC3's low-priority batch) delivered segments this loop never sent.
    // Those segments need no transmission — advance the new-data cursor past
    // them, or next_unsent() would hand send_available() a sequence whose
    // on_sent() is dropped as stale and the send loop would never progress.
    if (next_sent_ < cum_ack_) next_sent_ = cum_ack_;
    trim();
  }
  update.cum_ack_after = cum_ack_;

  for (const net::SackBlock& block : sacks) {
    for (std::uint32_t seq = std::max(block.begin, cum_ack_); seq < block.end; ++seq) {
      if (seq >= total_) break;
      SegmentState& s = ensure_state(seq);
      if (!s.sacked) {
        account(s, seq, -1);
        s.sacked = true;
        account(s, seq, +1);
        update.newly_sacked.push_back(seq);
        if (s.times_sent == 0) ++update.backfill_acked;
      }
    }
  }
  return update;
}

std::size_t Scoreboard::detect_losses() {
  std::size_t newly_lost = 0;
  // Loss-free fast path: with nothing SACKed, no un-SACKed segment can have
  // kDupThreshold SACKed segments above it, so the scan below would mark
  // nothing. This skips the per-ACK window walk for the common clean flow.
  if (window_.empty() || sacked_in_window_ == 0) return newly_lost;

  // Count SACKed segments above each un-SACKed, sent segment: walk the
  // window from the top accumulating the count. Positions at or above
  // highest_sacked_ (a conservative-high hint) contain no SACKed segment,
  // so they can neither be marked lost nor change the accumulator — skip
  // them.
  const std::size_t cap =
      highest_sacked_ > window_base_ ? highest_sacked_ - window_base_ : 0;
  const std::size_t start = std::min(window_.size(), cap);
  int sacked_above = 0;
  for (std::size_t i = start; i-- > 0;) {
    SegmentState& s = window_[i];
    const std::uint32_t seq = window_base_ + static_cast<std::uint32_t>(i);
    if (seq < cum_ack_) break;
    if (s.sacked) {
      ++sacked_above;
      continue;
    }
    if (s.times_sent > 0 && !s.lost && sacked_above >= kDupThreshold) {
      account(s, seq, -1);
      s.lost = true;
      s.retx_after_loss = false;
      account(s, seq, +1);
      ++newly_lost;
    }
  }
  return newly_lost;
}

void Scoreboard::mark_all_outstanding_lost() {
  for (std::size_t i = 0; i < window_.size(); ++i) {
    SegmentState& s = window_[i];
    if (s.times_sent > 0 && !s.sacked) {
      const std::uint32_t seq = window_base_ + static_cast<std::uint32_t>(i);
      account(s, seq, -1);
      s.lost = true;
      s.retx_after_loss = false;
      account(s, seq, +1);
    }
  }
}

std::optional<std::uint32_t> Scoreboard::next_lost_needing_retx() const {
  if (lost_pending_ == 0) return std::nullopt;
  // lost_floor_ is a conservative-low bound on the lowest matching seq, so
  // the scan can start there instead of at the window base; the result is
  // the same as a full scan. Found position re-tightens the hint.
  std::size_t i = lost_floor_ > window_base_ ? lost_floor_ - window_base_ : 0;
  for (; i < window_.size(); ++i) {
    const SegmentState& s = window_[i];
    if (s.lost && !s.retx_after_loss && !s.sacked && s.times_sent > 0) {
      const std::uint32_t seq = window_base_ + static_cast<std::uint32_t>(i);
      lost_floor_ = seq;
      return seq;
    }
  }
  return std::nullopt;
}

std::uint32_t Scoreboard::pipe() const {
#ifndef NDEBUG
  // Cross-check the incremental aggregate against a window scan in debug
  // builds: any mutation path that skips its account() bracket shows up in
  // the unit/fuzz suites as an assertion, not as a silent behaviour drift.
  std::uint32_t scanned = 0;
  for (std::size_t i = 0; i < window_.size(); ++i) {
    const std::uint32_t seq = window_base_ + static_cast<std::uint32_t>(i);
    if (seq < cum_ack_ || seq >= next_sent_) continue;
    const SegmentState& s = window_[i];
    if (s.times_sent == 0 || s.sacked) continue;
    if (s.lost && !s.retx_after_loss) continue;
    ++scanned;
  }
  assert(scanned == static_cast<std::uint32_t>(pipe_) &&
         "incremental pipe aggregate out of sync with window state");
#endif
  return static_cast<std::uint32_t>(pipe_);
}

std::uint32_t Scoreboard::flow_control_limit(std::uint32_t window) const {
  return std::min(cum_ack_ + window, total_);
}

std::uint32_t Scoreboard::highest_sent() const { return next_sent_; }

bool Scoreboard::is_sacked(std::uint32_t seq) const {
  const SegmentState* s = state(seq);
  return s != nullptr && s->sacked;
}

bool Scoreboard::is_acked(std::uint32_t seq) const {
  return seq < cum_ack_ || is_sacked(seq);
}

}  // namespace halfback::transport

#include "transport/scoreboard.h"

#include <gtest/gtest.h>

#include <limits>

namespace halfback::transport {
namespace {

using sim::Time;
using namespace halfback::sim::literals;

void send_range(Scoreboard& sb, std::uint32_t begin, std::uint32_t end,
                Time at = 1_ms) {
  for (std::uint32_t seq = begin; seq < end; ++seq) {
    sb.on_sent(seq, 1000 + seq, at, /*proactive=*/false);
  }
}

TEST(ScoreboardTest, RejectsEmptyFlow) {
  EXPECT_THROW(Scoreboard{0}, std::invalid_argument);
}

TEST(ScoreboardTest, NextUnsentAdvances) {
  Scoreboard sb{5};
  EXPECT_EQ(sb.next_unsent().value(), 0u);
  sb.on_sent(0, 1, 1_ms, false);
  EXPECT_EQ(sb.next_unsent().value(), 1u);
  send_range(sb, 1, 5);
  EXPECT_FALSE(sb.next_unsent().has_value());
  EXPECT_TRUE(sb.all_sent_once());
}

TEST(ScoreboardTest, CumAckAdvancesAndTrims) {
  Scoreboard sb{10};
  send_range(sb, 0, 5);
  AckUpdate u = sb.apply_ack(3, {});
  EXPECT_TRUE(u.advanced());
  EXPECT_EQ(u.newly_cum_acked, 3u);
  EXPECT_EQ(sb.cum_ack(), 3u);
  // State below the cumulative ACK is forgotten.
  EXPECT_EQ(sb.state(2), nullptr);
  EXPECT_NE(sb.state(3), nullptr);
}

TEST(ScoreboardTest, SackMarksSegments) {
  Scoreboard sb{10};
  send_range(sb, 0, 6);
  AckUpdate u = sb.apply_ack(1, {{3, 5}});
  EXPECT_EQ(u.newly_sacked, (std::vector<std::uint32_t>{3, 4}));
  EXPECT_TRUE(sb.is_sacked(3));
  EXPECT_TRUE(sb.is_sacked(4));
  EXPECT_FALSE(sb.is_sacked(2));
  EXPECT_TRUE(sb.is_acked(0));   // cum
  EXPECT_TRUE(sb.is_acked(4));   // sack
  EXPECT_FALSE(sb.is_acked(5));
}

TEST(ScoreboardTest, RepeatedSackNotDoubleCounted) {
  Scoreboard sb{10};
  send_range(sb, 0, 6);
  sb.apply_ack(1, {{3, 5}});
  AckUpdate u = sb.apply_ack(1, {{3, 5}});
  EXPECT_TRUE(u.newly_sacked.empty());
  EXPECT_EQ(u.newly_acked_total(), 0u);
}

TEST(ScoreboardTest, CumAckOverSackedSegmentsNotDoubleCounted) {
  Scoreboard sb{10};
  send_range(sb, 0, 6);
  sb.apply_ack(0, {{1, 3}});  // segments 1-2 SACKed
  AckUpdate u = sb.apply_ack(3, {});
  // Segments 0,1,2 newly cum-acked, but 1,2 were already counted via SACK.
  EXPECT_EQ(u.newly_cum_acked, 1u);
}

TEST(ScoreboardTest, DetectLossesRequiresDupThreshold) {
  Scoreboard sb{10};
  send_range(sb, 0, 6);
  sb.apply_ack(0, {{1, 3}});  // two SACKed above segment 0
  EXPECT_EQ(sb.detect_losses(), 0u);
  sb.apply_ack(0, {{1, 4}});  // three SACKed above segment 0
  EXPECT_EQ(sb.detect_losses(), 1u);
  const SegmentState* s = sb.state(0);
  ASSERT_NE(s, nullptr);
  EXPECT_TRUE(s->lost);
}

TEST(ScoreboardTest, DetectLossesFindsMultipleHoles) {
  Scoreboard sb{10};
  send_range(sb, 0, 8);
  // Holes at 0, 2; SACKed: 1, 3, 4, 5 -> both holes have >= 3 SACKs above.
  sb.apply_ack(0, {{1, 2}, {3, 6}});
  EXPECT_EQ(sb.detect_losses(), 2u);
  for (std::uint32_t seq = 0; seq < 8; ++seq) {
    EXPECT_EQ(sb.state(seq)->lost, seq == 0 || seq == 2) << seq;
  }
}

TEST(ScoreboardTest, LossNotRedetected) {
  Scoreboard sb{10};
  send_range(sb, 0, 6);
  sb.apply_ack(0, {{1, 4}});
  EXPECT_EQ(sb.detect_losses(), 1u);
  EXPECT_EQ(sb.detect_losses(), 0u);
}

TEST(ScoreboardTest, NextLostNeedingRetxAndRetxClears) {
  Scoreboard sb{10};
  send_range(sb, 0, 6);
  sb.apply_ack(0, {{1, 4}});
  sb.detect_losses();
  ASSERT_EQ(sb.next_lost_needing_retx().value(), 0u);
  // Retransmit it (not proactive): need cleared.
  sb.on_sent(0, 2000, 5_ms, /*proactive=*/false);
  EXPECT_FALSE(sb.next_lost_needing_retx().has_value());
}

TEST(ScoreboardTest, ProactiveSendDoesNotClearLossRetxNeed) {
  Scoreboard sb{10};
  send_range(sb, 0, 6);
  sb.apply_ack(0, {{1, 4}});
  sb.detect_losses();
  sb.on_sent(0, 2000, 5_ms, /*proactive=*/true);
  // ROPR's proactive copy doesn't satisfy the normal-recovery obligation.
  EXPECT_EQ(sb.next_lost_needing_retx().value(), 0u);
}

TEST(ScoreboardTest, PipeCountsOutstandingOnly) {
  Scoreboard sb{10};
  send_range(sb, 0, 6);
  EXPECT_EQ(sb.pipe(), 6u);
  sb.apply_ack(2, {{4, 5}});
  EXPECT_EQ(sb.pipe(), 3u);  // 2, 3, 5 outstanding; 4 SACKed
  sb.apply_ack(2, {{3, 6}});
  sb.detect_losses();       // segment 2 deemed lost
  EXPECT_EQ(sb.pipe(), 0u);  // lost & not retransmitted leaves the pipe
  sb.on_sent(2, 3000, 6_ms, false);
  EXPECT_EQ(sb.pipe(), 1u);  // the retransmission is in flight
}

TEST(ScoreboardTest, MarkAllOutstandingLost) {
  Scoreboard sb{10};
  send_range(sb, 0, 6);
  sb.apply_ack(1, {{3, 4}});
  sb.mark_all_outstanding_lost();
  // 1, 2, 4, 5 lost (0 acked, 3 SACKed).
  EXPECT_EQ(sb.next_lost_needing_retx().value(), 1u);
  EXPECT_EQ(sb.pipe(), 0u);
}

TEST(ScoreboardTest, CompleteWhenCumReachesTotal) {
  Scoreboard sb{3};
  send_range(sb, 0, 3);
  EXPECT_FALSE(sb.complete());
  sb.apply_ack(3, {});
  EXPECT_TRUE(sb.complete());
}

TEST(ScoreboardTest, FlowControlLimit) {
  Scoreboard sb{200};
  EXPECT_EQ(sb.flow_control_limit(97), 97u);
  send_range(sb, 0, 97);
  sb.apply_ack(50, {});
  EXPECT_EQ(sb.flow_control_limit(97), 147u);
  // Never beyond the flow.
  sb.apply_ack(150, {});
  EXPECT_EQ(sb.flow_control_limit(97), 200u);
}

TEST(ScoreboardTest, StaleRetransmissionOfAckedSegmentIgnored) {
  Scoreboard sb{5};
  send_range(sb, 0, 5);
  sb.apply_ack(3, {});
  sb.on_sent(1, 999, 9_ms, false);  // stale; must not crash or corrupt
  EXPECT_EQ(sb.cum_ack(), 3u);
  EXPECT_EQ(sb.pipe(), 2u);
}

TEST(ScoreboardTest, SlidingWindowMemoryBounded) {
  // A "100 MB" flow: memory must stay proportional to the window, not the
  // flow. Walk a window of 100 segments across 70000.
  Scoreboard sb{70000};
  std::uint32_t acked = 0;
  while (acked < 69900) {
    std::uint32_t target = std::min(acked + 100, 70000u);
    send_range(sb, sb.highest_sent(), target);
    acked += 100;
    sb.apply_ack(acked, {});
  }
  EXPECT_EQ(sb.cum_ack(), 69900u);
  EXPECT_EQ(sb.pipe(), 0u);
}

TEST(ScoreboardTest, GuardsAgainstMisuse) {
  Scoreboard sb{5};
  EXPECT_THROW(sb.on_sent(5, 1, 1_ms, false), std::logic_error);  // beyond flow
  send_range(sb, 0, 5);
  sb.apply_ack(3, {});
  EXPECT_THROW(sb.ensure_state(1), std::logic_error);  // below the window
}

TEST(ScoreboardTest, CumAckClampedToFlowLength) {
  Scoreboard sb{5};
  send_range(sb, 0, 5);
  sb.apply_ack(100, {});  // corrupt/stale ACK beyond the flow
  EXPECT_EQ(sb.cum_ack(), 5u);
  EXPECT_TRUE(sb.complete());
}

TEST(ScoreboardTest, SackBeyondFlowIgnored) {
  Scoreboard sb{5};
  send_range(sb, 0, 5);
  AckUpdate u = sb.apply_ack(0, {{3, 100}});
  EXPECT_EQ(u.newly_sacked, (std::vector<std::uint32_t>{3, 4}));
}

TEST(ScoreboardTest, TimesSentTracksRetransmissions) {
  Scoreboard sb{5};
  sb.on_sent(0, 1, 1_ms, false);
  sb.on_sent(0, 2, 2_ms, true);
  const SegmentState* s = sb.state(0);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->times_sent, 2);
  EXPECT_EQ(s->proactive_sent, 1);
  EXPECT_EQ(s->last_uid, 2u);
  EXPECT_EQ(s->first_sent, 1_ms);
  EXPECT_EQ(s->last_sent, 2_ms);
}

TEST(ScoreboardTest, TimesSentSaturatesInsteadOfWrapping) {
  constexpr int kMax = std::numeric_limits<std::uint16_t>::max();
  Scoreboard sb{1};
  for (int i = 0; i < kMax + 100; ++i) {
    sb.on_sent(0, static_cast<std::uint64_t>(i + 1), 1_ms, /*proactive=*/true);
  }
  const SegmentState* s = sb.state(0);
  ASSERT_NE(s, nullptr);
  // A wrap would land these back near zero, making the 65636th transmission
  // look like a fresh first send to Karn's filter.
  EXPECT_EQ(s->times_sent, kMax);
  EXPECT_EQ(s->proactive_sent, kMax);
}

}  // namespace
}  // namespace halfback::transport

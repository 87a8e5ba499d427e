// Scoreboard and RTT-estimator behavior under adversarial ACK streams:
// duplicated and reordered (regressive) acknowledgements, seeded property
// sweeps via sim::Random, and the RFC 6298-style RTO ceiling. These are
// the sender-side pieces the netfault chaos matrix leans on.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "net/packet.h"
#include "sim/random.h"
#include "transport/rtt_estimator.h"
#include "transport/scoreboard.h"

namespace halfback::transport {
namespace {

using sim::Time;
using namespace halfback::sim::literals;

Scoreboard make_sent_board(std::uint32_t total) {
  Scoreboard board{total};
  for (std::uint32_t i = 0; i < total; ++i) {
    board.on_sent(i, /*uid=*/i + 1, Time::milliseconds(i), /*proactive=*/false);
  }
  return board;
}

TEST(AckChaosTest, DuplicatedAckIsIdempotent) {
  Scoreboard board = make_sent_board(20);
  std::vector<net::SackBlock> sacks{{8, 10}};
  AckUpdate first = board.apply_ack(5, sacks);
  EXPECT_EQ(first.newly_cum_acked, 5u);
  EXPECT_EQ(first.newly_sacked.size(), 2u);
  // The identical ACK again (e.g. an injected duplicate): nothing new.
  AckUpdate second = board.apply_ack(5, sacks);
  EXPECT_FALSE(second.advanced());
  EXPECT_EQ(second.newly_acked_total(), 0u);
  EXPECT_EQ(board.cum_ack(), 5u);
}

TEST(AckChaosTest, ReorderedCumAckNeverRegresses) {
  Scoreboard board = make_sent_board(20);
  board.apply_ack(10, {});
  // An older ACK arrives late (reordering): the window must not move back.
  AckUpdate stale = board.apply_ack(4, {});
  EXPECT_EQ(board.cum_ack(), 10u);
  EXPECT_FALSE(stale.advanced());
  EXPECT_EQ(stale.newly_acked_total(), 0u);
  EXPECT_TRUE(board.is_acked(4));
}

TEST(AckChaosTest, SackedThenCumAckedCountsOnce) {
  Scoreboard board = make_sent_board(10);
  AckUpdate sacked = board.apply_ack(0, {{3, 4}});
  EXPECT_EQ(sacked.newly_sacked.size(), 1u);
  // Cumulative ACK later covers the SACKed segment: it must not be
  // reported newly-acked a second time.
  AckUpdate cum = board.apply_ack(5, {});
  EXPECT_EQ(cum.newly_cum_acked, 4u);  // 0,1,2,4 — 3 was already SACKed
  EXPECT_EQ(cum.newly_sacked.size(), 0u);
}

TEST(AckChaosTest, RandomAckStormPreservesInvariants) {
  // Property sweep: arbitrary (duplicated, reordered, overlapping) ACK
  // streams may never double-count a segment, regress the cumulative ACK,
  // or un-acknowledge anything.
  sim::Random rng{2026};
  for (int round = 0; round < 50; ++round) {
    const std::uint32_t total =
        static_cast<std::uint32_t>(rng.uniform_int(1, 60));
    Scoreboard board = make_sent_board(total);
    std::uint64_t newly_acked_sum = 0;
    std::uint32_t last_cum = 0;
    std::vector<bool> acked(total, false);
    for (int i = 0; i < 200; ++i) {
      const auto cum = static_cast<std::uint32_t>(rng.uniform_int(0, total));
      std::vector<net::SackBlock> sacks;
      if (cum < total && rng.bernoulli(0.7)) {
        const auto begin = static_cast<std::uint32_t>(
            rng.uniform_int(cum, total - 1));
        const auto end = static_cast<std::uint32_t>(
            rng.uniform_int(begin + 1, total));
        sacks.push_back({begin, end});
      }
      AckUpdate update = board.apply_ack(cum, sacks);
      newly_acked_sum += update.newly_acked_total();
      ASSERT_GE(board.cum_ack(), last_cum) << "cumulative ACK regressed";
      last_cum = board.cum_ack();
      for (std::uint32_t seq = 0; seq < total; ++seq) {
        if (acked[seq]) {
          ASSERT_TRUE(board.is_acked(seq)) << "segment un-acknowledged";
        } else if (board.is_acked(seq)) {
          acked[seq] = true;
        }
      }
      ASSERT_LE(board.pipe(), total);
    }
    ASSERT_LE(newly_acked_sum, total) << "segments double-counted as new";
  }
}

TEST(AckChaosTest, SegmentsRememberRttSampling) {
  // The per-segment Karn flag: the sender samples RTT at most once per
  // segment even if duplicated ACKs echo the same transmission's uid.
  Scoreboard board = make_sent_board(5);
  SegmentState* s = board.mutable_state(2);
  ASSERT_NE(s, nullptr);
  EXPECT_FALSE(s->rtt_sampled);
  s->rtt_sampled = true;
  EXPECT_TRUE(board.state(2)->rtt_sampled);
  EXPECT_FALSE(board.state(3)->rtt_sampled);
}

TEST(AckChaosTest, BackoffIsCappedAtMaxRto) {
  RttEstimator est;
  est.add_sample(200_ms);
  for (int i = 0; i < 40; ++i) est.backoff();  // way past any sane doubling
  EXPECT_EQ(est.rto(), 60_s);  // RFC 6298 ceiling, no overflow
  est.reset_backoff();
  EXPECT_LT(est.rto(), 2_s);
}

TEST(AckChaosTest, RandomSampleStreamKeepsRtoBounded) {
  RttEstimator::Config config;
  config.min_rto = 100_ms;
  RttEstimator est{config};
  sim::Random rng{7};
  for (int i = 0; i < 5000; ++i) {
    est.add_sample(Time::milliseconds(1) * (1.0 + 9999.0 * rng.uniform()));
    if (rng.bernoulli(0.05)) est.backoff();
    ASSERT_GE(est.rto(), config.min_rto);
    ASSERT_LE(est.rto(), RttEstimator::kMaxRto);
  }
}

}  // namespace
}  // namespace halfback::transport
